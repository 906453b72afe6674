"""Registry ↔ bench files ↔ docs consistency."""

from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, RETIRED, bench_module_name, experiment

REPO = Path(__file__).resolve().parents[2]


def test_ids_unique_and_sequential():
    """Live ids plus retired ones number E1..En without gaps or reuse."""
    ids = [e.exp_id for e in EXPERIMENTS]
    assert not set(ids) & set(RETIRED)
    total = len(ids) + len(RETIRED)
    expected = [f"E{i}" for i in range(1, total + 1)]
    assert ids == [e for e in expected if e not in RETIRED]


def test_every_experiment_has_a_bench_file():
    for e in EXPERIMENTS:
        path = REPO / "benchmarks" / f"{e.bench_module}.py"
        assert path.exists(), f"{e.exp_id} bench missing: {path}"


def test_every_bench_file_is_registered():
    registered = {e.bench_module for e in EXPERIMENTS}
    on_disk = {
        p.stem
        for p in (REPO / "benchmarks").glob("test_e*.py")
    }
    assert on_disk == registered


def test_experiments_documented():
    design = (REPO / "DESIGN.md").read_text()
    experiments_md = (REPO / "EXPERIMENTS.md").read_text()
    for e in EXPERIMENTS:
        assert f"| {e.exp_id} " in design, f"{e.exp_id} missing from DESIGN.md §4"
        assert f"## {e.exp_id} " in experiments_md, f"{e.exp_id} missing from EXPERIMENTS.md"


def test_lookup_helpers():
    assert experiment("E4").paper_ref.startswith("Thm 3.8")
    assert bench_module_name("E12") == "test_e12_reduction_paths"
    with pytest.raises(KeyError):
        experiment("E99")
