"""The perf ledger: records, baselines, tolerance bands, the check gate."""

import json

import pytest

from repro.obs import ledger


def _bench_doc(sssp_work=1000, wall=0.5, speedup=2.0, bit_exact=True):
    return {
        "experiments": {
            "er": {
                "bit_exact": bit_exact,
                "sssp": {"work": sssp_work, "wall_s": wall, "speedup": speedup},
                "note": "strings are not metrics",
            }
        }
    }


@pytest.fixture
def bench_dir(tmp_path):
    d = tmp_path / "benchmarks"
    d.mkdir()
    (d / "BENCH_demo.json").write_text(json.dumps(_bench_doc()))
    return d


def test_flatten_keeps_scalars_drops_strings():
    flat = ledger.flatten_metrics(_bench_doc()["experiments"]["er"])
    assert flat == {
        "bit_exact": True,
        "sssp.work": 1000.0,
        "sssp.wall_s": 0.5,
        "sssp.speedup": 2.0,
    }
    assert isinstance(flat["bit_exact"], bool)


def test_scan_bench_dir_skips_history(bench_dir):
    (bench_dir / "BENCH_history.jsonl").write_text("{}\n")
    pairs = ledger.scan_bench_dir(bench_dir)
    assert [bid for bid, _ in pairs] == ["demo:er"]


def test_append_load_roundtrip_and_baseline(tmp_path):
    history = tmp_path / "h.jsonl"
    r1 = ledger.make_record("demo:er", {"x": 1.0}, host="h1", sha="a", timestamp=1.0)
    r2 = ledger.make_record("demo:er", {"x": 2.0}, host="h2", sha="b", timestamp=2.0)
    r3 = ledger.make_record("other:g", {"y": 3.0}, host="h1", sha="b", timestamp=2.0)
    assert ledger.append_records(history, [r1]) == 1
    assert ledger.append_records(history, [r2, r3]) == 2
    records = ledger.load_history(history)
    assert len(records) == 3
    # latest wins; same-host preferred over strictly-newer other-host
    assert ledger.baseline_for(records, "demo:er")["metrics"]["x"] == 2.0
    assert ledger.baseline_for(records, "demo:er", host="h1")["metrics"]["x"] == 1.0
    assert ledger.baseline_for(records, "missing:id") is None
    assert ledger.load_history(tmp_path / "absent.jsonl") == []


def test_tolerance_bands():
    base = {"sssp.work": 1000.0, "sssp.wall_s": 0.5, "sssp.speedup": 2.0,
            "bit_exact": True}
    # inside every band: no regressions
    ok = {"sssp.work": 1100.0, "sssp.wall_s": 0.9, "sssp.speedup": 1.4,
          "bit_exact": True}
    assert ledger.compare_metrics("b", ok, base) == []
    # work beyond 1.25x
    bad = dict(ok, **{"sssp.work": 1300.0})
    regs = ledger.compare_metrics("b", bad, base)
    assert [r.metric for r in regs] == ["sssp.work"]
    # wall beyond 2.5x AND the absolute floor
    regs = ledger.compare_metrics("b", dict(ok, **{"sssp.wall_s": 1.5}), base)
    assert [r.metric for r in regs] == ["sssp.wall_s"]
    # tiny absolute wall growth stays under the noise floor even at >2.5x
    micro = {"sssp.wall_s": 0.004}
    assert ledger.compare_metrics("b", {"sssp.wall_s": 0.011}, micro) == []
    # speedup halved from a real baseline
    regs = ledger.compare_metrics("b", dict(ok, **{"sssp.speedup": 0.9}), base)
    assert [r.metric for r in regs] == ["sssp.speedup"]
    # speedup collapse from a non-speedup baseline is not flagged
    assert ledger.compare_metrics(
        "b", {"sssp.speedup": 0.4}, {"sssp.speedup": 1.1}
    ) == []
    # boolean flip
    regs = ledger.compare_metrics("b", dict(ok, **{"bit_exact": False}), base)
    assert [r.metric for r in regs] == ["bit_exact"]
    # metrics on only one side are ignored
    assert ledger.compare_metrics("b", {"new": 9.0}, {"old": 1.0}) == []


def test_check_flags_perturbed_metric(bench_dir):
    history = ledger.history_path(bench_dir)
    # first check: nothing recorded yet -> nothing compared
    regressions, compared, missing = ledger.check(bench_dir)
    assert (regressions, compared) == ([], 0) and missing == ["demo:er"]
    # seed the baseline from the current file
    records = [
        ledger.make_record(bid, metrics)
        for bid, metrics in ledger.scan_bench_dir(bench_dir)
    ]
    ledger.append_records(history, records)
    regressions, compared, missing = ledger.check(bench_dir)
    assert (regressions, compared, missing) == ([], 1, [])
    # perturb one metric far beyond tolerance -> flagged
    (bench_dir / "BENCH_demo.json").write_text(
        json.dumps(_bench_doc(sssp_work=100_000))
    )
    regressions, compared, _ = ledger.check(bench_dir)
    assert compared == 1 and len(regressions) == 1
    assert regressions[0].metric == "sssp.work"
    assert "demo:er" in str(regressions[0])


def test_history_path_env_override(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)
    assert ledger.history_path("benchmarks").name == "BENCH_history.jsonl"
    monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "elsewhere.jsonl"))
    assert ledger.history_path("benchmarks") == tmp_path / "elsewhere.jsonl"


def test_host_fingerprint_and_sha_shapes():
    fp = ledger.host_fingerprint()
    assert "c-py" in fp and " " not in fp
    sha = ledger.git_sha()
    assert sha == "unknown" or len(sha) == 40


def test_host_experiment_is_not_a_bench(tmp_path):
    """A BENCH file's ``host`` block describes the recording machine.

    Checked against a record made on a 1-core host, a 2-core host's
    ``cpu_count`` is no regression, and ``host`` is no bench id.
    """
    d = tmp_path / "benchmarks"
    d.mkdir()
    doc = _bench_doc()
    doc["experiments"]["host"] = {"cpu_count": 2}
    (d / "BENCH_demo.json").write_text(json.dumps(doc))
    history = ledger.history_path(d)
    ledger.append_records(history, [
        ledger.make_record("demo:er", ledger.flatten_metrics(
            _bench_doc()["experiments"]["er"])),
        ledger.make_record("demo:host", {"cpu_count": 1.0}),
    ])
    assert [bid for bid, _ in ledger.scan_bench_dir(d)] == ["demo:er"]
    regressions, compared, missing = ledger.check(d)
    assert (regressions, compared, missing) == ([], 1, [])
