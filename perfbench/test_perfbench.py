"""The benchmark's own test: every workload at a tiny size.

    python3 -m pytest perfbench -q

Checks that every named metric is emitted with its unit, that traced self
times plus the untraced residual sum back to the traced wall, and that a
corrupted reply is booked as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run  # noqa: E402
from spans import SUM_TOLERANCE_S, Recorder  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def measure(workload: str, trace: bool):
    return run.measure(workload, seed=5, seconds=1.0, trace=trace, sizes=common.TINY)


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result, report = measure(workload, trace=False)
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_back_to_the_traced_wall(workload):
    result, report = measure(workload, trace=True)
    assert result["correct"], report["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    self_total = sum(row["self_s"] for row in report["spans"].values())
    residual = result["metrics"]["obs.untraced_residual_s"]["value"]
    assert self_total > 0 and residual >= 0
    assert abs(self_total + residual - report["info"]["traced_wall_s"]) <= SUM_TOLERANCE_S


def test_overlapping_top_level_spans_break_the_sum():
    rec = Recorder()
    # a and b overlap on two threads; c is a's child
    rec.spans = [["a", 0.0, 2.0, -1, None], ["b", 1.0, 3.0, -1, None],
                 ["c", 1.5, 1.75, 0, None]]
    self_total = sum(row["self_s"] for row in rec.summary().values())
    assert rec.covered_s() == 3.0
    assert self_total == 4.0  # the overlap is counted twice


@pytest.mark.parametrize("workload", ["query-cold", "churn"])
def test_a_corrupted_reply_is_booked_as_a_failure(workload, monkeypatch):
    common.import_program()
    from repro.serve.server import OracleServer

    original = OracleServer.serve_batch
    corrupted = []

    def serve_batch(self, items):
        replies = original(self, items)
        if not corrupted:
            corrupted.append(replies[0])
            replies[0] += "1"
        return replies

    monkeypatch.setattr(OracleServer, "serve_batch", serve_batch)
    result, report = measure(workload, trace=False)
    assert corrupted
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["fail_frac"] > 0
