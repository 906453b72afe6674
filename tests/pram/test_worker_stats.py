"""Cross-process worker telemetry of the sharded backend.

Pins the tentpole contracts of docs/observability.md ("cross-process
telemetry"): per-worker stats rows merge into the registry with a sane
wall-split, per-worker wall never exceeds the backend's round wall, the
Chrome exporter gains one lane per worker next to the parent lane,
fallbacks carry a structured reason label, the health report counts
every sharded round (solo and batched alike), and — the backend contract
— outputs and charged costs are bit-identical with a registry attached,
with no hooks attached at all, and on the serial backend.
"""

import os
import signal

import numpy as np

from repro.graphs.generators import erdos_renyi
from repro.obs.export import backend_health_report, to_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer
from repro.pram.backends import SerialBackend, ShardedBackend
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford
from repro.sssp.mssp import explore_batch


def _graph():
    return erdos_renyi(120, 0.08, seed=11)


def _instrumented_run(be):
    """One Bellman–Ford run under tracer+registry; returns all the pieces."""
    g = _graph()
    pram = PRAM(backend=be)
    tracer = SpanTracer.attach(pram.cost)
    registry = MetricsRegistry.attach(pram.cost)
    res = bellman_ford(pram, g, 0, g.n - 1)
    tracer.finish()
    registry.detach(pram.cost)
    return res, pram.cost.snapshot(), tracer, registry


def _counter(registry, name):
    c = registry.counters.get(name)
    return c.value if c is not None else 0


def test_worker_metrics_merge_with_sane_wall_split():
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        _, _, _, registry = _instrumented_run(be)
        assert be.sharded_rounds > 0 and not be.failed
        rounds = _counter(registry, "primitive.backend.round.calls")
        round_wall = _counter(registry, "primitive.backend.round_wall_ns.elements")
        assert rounds == be.sharded_rounds and round_wall > 0
        for w in range(2):
            prefix = f"primitive.backend.worker.{w}"
            wall = _counter(registry, f"{prefix}.wall_ns.elements")
            split = sum(
                _counter(registry, f"{prefix}.{part}.elements")
                for part in ("gather_ns", "segmin_ns", "serialize_ns")
            )
            assert wall > 0, f"worker {w} reported no wall"
            assert split <= wall, "split parts exceed the worker's total"
            assert _counter(registry, f"{prefix}.arcs.elements") > 0
        # derived health figures all present and plausible
        assert _counter(registry, "primitive.backend.combine_depth.elements") >= 1
        imb = _counter(registry, "primitive.backend.imbalance_milli.elements")
        calls = _counter(registry, "primitive.backend.imbalance_milli.calls")
        assert imb >= 1000 * calls  # max/mean >= 1 by construction
        assert _counter(registry, "primitive.backend.ipc_ns.elements") >= 0
    finally:
        be.close()


def test_per_round_worker_wall_bounded_by_round_wall():
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        _instrumented_run(be)
        assert be.round_log, "no rounds logged"
        for entry in be.round_log:
            assert entry["wall_ns"] > 0
            workers = {w["worker"] for w in entry["workers"]}
            assert workers == {0, 1}
            for w in entry["workers"]:
                assert 0 < w["wall_ns"] <= entry["wall_ns"]
                parts = w["gather_ns"] + w["segmin_ns"] + w["serialize_ns"]
                assert parts <= w["wall_ns"]
    finally:
        be.close()


def test_chrome_trace_gains_one_lane_per_worker():
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        _, _, tracer, registry = _instrumented_run(be)
        doc = to_chrome_trace(tracer, metrics=registry, worker_rounds=be.round_log)
        events = doc["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"parent", "worker 0", "worker 1"}
        lane_tids = {
            e["tid"] for e in events if e["ph"] == "X" and e.get("pid") == 0
        }
        assert {1, 2} <= lane_tids  # one wall-clock lane per worker
        for e in events:
            if e["ph"] == "X" and e.get("tid", 0) >= 1 and e.get("pid") == 0:
                assert e["ts"] >= 0 and e["dur"] > 0
                assert e["args"]["arcs"] > 0
    finally:
        be.close()


def test_outputs_and_costs_identical_stats_on_off():
    """Merging the stats rows (a registry attached) never moves a bit.

    Three runs: sharded with a registry attached (the rows are merged),
    sharded with no hooks (the rows are written but never read), and
    serial.  Outputs and charged costs must be bit-identical.
    """
    g = _graph()
    runs = {}
    for mode in ("registry", "no-hooks"):
        be = ShardedBackend(workers=2, min_arcs=1)
        try:
            pram = PRAM(backend=be)
            registry = None
            if mode == "registry":
                registry = MetricsRegistry.attach(pram.cost)
            res = bellman_ford(pram, g, 0, g.n - 1)
            if registry is not None:
                registry.detach(pram.cost)
                assert _counter(registry, "primitive.backend.round_wall_ns.calls")
            assert be.sharded_rounds > 0 and not be.failed
            runs[mode] = (res, pram.cost.snapshot())
        finally:
            be.close()
    pram = PRAM(backend=SerialBackend())
    runs["serial"] = (bellman_ford(pram, g, 0, g.n - 1), pram.cost.snapshot())
    ref, ref_cost = runs["serial"]
    for mode in ("registry", "no-hooks"):
        res, cost = runs[mode]
        assert np.array_equal(ref.dist, res.dist), mode
        assert np.array_equal(ref.parent, res.parent), mode
        assert (cost.work, cost.depth) == (ref_cost.work, ref_cost.depth), mode


def test_health_report_counts_batched_sharded_rounds():
    """Every sharded round — here S×V row blocks — shows in the report."""
    g = _graph()
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        obs = PRAM().cost
        registry = MetricsRegistry.attach(obs)
        explore_batch(
            g, np.arange(16), 4, workspace=Workspace(), backend=be, obs_cost=obs
        )
        registry.detach(obs)
        assert be.sharded_rounds > 0 and not be.failed
        assert _counter(registry, "primitive.backend.round.calls") == be.sharded_rounds
        report = backend_health_report(registry)
        line = next(r for r in report.splitlines() if r.startswith("sharded rounds"))
        assert line.split()[-1] == str(be.sharded_rounds), report
    finally:
        be.close()


def test_no_hooks_means_no_merge_but_round_log_still_fills():
    """Without subscribers the merge is skipped; plain runs stay lean."""
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        g = _graph()
        bellman_ford(PRAM(backend=be), g, 0, g.n - 1)
        assert be.sharded_rounds > 0
        assert be.round_log == []  # merge (and its logging) is hook-gated
    finally:
        be.close()


def test_fallback_reason_label_after_worker_death():
    g = _graph()
    be = ShardedBackend(workers=2, min_arcs=1, round_timeout=10.0)
    try:
        pram = PRAM(backend=be)
        registry = MetricsRegistry.attach(pram.cost)
        bellman_ford(pram, g, 0, 2, early_exit=False)  # spin up the pool
        victim = be._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        res = bellman_ford(pram, g, 0, g.n - 1)
        registry.detach(pram.cost)
        assert be.failed and be.failure_kind == "worker-death"
        assert _counter(registry, "primitive.backend.fallback.elements") == 1
        assert (
            _counter(registry, "primitive.backend.fallback.worker-death.elements")
            == 1
        )
        assert (
            _counter(registry, "primitive.backend.serial_round.fallback.elements")
            > 0
        )
        report = backend_health_report(registry)
        assert "fallback (worker-death)" in report
        serial = bellman_ford(PRAM(backend=SerialBackend()), g, 0, g.n - 1)
        assert np.array_equal(serial.dist, res.dist)
    finally:
        be.close()


def test_serial_round_reason_min_arcs():
    be = ShardedBackend(workers=2, min_arcs=10**9)
    try:
        _, _, _, registry = _instrumented_run(be)
        assert be.sharded_rounds == 0
        assert (
            _counter(registry, "primitive.backend.serial_round.min-arcs.elements")
            == be.serial_rounds
        )
        report = backend_health_report(registry)
        assert "serial rounds (min-arcs)" in report
    finally:
        be.close()


def test_health_report_empty_without_backend_traffic():
    registry = MetricsRegistry()
    assert backend_health_report(registry) == ""
    g = _graph()
    pram = PRAM(backend=SerialBackend())
    reg = MetricsRegistry.attach(pram.cost)
    bellman_ford(pram, g, 0, g.n - 1)
    reg.detach(pram.cost)
    assert backend_health_report(reg) == ""


def test_health_report_counts_entry_rounds():
    """Entry rounds of a hopset build show, sharded and serial alike."""
    from repro.hopsets.multi_scale import build_hopset
    from repro.hopsets.params import HopsetParams

    g = erdos_renyi(40, 0.15, seed=3)
    params = HopsetParams(epsilon=0.25, beta=8)
    for min_entry_rows, label in ((1, "sharded entry rounds"),
                                  (10**9, "serial entry rounds (min-rows)")):
        be = ShardedBackend(workers=2, min_entry_rows=min_entry_rows)
        try:
            pram = PRAM(backend=be)
            registry = MetricsRegistry.attach(pram.cost)
            build_hopset(g, params, pram=pram)
            registry.detach(pram.cost)
            assert not be.failed
            want = be.sharded_entry_rounds if min_entry_rows == 1 else (
                be.serial_entry_rounds
            )
            assert want > 0
            report = backend_health_report(registry)
            line = next(r for r in report.splitlines() if r.startswith(label))
            assert line.split()[-1] == str(want), report
        finally:
            be.close()
