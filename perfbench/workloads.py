"""The workload result record and the ``build`` workload.

Each workload generates its inputs from the seed, times the program through
its public entry points only (``build_hopset``, ``HopsetStore.load``,
``OracleServer.serve_batch`` / ``submit_line`` and the ``update`` /
``delete`` verbs), checks every answer, and returns an :class:`Outcome`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from common import (
    BETA,
    EPSILON,
    GRAPH_SEED,
    BenchError,
    Sizes,
    params,
    pct,
    peak_rss_mb,
    settle,
    sub_seed,
    time_setups,
)
from spans import Recorder, install_layer_spans

#: Relative tolerance of the distance checks (float summation order).
TOL = 1e-9


@dataclass
class Outcome:
    """What one workload run measured and how many of its answers were wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    recorder: Recorder | None = None

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(what)

    def phase(self, name: str, sent: int, bad: int, **extra) -> None:
        self.phases[name] = {"sent": sent, "succeeded": sent - bad, "failed": bad, **extra}

    def traced(self, rec: Recorder, window: float) -> None:
        """Span totals as ``<layer>.<fn>.{calls,self_s}`` plus the residual."""
        for name, row in rec.summary().items():
            self.layers[f"{name}.calls"] = row["calls"]
            self.layers[f"{name}.self_s"] = row["self_s"]
        scales = rec.durations("hopsets.build_single_scale")
        self.layers["hopsets.slowest_scale_s"] = max(scales, default=0.0)
        self.layers["obs.untraced_residual_s"] = window - rec.covered_s()
        self.info["traced_wall_s"] = window
        self.recorder = rec


def build_timed(graph):
    """One plain hopset build: (hopset, report, wall seconds)."""
    from repro.hopsets.multi_scale import build_hopset
    from repro.pram.machine import PRAM

    t0 = time.perf_counter()
    hopset, report = build_hopset(graph, params(), pram=PRAM())
    return hopset, report, time.perf_counter() - t0


def run_build(seed: int, seconds: float, trace: bool, sz: Sizes, wd) -> Outcome:
    """Builds of one fixed road graph, back to back for ``seconds``."""
    from repro.graphs.generators import road_network
    from repro.hopsets.verification import certify_sampled

    out = Outcome()
    # The graph is fixed like the serving workloads' (one road graph's build
    # cost differs from another's by more than the bounds allow); the seed
    # draws the sources certification samples.
    graph = road_network(sz.build_side, sz.build_side, seed=GRAPH_SEED)
    setup_s = time_setups(["build"], sz.setup_reps)

    rec = None
    if trace:
        untraced = build_timed(graph)[2]
        with Recorder() as cal:
            install_layer_spans(cal)
            traced = build_timed(graph)[2]
        out.layers["obs.trace_overhead_frac"] = (traced - untraced) / untraced
        rec = Recorder()
        install_layer_spans(rec)

    first = None  # (hopset, report) of the first build
    walls = []
    settle()
    window0 = time.perf_counter()
    try:
        while not out.attempted or time.perf_counter() - window0 < seconds:
            if rec is not None:
                rec.op = out.attempted
            out.attempted += 1
            try:
                hopset, report, wall = build_timed(graph)
            except Exception as exc:  # a failed build is booked, not fatal
                out.fail(f"build {out.attempted} raised {exc!r}")
                continue
            walls.append(wall)
            first = first or (hopset, report)
            if (hopset.num_records, report.work, report.depth) != (
                first[0].num_records, first[1].work, first[1].depth
            ):
                out.fail(f"build {out.attempted} is not deterministic")
        window = time.perf_counter() - window0
        out.phase("build", out.attempted, out.failed)
    finally:
        if rec is not None:
            rec.restore()
    if first is None:
        raise BenchError("no build succeeded")

    # Certification, outside the measured window.  Safety (no hopset edge
    # shortens a distance) is required.  The stretch at the serving hop
    # budget is a reported figure: on road graphs β = 8 is below the
    # theoretical hopbound, so (1+ε) is not promised there.
    hopset, report = first
    cert = certify_sampled(
        graph, hopset, 2 * BETA + 1, EPSILON, num_sources=8, seed=sub_seed(seed, 7)
    )
    if not cert.safe:
        out.fail("the hopset shortens a distance")
    out.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(walls) / sum(walls),
        "p50_ms": pct(walls, 50) * 1e3,
        "p95_ms": pct(walls, 95) * 1e3,
    }
    out.layers.update({
        "hopsets.edges": hopset.num_records,
        "hopsets.stretch_max": cert.max_stretch,
        "pram.charged_work": report.work,
        "pram.charged_depth": report.depth,
    })
    out.info.update({"n": graph.n, "builds": len(walls)})
    if rec is not None:
        out.traced(rec, window)
    return out
