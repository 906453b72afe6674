#!/usr/bin/env python
"""CI perf smoke: the serving layer must answer correctly and batch cheaply.

Three checks on the E4 workload graph (docs/serving.md):

* **Correctness hard-fail.**  Every served reply — across singleton
  batches, full micro-batches, and a warm second pass — must be
  bit-identical to the offline :class:`HopsetDistanceOracle` reference
  under the canonical-source contract.  Any divergence fails the job.

* **Batching overhead budget.**  Serving the stream in micro-batches
  must cost at most 1.5× the singleton-batch wall (batching is a
  wall-clock optimization; on a quiet host it should win, and the budget
  leaves headroom for timer noise on loaded runners, never for a real
  regression).

* **Informational timing.**  Cold/warm QPS and p50/p99 latency are
  printed for the CI log; the ledgered figures live in
  ``benchmarks/BENCH_serve.json`` (E25).

Runs on any host — serving is single-threaded at the numeric tiers, so
no core-count skip applies.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.graphs.generators import layered_hop_graph
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.obs.export import histogram_quantile
from repro.serve import OracleServer
from repro.serve.protocol import format_dist, format_path
from repro.sssp.oracle import HopsetDistanceOracle, tree_path

_BATCH = 32
_N_QUERIES = 400
_OVERHEAD_BUDGET = 1.5


def _workload():
    g = layered_hop_graph(48, 3, seed=4001)
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


def _stream(n):
    rng = np.random.default_rng(4002)
    sources = rng.choice(n, size=12, replace=False)
    return [
        f"{'path' if i % 8 == 7 else 'dist'} "
        f"{int(sources[i % 12])} {int(rng.integers(0, n))}"
        for i in range(_N_QUERIES)
    ]


def _reference(g, H, lines):
    offline = HopsetDistanceOracle(g, H, cache_size=g.n)
    out = []
    for line in lines:
        kind, u, v = line.split()
        u, v = int(u), int(v)
        dist, parent = offline.vectors_from(u)
        if kind == "dist":
            out.append(format_dist(u, v, 0.0 if u == v else float(dist[v])))
        else:
            walk = (
                [u] if u == v
                else tree_path(parent, u, v, g.n) if np.isfinite(dist[v])
                else None
            )
            out.append(format_path(u, v, walk))
    return out


def _serve_pass(server, lines, batch):
    replies = []
    t0 = time.perf_counter()
    for lo in range(0, len(lines), batch):
        replies.extend(server.serve_batch(lines[lo:lo + batch]))
    return replies, time.perf_counter() - t0


def main() -> int:
    g, H = _workload()
    lines = _stream(g.n)
    expected = _reference(g, H, lines)
    ok = True

    def check(label, replies):
        nonlocal ok
        if replies != expected:
            bad = next(
                i for i, (a, b) in enumerate(zip(replies, expected)) if a != b
            )
            print(
                f"FAIL: {label} diverges from the offline oracle at "
                f"query {bad}: {replies[bad]!r} != {expected[bad]!r}",
                file=sys.stderr,
            )
            ok = False

    singles = OracleServer(g, H, cache_size=g.n)
    try:
        cold_single, single_wall = _serve_pass(singles, lines, batch=1)
        check("singleton-batch serving", cold_single)
    finally:
        singles.close()

    server = OracleServer(g, H, cache_size=g.n)
    try:
        cold, cold_wall = _serve_pass(server, lines, batch=_BATCH)
        check("micro-batched serving (cold)", cold)
        warm, warm_wall = _serve_pass(server, lines, batch=_BATCH)
        check("micro-batched serving (warm)", warm)
        lat = server.registry.histograms["serve.latency_us"]
        print(
            f"E4 serve ({len(lines)} queries, batch {_BATCH}): "
            f"cold {len(lines) / max(cold_wall, 1e-12):.0f} qps, "
            f"warm {len(lines) / max(warm_wall, 1e-12):.0f} qps, "
            f"p50 {histogram_quantile(lat, 0.5):.0f}us, "
            f"p99 {histogram_quantile(lat, 0.99):.0f}us"
        )
    finally:
        server.close()

    ratio = cold_wall / max(single_wall, 1e-12)
    print(
        f"batching overhead: batched {cold_wall * 1e3:.1f}ms vs "
        f"singleton {single_wall * 1e3:.1f}ms (ratio {ratio:.2f}x, "
        f"budget {_OVERHEAD_BUDGET}x)"
    )
    if ratio > _OVERHEAD_BUDGET:
        print(
            f"FAIL: micro-batching costs {ratio:.2f}x the singleton path "
            f"(budget {_OVERHEAD_BUDGET}x)",
            file=sys.stderr,
        )
        ok = False

    if ok:
        print("perf smoke OK: served transcript bit-exact, batching within budget")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
