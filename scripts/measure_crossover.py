#!/usr/bin/env python
"""Measure where a sharded relaxation round starts to beat the in-process one.

Times one relaxation round through ``ShardedBackend(workers=2)`` routed
both ways — ``min_arcs=1`` sends every round to the pool, a huge
``min_arcs`` keeps it in-process — with a metrics registry attached as the
server attaches one.  Reps are interleaved, the side that goes first
alternates, and the script prints median walls:

* the batched round (``relax_segmin_batch``) on the ``query-cold`` union
  (G ∪ H of ``erdos_renyi(1200, 0.01)``, ε = 0.25, β = 8) for S active
  rows, i.e. S × arcs candidates;
* the solo round — a one-row block through the same
  ``relax_segmin_batch`` — over ``erdos_renyi`` graphs of growing arc
  counts.

Per table, the crossover is the smallest measured candidate count from
which on the sharded median wins at every larger count too; the last
line names the smaller of the two.  ``DEFAULT_MIN_ARCS`` in
``src/repro/pram/backends/sharded.py`` records that figure for the host
the table in ``docs/backends.md`` was measured on.  Run it on a quiet host::

    PYTHONPATH=src python scripts/measure_crossover.py --reps 60
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import time

import numpy as np

from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.obs.metrics import MetricsRegistry
from repro.pram.backends import ShardedBackend
from repro.pram.cost import CostModel
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace

ROWS = (1, 2, 4, 8, 12, 16, 32)
SOLO_ARCS = (16_000, 32_000, 64_000, 128_000, 256_000, 512_000)
BURST = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def interleaved(cases, sides, reps, burst=BURST):
    """``{(case, side): median seconds per round}``, case by case.

    Within a case the sides take turns, a burst of ``burst`` back-to-back
    rounds each (an exploration runs its rounds back to back on one
    route), and the side that goes first alternates from rep to rep.
    Each rep's figure is the median round of its burst.  A warm-up burst
    per side first starts the pool and registers the plan and row block.
    """
    walls = {}
    for case, run in cases.items():
        for side in sides:
            for _ in range(burst):
                run(side)
            walls[(case, side)] = []
        for rep in range(reps):
            for side in sides if rep % 2 == 0 else sides[::-1]:
                times = []
                for _ in range(burst):
                    t0 = time.perf_counter()
                    run(side)
                    times.append(time.perf_counter() - t0)
                walls[(case, side)].append(statistics.median(times))
    return {k: statistics.median(v) for k, v in walls.items()}


def crossover(table):
    """Smallest count from which on sharded wins at every measured count."""
    best = None
    for count, serial, sharded in sorted(table, reverse=True):
        if sharded >= serial:
            break
        best = count
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=60)
    args = ap.parse_args()
    rng = np.random.default_rng(7)
    ws = Workspace(poison=False)
    cost = CostModel()
    MetricsRegistry.attach(cost)
    backends = {
        "serial": ShardedBackend(workers=2, min_arcs=2**62),
        "sharded:2": ShardedBackend(workers=2, min_arcs=1),
    }
    sides = tuple(backends)
    print(f"host: {cpu_model()}, {os.cpu_count()} cpus, "
          f"python {platform.python_version()}, numpy {np.__version__}")
    tables = {"batched": [], "solo": []}
    try:
        g = erdos_renyi(1200, 0.01, seed=2021, w_range=(1.0, 4.0))
        hopset, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8), pram=PRAM())
        union = hopset.union_graph(g)
        plan = ws.relax_plan(union)
        blocks = {s: rng.uniform(0.0, 50.0, (s, union.n)) for s in ROWS}
        cases = {
            s: (lambda side, b=blocks[s]:
                backends[side].relax_segmin_batch(plan, b, ws.take, cost))
            for s in ROWS
        }
        med = interleaved(cases, sides, args.reps)
        print(f"\nbatched round, query-cold union ({plan.n_arcs} arcs), "
              f"median of {args.reps}:")
        print("| S (rows) | candidates | serial | sharded:2 | serial ÷ sharded |")
        print("|---|---|---|---|---|")
        for s in ROWS:
            a, b = med[(s, "serial")], med[(s, "sharded:2")]
            tables["batched"].append((s * plan.n_arcs, a, b))
            print(f"| {s} | {s * plan.n_arcs:,} | {a * 1e6:,.0f} µs | "
                  f"{b * 1e6:,.0f} µs | {a / b:.2f} |")

        n = 2000
        solo = {}
        for arcs in SOLO_ARCS:
            graph = erdos_renyi(n, arcs / (n * (n - 1)), seed=arcs,
                                w_range=(1.0, 4.0))
            p = ws.relax_plan(graph)
            row = rng.uniform(0.0, 50.0, (1, graph.n))
            solo[p.n_arcs] = (lambda side, p=p, b=row:
                              backends[side].relax_segmin_batch(p, b, ws.take, cost))
        med = interleaved(solo, sides, args.reps)
        print(f"\nsolo round, erdos_renyi(n={n}), median of {args.reps}:")
        print("| arcs | serial | sharded:2 | serial ÷ sharded |")
        print("|---|---|---|---|")
        for arcs in solo:
            a, b = med[(arcs, "serial")], med[(arcs, "sharded:2")]
            tables["solo"].append((arcs, a, b))
            print(f"| {arcs:,} | {a * 1e6:,.0f} µs | {b * 1e6:,.0f} µs | "
                  f"{a / b:.2f} |")
    finally:
        for backend in backends.values():
            backend.close()
    found = {name: crossover(t) for name, t in tables.items()}
    print(f"\ncrossover per table: {found}")
    found = [c for c in found.values() if c is not None]
    print(f"smallest measured candidate count where sharded:2 wins: "
          f"{min(found):,}" if found else "sharded:2 never won")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
