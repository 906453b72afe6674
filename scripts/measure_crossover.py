#!/usr/bin/env python
"""Measure the relaxation rounds' crossovers: sharded vs in-process, push vs pull.

**Sharded vs in-process.**  Times one relaxation round through
``ShardedBackend(workers=2)`` routed both ways — ``min_arcs=1`` sends
every round to the pool, a huge ``min_arcs`` keeps it in-process — with a
metrics registry attached as the server attaches one:

* the batched round (``relax_segmin_batch``) on the ``query-cold`` union
  (G ∪ H of ``erdos_renyi(1200, 0.01)``, ε = 0.25, β = 8) for S active
  rows, i.e. S × arcs candidates;
* the solo round — a one-row block through the same
  ``relax_segmin_batch`` — over ``erdos_renyi`` graphs of growing arc
  counts.

Per table, the crossover is the smallest measured candidate count from
which on the sharded median wins at every larger count too; the sweep's
answer is the smaller of the two.  ``DEFAULT_MIN_ARCS`` in
``src/repro/pram/backends/sharded.py`` records that figure for the host
the table in ``docs/backends.md`` was measured on.

**Push vs pull.**  Times the matrix engine's batched round
(``prelax_arcs_batch``, in process) with its direction pinned each way,
on states captured from real rounds of row blocks of {1, 4, 8, 32}
sources — over the ``query-cold`` union and a 20×20 road union (churn's
graph with its path-reporting hopset) — whose frontiers' out-arcs cover
0.1–50% of the block's candidates.  Linear fits ``pull = p·(a·m) + q``
and ``push = k·T + c`` (weighted by relative error) give the direction
rule's constants: ``PUSH_ARC_COST = k / p`` and a fitted fixed cost
``(c − q) / p``.  Then whole explorations of the same block sizes run
under that rule and with pushes off; ``PUSH_FIXED_COST`` is the larger
of the fitted fixed cost and the largest block (``a·m``) the rule did not
make faster, since the fit leaves out the degree sums of rounds that end
up pulling.  Both constants live in ``src/repro/pram/primitives.py``
(tables in ``docs/mssp.md``).

Reps are interleaved and the side that goes first alternates.  A single
sweep's answer moves from run to run on a shared host, so each sweep runs
three times; the script prints every answer, their median — the figure
the constants record — and the spread.  Run it on a quiet host::

    PYTHONPATH=src python scripts/measure_crossover.py --reps 60
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import time

import numpy as np

from repro.graphs.generators import erdos_renyi, road_network
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.hopsets.path_reporting import build_path_reporting_hopset
from repro.obs.metrics import MetricsRegistry
from repro.pram import primitives
from repro.pram.backends import ShardedBackend
from repro.pram.cost import CostModel
from repro.pram.machine import PRAM
from repro.pram.primitives import BlockFrontier, prelax_arcs_batch
from repro.pram.workspace import Workspace
from repro.sssp.mssp import explore_batch

ROWS = (1, 2, 4, 8, 12, 16, 32)
SOLO_ARCS = (16_000, 32_000, 64_000, 128_000, 256_000, 512_000)
PUSH_ROWS = (1, 4, 8, 32)
BURST = 5
SWEEPS = 3


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


def sharded_sweep(backends, union, ws, cost, reps, rng):
    """One sharded-vs-in-process sweep: both tables, then its crossover."""
    sides = tuple(backends)
    tables = {"batched": [], "solo": []}
    plan = ws.relax_plan(union)
    blocks = {s: rng.uniform(0.0, 50.0, (s, union.n)) for s in ROWS}
    cases = {
        s: (lambda side, b=blocks[s]:
            backends[side].relax_segmin_batch(plan, b, ws.take, cost))
        for s in ROWS
    }
    med = interleaved(cases, sides, reps)
    print(f"\nbatched round, query-cold union ({plan.n_arcs} arcs), "
          f"median of {reps}:")
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
    med = interleaved(solo, sides, reps)
    print(f"\nsolo round, erdos_renyi(n={n}), median of {reps}:")
    print("| arcs | serial | sharded:2 | serial ÷ sharded |")
    print("|---|---|---|---|")
    for arcs in solo:
        a, b = med[(arcs, "serial")], med[(arcs, "sharded:2")]
        tables["solo"].append((arcs, a, b))
        print(f"| {arcs:,} | {a * 1e6:,.0f} µs | {b * 1e6:,.0f} µs | "
              f"{a / b:.2f} |")
    found = {name: crossover(t) for name, t in tables.items()}
    print(f"crossover per table: {found}")
    found = [c for c in found.values() if c is not None]
    return min(found) if found else None


def captured_rounds(plan, n_rows, hops, rng):
    """Engine states before the real rounds of one row block.

    Runs the block's rounds as ``explore_batch`` does and keeps, for
    every round whose frontiers' out-arcs cover 0.1–50% of the block's
    candidates, ``(T, dist, parent, active, frontier rows)``.
    """
    n = plan.n_cells
    src = rng.choice(n, size=n_rows, replace=False)
    dist = np.full((n_rows, n), np.inf)
    parent = np.full((n_rows, n), -1, dtype=np.int64)
    dist[np.arange(n_rows), src] = 0.0
    parent[np.arange(n_rows), src] = src
    frontier = BlockFrontier([src[r:r + 1] for r in range(n_rows)])
    active = np.ones(n_rows, dtype=bool)
    costs = [CostModel() for _ in range(n_rows)]
    deg = np.diff(plan.indptr)
    states = []
    for _ in range(hops):
        live = np.flatnonzero(active)
        if not live.size:
            break
        arcs = sum(int(deg[frontier.rows[r]].sum()) for r in live)
        if 0.001 <= arcs / (live.size * plan.n_arcs) <= 0.5:
            states.append((arcs, dist.copy(), parent.copy(), active.copy(),
                           list(frontier.rows)))
        active &= prelax_arcs_batch(costs, dist, parent, plan=plan,
                                    active=active, frontier=frontier)
    return states


#: The direction rule's constants pinned to one direction per side.
PINNED = {"pull": (0, float("inf")), "push": (0, 0)}


def pinned_round(plan, state, ws):
    """A runner replaying one captured round with the direction pinned."""
    _, dist0, parent0, active, rows = state
    costs = [CostModel() for _ in rows]

    def run(side):
        primitives.PUSH_ARC_COST, primitives.PUSH_FIXED_COST = PINNED[side]
        prelax_arcs_batch(costs, dist0.copy(), parent0.copy(), plan=plan,
                          active=active, frontier=BlockFrontier(list(rows)),
                          workspace=ws)

    return run


def linear_fit(x, y):
    """Slope and intercept of ``y ≈ slope·x + intercept``, relative error."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1, w=1.0 / y)
    return slope, intercept


def push_sweep(unions, ws, reps, rng):
    """One push-vs-pull sweep: the table, then ``(PUSH_ARC_COST, PUSH_FIXED_COST)``."""
    saved = primitives.PUSH_ARC_COST, primitives.PUSH_FIXED_COST
    rows_out = []
    try:
        for name, union, hops in unions:
            plan = ws.relax_plan(union)
            cases = {}
            for n_rows in PUSH_ROWS:
                for i, state in enumerate(captured_rounds(plan, n_rows, hops, rng)):
                    cases[(name, n_rows, i)] = (plan, state)
            med = interleaved(
                {k: pinned_round(p, st, ws) for k, (p, st) in cases.items()},
                tuple(PINNED), reps,
            )
            for key, (plan, state) in cases.items():
                a = int(state[3].sum())
                rows_out.append((key[0], a, a * plan.n_arcs, state[0],
                                 med[(key, "pull")], med[(key, "push")]))
    finally:
        primitives.PUSH_ARC_COST, primitives.PUSH_FIXED_COST = saved
    print(f"\nbatched round, in process, pull vs push, median of {reps}:")
    print("| union | a (rows) | a·m | T | T ÷ a·m | pull | push | pull ÷ push |")
    print("|---|---|---|---|---|---|---|---|")
    for name, a, am, t, pull, push in sorted(rows_out, key=lambda r: r[:4]):
        print(f"| {name} | {a} | {am:,} | {t:,} | {t / am:.1%} | "
              f"{pull * 1e6:,.0f} µs | {push * 1e6:,.0f} µs | {pull / push:.2f} |")
    p, q = linear_fit([r[2] for r in rows_out], [r[4] for r in rows_out])
    k, c = linear_fit([r[3] for r in rows_out], [r[5] for r in rows_out])
    print(f"fits: pull = {p * 1e9:.2f} ns·(a·m) + {q * 1e6:.1f} µs, "
          f"push = {k * 1e9:.2f} ns·T + {c * 1e6:.1f} µs")
    return k / p, (c - q) / p


def explore_sweep(unions, ws, reps, rng, arc_cost, fixed_cost):
    """Whole explorations with pushes on vs off; returns the fixed cost.

    A round-level fit leaves out what the rule costs in rounds that end
    up pulling: every round of a block above the fixed cost sums its
    frontiers' degrees first.  So each block of 1, 4, 8 and 32 sources is
    explored whole, under the fitted rule and with pushes off, and the
    fixed cost becomes the larger of the fitted one and the largest
    block (``a · m``) that the rule did not make faster.
    """
    saved = primitives.PUSH_ARC_COST, primitives.PUSH_FIXED_COST
    sides = {"off": (arc_cost, float("inf")), "on": (arc_cost, fixed_cost)}
    rows_out = []
    try:
        for name, union, hops in unions:
            plan = ws.relax_plan(union)

            def run(side, src):
                primitives.PUSH_ARC_COST, primitives.PUSH_FIXED_COST = sides[side]
                explore_batch(union, src, hops, workspace=ws)

            cases = {
                n_rows: (lambda side, src=rng.choice(union.n, size=n_rows,
                                                     replace=False): run(side, src))
                for n_rows in PUSH_ROWS
            }
            med = interleaved(cases, tuple(sides), reps)
            for n_rows in PUSH_ROWS:
                rows_out.append((name, n_rows, n_rows * plan.n_arcs,
                                 med[(n_rows, "off")], med[(n_rows, "on")]))
    finally:
        primitives.PUSH_ARC_COST, primitives.PUSH_FIXED_COST = saved
    print(f"\nwhole exploration, pushes off vs on (fixed cost {fixed_cost:,.0f}), "
          f"median of {reps}:")
    print("| union | rows | a·m | pushes off | pushes on | off ÷ on |")
    print("|---|---|---|---|---|---|")
    for name, n_rows, am, off, on in rows_out:
        print(f"| {name} | {n_rows} | {am:,} | {off * 1e6:,.0f} µs | "
              f"{on * 1e6:,.0f} µs | {off / on:.2f} |")
    losing = [am for _, _, am, off, on in rows_out if on >= off]
    return max([fixed_cost, *losing])


def summary(name, answers, fmt):
    """Each sweep's answer, their median and spread, on one line."""
    found = [x for x in answers if x is not None]
    if not found:
        return f"{name}: {answers} (no answer)"
    med = statistics.median(found)
    return (f"{name}: runs {', '.join(fmt(x) for x in answers)}; "
            f"median {fmt(med)}, spread {fmt(max(found) - min(found))}")


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
    print(f"host: {cpu_model()}, {os.cpu_count()} cpus, "
          f"python {platform.python_version()}, numpy {np.__version__}")
    g = erdos_renyi(1200, 0.01, seed=2021, w_range=(1.0, 4.0))
    hopset, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8), pram=PRAM())
    union = hopset.union_graph(g)
    road = road_network(20, 20, seed=2021)
    road_hopset, _ = build_path_reporting_hopset(
        road, HopsetParams(epsilon=0.25, beta=8), PRAM()
    )
    unions = [
        ("query-cold", union, min(2 * hopset.beta + 1, g.n - 1)),
        ("road 20×20", road_hopset.union_graph(road),
         min(2 * road_hopset.beta + 1, road.n - 1)),
    ]
    try:
        crossovers = [sharded_sweep(backends, union, ws, cost, args.reps, rng)
                      for _ in range(SWEEPS)]
    finally:
        for backend in backends.values():
            backend.close()
    constants = []
    for _ in range(SWEEPS):
        arc_cost, fixed_cost = push_sweep(unions, ws, args.reps, rng)
        constants.append((arc_cost, explore_sweep(
            unions, ws, args.reps, rng, arc_cost, fixed_cost)))
    print()
    print(summary("smallest candidate count where sharded:2 wins", crossovers,
                  lambda x: f"{x:,}"))
    print(summary("PUSH_ARC_COST", [k for k, _ in constants],
                  lambda x: f"{x:.2f}"))
    print(summary("PUSH_FIXED_COST", [c for _, c in constants],
                  lambda x: f"{x:,.0f}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
