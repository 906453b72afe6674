"""E27 — incremental repair vs full recompute under live updates.

The dynamic subsystem (``docs/dynamic.md``) exists for one claim: when
updates are sparse, repairing the affected region costs far less than
recomputing from scratch, and the answers are *identical*.  This
experiment measures both halves:

* **E27a — SSSP repair-vs-rebuild crossover.**  A mixed update schedule
  (weight changes, deletes, re-inserts) over a road network at rates
  r ∈ {1, 2, 8, 32} updates per step.  ``repair`` maintains the tree
  incrementally (:class:`~repro.dynamic.repair.DynamicSSSP`);
  ``rebuild`` answers the same per-step question — "distances after
  this batch" — with one full Bellman–Ford per step.  At every step
  boundary the two distance vectors must agree **bit-exactly** (a
  speedup is never quoted off a wrong tree); the *crossover* is the
  smallest rate at which per-step rebuilding becomes cheaper than
  repairing each update.

* **E27b — hopset decay and lazy refresh.**  A congestion wave worsens
  weights until hopset records die
  (:class:`~repro.dynamic.hopset.DynamicHopset` kills exactly the
  uncertified ones), then one :meth:`maintain` pass refreshes the
  decayed scales.  Recorded: the liveness trajectory, refresh work vs
  the initial full-build work, and the safety invariant (β-hop union
  distances never under exact) before *and* after the refresh.

Charged work is the metric: deterministic and host-independent.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
from conftest import emit

from repro.dynamic import DynamicGraph, DynamicHopset, DynamicSSSP
from repro.graphs.generators import (
    as_rng,
    periodic_weight_schedule,
    road_network,
)
from repro.hopsets.params import HopsetParams
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford

OUT_PATH = Path(__file__).resolve().parent / "BENCH_dynamic.json"

_RATES = (1, 2, 8, 32)
_STEPS = 10
_SOURCE = 0
_PARAMS = HopsetParams(epsilon=0.5)


@lru_cache(maxsize=None)
def _workload():
    return road_network(12, 12, seed=2701, w_range=(1.0, 3.0))


def _mixed_schedule(g, steps, rate, seed):
    """Valid-by-construction mixed batches (update / delete / re-insert)."""
    rng = as_rng(seed)
    live = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)
    }
    dead: dict[tuple[int, int], float] = {}
    batches = []
    for _ in range(steps):
        batch = []
        for _ in range(rate):
            r = rng.random()
            if r < 0.15 and len(live) > 1:
                pair = list(live)[int(rng.integers(0, len(live)))]
                dead[pair] = live.pop(pair)
                batch.append(("delete", *pair, None))
            elif r < 0.3 and dead:
                pair = list(dead)[int(rng.integers(0, len(dead)))]
                w = dead.pop(pair)
                live[pair] = w
                batch.append(("update", *pair, w))
            else:
                pair = list(live)[int(rng.integers(0, len(live)))]
                w = live[pair] * float(rng.uniform(0.5, 2.0))
                live[pair] = w
                batch.append(("update", *pair, w))
        batches.append(batch)
    return batches


def _rebuild_step(graph: DynamicGraph, pram: PRAM) -> np.ndarray:
    """The per-step full-recompute baseline: one converged Bellman–Ford."""
    snap = graph.snapshot()
    machine = PRAM(cost=pram.cost, backend=pram.backend)
    res = bellman_ford(
        machine, snap, _SOURCE, hops=max(snap.n - 1, 1), early_exit=True
    )
    return res.dist


@lru_cache(maxsize=None)
def rate_sweep():
    g = _workload()
    rows, rates = [], {}
    crossover = None
    all_exact = True
    for rate in _RATES:
        schedule = _mixed_schedule(g, _STEPS, rate, seed=2702 + rate)
        repair = DynamicSSSP(g, _SOURCE)
        baseline = DynamicGraph(g)
        base_pram = PRAM()
        # the repair engine's boot rebuild is not part of the comparison
        repair_base = repair.pram.cost.work
        rebuild_base = base_pram.cost.work
        exact = True
        for batch in schedule:
            for op in batch:
                if op[0] == "delete":
                    baseline.delete_edge(int(op[1]), int(op[2]))
                elif baseline.has_edge(int(op[1]), int(op[2])):
                    baseline.set_weight(int(op[1]), int(op[2]), float(op[3]))
                else:
                    baseline.insert_edge(int(op[1]), int(op[2]), float(op[3]))
                repair.apply(tuple(op))
            exact = exact and np.array_equal(
                repair.dist, _rebuild_step(baseline, base_pram)
            )
        all_exact = all_exact and exact
        repair_work = repair.pram.cost.work - repair_base
        rebuild_work = base_pram.cost.work - rebuild_base
        ratio = repair_work / max(rebuild_work, 1)
        if crossover is None and repair_work >= rebuild_work:
            crossover = rate
        rates[str(rate)] = {
            "repair_work": int(repair_work),
            "rebuild_work": int(rebuild_work),
            "work_ratio": round(ratio, 3),
            "repairs": repair.repairs,
            "fallback_rebuilds": repair.rebuilds,
            "bit_exact": bool(exact),
        }
        rows.append([
            rate, f"{repair_work:,}", f"{rebuild_work:,}", f"{ratio:.2f}x",
            repair.repairs, repair.rebuilds, exact,
        ])
    return rows, {
        "rates": rates,
        "crossover_rate": crossover,
        "bit_exact": bool(all_exact),
        "steps": _STEPS,
    }


def _never_under(dg: DynamicGraph, dh: DynamicHopset) -> bool:
    """β-hop union distances >= exact − 1e-9, no ghost-finite entries."""
    union = dh.union_graph()
    snap = dg.snapshot()
    budget = 2 * dh.beta + 1
    for s in (0, dg.n // 2):
        exact = bellman_ford(PRAM(), snap, s, hops=snap.n - 1).dist
        approx = bellman_ford(PRAM(), union, s, hops=budget).dist
        fin = np.isfinite(exact)
        if not np.all(approx[fin] >= exact[fin] - 1e-9):
            return False
        if np.isfinite(approx[~fin]).any():
            return False
    return True


@lru_cache(maxsize=None)
def decay_sweep():
    g = _workload()
    dg = DynamicGraph(g)
    pram = PRAM()
    dh = DynamicHopset(dg, params=_PARAMS, pram=pram, rebuild_below=0.0)
    build_work = pram.cost.work
    trajectory = [1.0]
    # congestion wave: the decaying half of a rush-hour cycle
    wave = periodic_weight_schedule(
        g, _STEPS, frac=0.3, peak=6.0, period=2 * _STEPS, seed=2703
    )
    for batch in wave:
        for _, u, v, w in batch:
            old = dg.edge_weight(u, v)
            if w > old:
                dg.set_weight(u, v, w)
                dh.on_weight_increase(u, v, old, w)
        trajectory.append(round(dh.live_fraction, 4))
    safe_decayed = _never_under(dg, dh)
    decayed = dh.live_fraction
    before_refresh = pram.cost.work
    report = dh.maintain()
    refresh_work = pram.cost.work - before_refresh
    safe_refreshed = _never_under(dg, dh)
    rec = {
        "records": dh.num_records(),
        "build_work": int(build_work),
        "live_trajectory": trajectory,
        "decayed_live_fraction": round(decayed, 4),
        "action": report.action,
        "scales_refreshed": len(report.scales_refreshed),
        "refresh_work": int(refresh_work),
        "refresh_vs_build": round(refresh_work / max(build_work, 1), 3),
        "live_after_refresh": round(dh.live_fraction, 4),
        "safe_decayed": bool(safe_decayed),
        "safe_refreshed": bool(safe_refreshed),
    }
    rows = [[
        rec["records"], f"{decayed:.2f}", rec["action"],
        rec["scales_refreshed"], f"{rec['live_after_refresh']:.2f}",
        f"{rec['refresh_vs_build']:.2f}x",
        rec["safe_decayed"] and rec["safe_refreshed"],
    ]]
    return rows, rec


@lru_cache(maxsize=None)
def write_bench():
    _, repair = rate_sweep()
    _, hopset = decay_sweep()
    g = _workload()
    records = {
        "workload": {
            "family": "road", "n": g.n, "arcs": int(g.indices.size),
            "steps": _STEPS, "rates": list(_RATES),
        },
        "repair": repair,
        "hopset": hopset,
    }
    OUT_PATH.write_text(
        json.dumps({"experiments": records}, indent=2, sort_keys=True) + "\n"
    )
    return records


def test_e27_repair_is_bit_exact_at_every_rate():
    _, repair = rate_sweep()
    assert repair["bit_exact"]
    for rate, rec in repair["rates"].items():
        assert rec["bit_exact"], rate


def test_e27_repair_beats_rebuild_at_low_rates():
    _, repair = rate_sweep()
    # the subsystem's reason to exist: sparse updates repair cheaper
    # than per-step recomputes, by a wide margin at rate 1
    assert repair["rates"]["1"]["work_ratio"] < 1.0
    cross = repair["crossover_rate"]
    assert cross is None or cross > 1


def test_e27_work_ratio_degrades_with_rate():
    _, repair = rate_sweep()
    # denser batches amortize the rebuild better; the ratio must not
    # *improve* from the sparsest to the densest probed rate
    ratios = [repair["rates"][str(r)]["work_ratio"] for r in _RATES]
    assert ratios[-1] > ratios[0]


def test_e27_hopset_refresh_restores_liveness_safely():
    _, hopset = decay_sweep()
    assert hopset["decayed_live_fraction"] < 1.0
    assert hopset["action"] == "refresh"
    assert hopset["live_after_refresh"] > hopset["decayed_live_fraction"]
    assert hopset["safe_decayed"] and hopset["safe_refreshed"]


def test_e27_json_written_and_parses():
    write_bench()
    exps = json.loads(OUT_PATH.read_text())["experiments"]
    assert set(exps["repair"]["rates"]) == {str(r) for r in _RATES}
    cross = exps["repair"]["crossover_rate"]
    assert cross is None or int(cross) in _RATES
    assert isinstance(exps["hopset"]["refresh_vs_build"], (int, float))


def test_e27_table(benchmark):
    repair_rows, repair = rate_sweep()
    hopset_rows, _ = decay_sweep()
    write_bench()
    emit(
        f"E27a: SSSP repair vs per-step rebuild (road n=144, {_STEPS} steps)",
        ["rate", "repair work", "rebuild work", "ratio", "repairs",
         "fallbacks", "bit exact"],
        repair_rows,
    )
    emit(
        "E27b: hopset decay -> lazy per-scale refresh",
        ["records", "decayed live", "action", "scales", "live after",
         "refresh/build", "safe"],
        hopset_rows,
    )
    # time the unit the crossover is measured against: one full
    # per-step recompute on the road network
    dg = DynamicGraph(_workload())
    pram = PRAM()
    benchmark(lambda: _rebuild_step(dg, pram))
