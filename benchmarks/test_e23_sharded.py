"""E23 — sharded execution backend: wall-clock scaling vs Brent's bound.

The sharded backend (docs/backends.md) distributes the dense relaxation
round's segmented minimum over ``W`` shared-memory worker processes with
a deterministic fixed-shard-order min-combine — bit-exact outputs, bit-identical
charged costs, only wall-clock changes.  This experiment measures, on a
≥10⁵-arc workload:

* **end-to-end dense SSSP** wall-clock, serial vs sharded for
  W ∈ {1, 2, 4}, asserting bit-exactness and charged-cost identity;
* **per-round kernel** wall-clock (the isolated ``relax_segmin_batch`` on
  a one-row block, the single-source round), which separates IPC +
  combine overhead from the Bellman–Ford scaffolding;
* **measured vs Brent-predicted scaling** — the charged (work, depth)
  give the model's ``T_p ≤ W/p + D`` curve; the JSON records predicted
  and measured speedups side by side so the gap (IPC, combine, memory
  bandwidth) is visible.

The acceptance criterion is a ≥1.5× W=4 speedup **or a documented host
cap**: on hosts with fewer than 4 cores (CI runners here expose 1) the
workers time-slice one core, so the sharded path can only add IPC
overhead; ``host.cap_note`` in ``benchmarks/BENCH_sharded.json`` records
exactly that, and the wall numbers quantify the overhead instead.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
from conftest import emit, record_obs

from repro.graphs.generators import erdos_renyi
from repro.pram import primitives as P
from repro.pram.backends import SerialBackend, ShardedBackend
from repro.pram.cost import CostModel
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford

OUT_PATH = Path(__file__).resolve().parent / "BENCH_sharded.json"

_WIDTHS = (1, 2, 4)
_HOPS = 10
_KERNEL_ROUNDS = 12
_REPEATS = 2


@lru_cache(maxsize=None)
def _graph():
    # ~115k directed arcs — comfortably above the 10⁵-arc acceptance floor
    return erdos_renyi(1600, 0.045, seed=2301, w_range=(1.0, 4.0))


def _best_of(fn, repeats=_REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _measure_sssp(g, backend):
    def run():
        pram = PRAM(CostModel(), workspace=Workspace(poison=False), backend=backend)
        res = bellman_ford(
            pram, g, 0, hops=_HOPS, early_exit=False, engine="dense"
        )
        return res, pram.cost.work, pram.cost.depth
    (res, work, depth), wall = _best_of(run)
    return res, work, depth, wall


def _measure_kernel(g, backend):
    """Best-of wall for `_KERNEL_ROUNDS` isolated one-row rounds."""
    tails, heads, w = g.arcs()
    plan = P.build_relax_plan(tails, heads, w, n_cells=g.n)
    rng = np.random.default_rng(2302)
    row = rng.uniform(0.0, 50.0, size=(1, g.n))
    ws = Workspace(poison=False)

    def run():
        out = None
        for _ in range(_KERNEL_ROUNDS):
            out = backend.relax_segmin_batch(plan, row, ws.take)
        return out
    out, wall = _best_of(run)
    return out, wall, plan


@lru_cache(maxsize=None)
def run_sweep():
    g = _graph()
    arcs = int(g.indices.size)
    cpu = os.cpu_count() or 1

    serial = SerialBackend()
    ref, work, depth, wall_serial = _measure_sssp(g, serial)
    (ref_mn, ref_py), kwall_serial, _ = _measure_kernel(g, serial)

    # Brent: the model's T_p <= W/p + D in charged units, normalized to a
    # predicted speedup curve the measured walls can be laid against.
    cost = CostModel()
    cost.charge(work=work, depth=depth, label="e23")
    predicted = {
        w: round(cost.time_on(1) / cost.time_on(w), 3) for w in _WIDTHS
    }

    rows = []
    records = {
        "host": {
            "cpu_count": cpu,
            "cap_note": (
                None if cpu >= 4 else
                f"host exposes {cpu} core(s): W>{cpu} workers time-slice "
                f"the same core(s), so sharding adds IPC/combine overhead "
                f"without parallel compute — the Brent curve below is the "
                f"speedup a {max(_WIDTHS)}-core host would make available"
            ),
        },
        "workload": {"family": "er", "n": g.n, "arcs": arcs,
                     "hops": _HOPS, "work": work, "depth": depth},
        "serial": {"sssp_wall_s": round(wall_serial, 6),
                   "kernel_wall_s": round(kwall_serial, 6)},
        "widths": {},
    }
    for w in _WIDTHS:
        be = ShardedBackend(workers=w, min_arcs=1)
        try:
            res, swork, sdepth, wall = _measure_sssp(g, be)
            (mn, py), kwall, _ = _measure_kernel(g, be)
            bit_exact = (
                np.array_equal(ref.dist, res.dist)
                and np.array_equal(ref.parent, res.parent)
                and np.array_equal(ref_mn, mn)
                and np.array_equal(ref_py, py)
            )
            cost_equal = (swork, sdepth) == (work, depth)
            engaged = be.sharded_rounds > 0 and not be.failed
        finally:
            be.close()
        speedup = wall_serial / max(wall, 1e-12)
        kspeedup = kwall_serial / max(kwall, 1e-12)
        records["widths"][str(w)] = {
            "sssp_wall_s": round(wall, 6),
            "kernel_wall_s": round(kwall, 6),
            "measured_speedup": round(speedup, 3),
            "kernel_speedup": round(kspeedup, 3),
            "brent_predicted_speedup": predicted[w],
            "bit_exact": bool(bit_exact),
            "charged_cost_equal": bool(cost_equal),
            "engaged": bool(engaged),
        }
        rows.append([
            f"sharded:{w}", f"{wall_serial * 1e3:.1f}", f"{wall * 1e3:.1f}",
            f"{speedup:.2f}x", f"{kspeedup:.2f}x", f"{predicted[w]:.2f}x",
            bit_exact and cost_equal and engaged,
        ])
        record_obs(
            f"e23/sharded:{w}",
            measured_speedup=round(speedup, 3),
            kernel_speedup=round(kspeedup, 3),
            brent_predicted=predicted[w],
            wall_s=wall,
        )
    OUT_PATH.write_text(
        json.dumps({"experiments": records}, indent=2, sort_keys=True) + "\n"
    )
    return rows, records


def test_e23_workload_clears_the_arc_floor():
    _, records = run_sweep()
    assert records["workload"]["arcs"] >= 100_000


def test_e23_bit_exact_and_cost_identical_at_every_width():
    _, records = run_sweep()
    for w, rec in records["widths"].items():
        assert rec["bit_exact"], w
        assert rec["charged_cost_equal"], w
        assert rec["engaged"], w


def test_e23_speedup_or_documented_host_cap():
    """W=4 must reach 1.5×, unless the host can't — then the cap is recorded."""
    _, records = run_sweep()
    w4 = records["widths"]["4"]["measured_speedup"]
    host = records["host"]
    if host["cpu_count"] >= 4:
        assert w4 >= 1.5, records["widths"]["4"]
    else:
        assert host["cap_note"], host  # why the host caps lower, in the JSON


def test_e23_brent_curve_is_recorded_and_sane():
    _, records = run_sweep()
    preds = [records["widths"][str(w)]["brent_predicted_speedup"] for w in _WIDTHS]
    assert preds[0] == 1.0
    assert all(a <= b + 1e-9 for a, b in zip(preds, preds[1:]))  # monotone
    # depth keeps T_p > W/p: the curve must stay below perfect scaling
    assert all(p <= w for p, w in zip(preds, _WIDTHS))


def test_e23_json_written_and_parses():
    run_sweep()
    data = json.loads(OUT_PATH.read_text())
    exp = data["experiments"]
    assert set(exp["widths"]) == {str(w) for w in _WIDTHS}
    assert "cpu_count" in exp["host"]


def test_e23_table(benchmark):
    rows, _ = run_sweep()
    emit(
        "E23: sharded backend wall-clock vs Brent-predicted scaling "
        f"(dense SSSP, {_graph().indices.size} arcs)",
        ["backend", "serial ms", "sharded ms", "speedup",
         "kernel speedup", "Brent predicted", "exact+cost-equal+engaged"],
        rows,
    )
    g = _graph()
    tails, heads, w = g.arcs()
    plan = P.build_relax_plan(tails, heads, w, n_cells=g.n)
    row = np.random.default_rng(2303).uniform(0.0, 50.0, size=(1, g.n))
    ws = Workspace(poison=False)
    serial = SerialBackend()
    benchmark(lambda: serial.relax_segmin_batch(plan, row, ws.take))
