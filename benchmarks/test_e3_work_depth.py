"""E3 — construction work/depth scaling (Lemma 3.1, Thm 3.7).

Fits log-log slopes of measured work and depth against n.  The claims:
work is *slightly super-linear* (slope ≈ 1 + o(1) in n for fixed ρ, far
below the matmul baseline's 3), and depth grows polylogarithmically
(slope ≈ 0 in any polynomial fit — we check depth grows slower than any
fixed small power of n while work stays near-linear).
"""

from __future__ import annotations

from functools import lru_cache

from conftest import emit

from repro.analysis.metrics import loglog_slope
from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.machine import PRAM

NS = [32, 64, 128, 256]


@lru_cache(maxsize=None)
def run_sweep():
    rows = []
    for n in NS:
        g = erdos_renyi(n, 4.0 / n, seed=3000 + n, w_range=(1.0, 4.0))
        pram = PRAM()
        params = HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=8)
        H, report = build_hopset(g, params, pram)
        procs = int((g.num_edges + g.n ** (1 + 0.5)) * g.n**0.4)
        rows.append(
            [
                n,
                g.num_edges,
                report.work,
                report.depth,
                pram.cost.time_on(procs),
                report.work / (g.num_edges * g.n**0.4),
            ]
        )
    return rows


def test_e3_work_scaling_subquadratic():
    rows = run_sweep()
    slope = loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    # slightly super-linear: well below matmul's 3 and below quadratic
    assert slope < 2.0, f"work slope {slope}"


def test_e3_depth_scaling_polylog_like():
    rows = run_sweep()
    slope = loglog_slope([r[0] for r in rows], [r[3] for r in rows])
    work_slope = loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    assert slope < 1.0, f"depth slope {slope}"  # ≪ any linear growth
    assert slope < work_slope  # depth grows much slower than work


def test_e3_brent_time_with_paper_processors_tracks_depth():
    rows = run_sweep()
    for n, m, work, depth, t, _ in rows:
        # with the Thm 3.7 processor count, T_p is within a small factor of depth
        assert t <= 3 * depth


def test_e3_table(benchmark):
    rows = run_sweep()
    slope_w = loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    slope_d = loglog_slope([r[0] for r in rows], [r[3] for r in rows])
    emit(
        f"E3: build cost scaling (work slope {slope_w:.2f}, depth slope {slope_d:.2f})",
        ["n", "m", "work", "depth", "T_p (paper procs)", "work/(m*n^rho)"],
        rows,
    )
    g = erdos_renyi(64, 4.0 / 64, seed=3064, w_range=(1.0, 4.0))
    benchmark(lambda: build_hopset(g, HopsetParams(beta=8)))
