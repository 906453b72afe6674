"""E10 — PRAM substrate costs: scan/sort/pointer-jumping depth is Θ(log n).

The appendices lean on [SV82] pointer jumping and [AKS83] sorting; this
experiment verifies the substrate meters them at the advertised rates,
doubling n and reporting depth deltas (which must be additive-constant, the
signature of log growth).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from conftest import emit

from repro.graphs.generators import path_graph
from repro.graphs.components import connected_components
from repro.pram.machine import PRAM

NS = [256, 512, 1024, 2048]


@lru_cache(maxsize=None)
def run_sweep():
    rows = []
    for n in NS:
        p_scan, p_sort, p_pj, p_cc = PRAM(), PRAM(), PRAM(), PRAM()
        p_scan.prefix_sum(np.ones(n))
        p_sort.sort(np.arange(n)[::-1].copy())
        chain = np.concatenate([[0], np.arange(n - 1)])
        p_pj.pointer_jump(chain)
        connected_components(p_cc, path_graph(n))
        rows.append(
            [n, p_scan.cost.depth, p_sort.cost.depth, p_pj.cost.depth, p_cc.cost.depth]
        )
    return rows


def test_e10_depth_grows_additively_on_doubling():
    rows = run_sweep()
    for col in (1, 2, 3):
        deltas = [b[col] - a[col] for a, b in zip(rows, rows[1:])]
        # log growth: each doubling adds a bounded constant
        assert all(0 <= d <= 6 for d in deltas), (col, deltas)


def test_e10_cc_depth_polylog():
    rows = run_sweep()
    # O(log^2 n): quadruple n → depth grows well below 4x
    assert rows[-1][4] < 2.5 * rows[0][4]


def test_e10_work_linear_for_scan():
    p1, p2 = PRAM(), PRAM()
    p1.prefix_sum(np.ones(1000))
    p2.prefix_sum(np.ones(2000))
    assert p2.cost.work == 2 * p1.cost.work


def test_e10_table(benchmark):
    rows = run_sweep()
    emit(
        "E10: PRAM primitive depth vs n (scan / AKS sort / pointer jump / CC)",
        ["n", "scan depth", "sort depth", "pointer-jump depth", "SV-CC depth"],
        rows,
    )
    benchmark(lambda: PRAM().prefix_sum(np.ones(4096)))
