"""E20 — decremental SSSP via path-reporting hopsets (§1.4 future work).

An update stream of weight increases on one
:class:`~repro.dynamic.DynamicGraph`, with a
:class:`~repro.dynamic.DynamicHopset` notified of every update; per batch:
how many hopset records the cover-aware invalidation kills (locality),
whether queries over G ∪ (live H) stay safe, and what the lazy per-scale
``maintain()`` repairs.  The point: the memory property turns "which
hopset edges are stale?" from a research question into a lookup.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from conftest import emit

from repro.dynamic import DynamicGraph, DynamicHopset
from repro.graphs.distances import dijkstra
from repro.graphs.generators import erdos_renyi
from repro.hopsets.params import HopsetParams
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford

BATCHES = 8
UPDATES_PER_BATCH = 4
REFRESH_BELOW = 0.5
HOP_BUDGET = 17


def _safe(dg, dh) -> bool:
    """β-hop answers over G ∪ (live H) are never under Dijkstra's."""
    exact = dijkstra(dg.snapshot(), 0)
    got = bellman_ford(PRAM(), dh.union_graph(), 0, HOP_BUDGET).dist
    fin = np.isfinite(exact)
    return bool(np.all(got[fin] >= exact[fin] - 1e-9))


@lru_cache(maxsize=None)
def run_sweep():
    g = erdos_renyi(48, 0.1, seed=20001, w_range=(1.0, 3.0))
    dg = DynamicGraph(g)
    dh = DynamicHopset(
        dg, params=HopsetParams(epsilon=0.25, beta=8),
        refresh_below=REFRESH_BELOW, rebuild_below=0.2,
    )
    rng = np.random.default_rng(20002)
    rows = [[0, dh.num_records(), dh.live_records(), 1.0, 0, 0, _safe(dg, dh)]]
    for batch in range(1, BATCHES + 1):
        for _ in range(UPDATES_PER_BATCH):
            i = int(rng.integers(0, dg.num_edge_records))
            u, v = int(dg.edge_u[i]), int(dg.edge_v[i])
            old = dg.edge_weight(u, v)
            dg.increase_weight(u, v, old * 1.5)
            dh.on_weight_increase(u, v, old, old * 1.5)
        records, live = dh.num_records(), dh.live_records()
        safe = _safe(dg, dh)  # decayed, before maintenance
        report = dh.maintain()
        rows.append(
            [
                batch * UPDATES_PER_BATCH,
                records,
                live,
                round(report.live_after, 3),
                dh.scale_refreshes,
                dh.full_rebuilds,
                safe and _safe(dg, dh),
            ]
        )
    return rows


def test_e20_queries_always_safe():
    for row in run_sweep():
        assert row[6], row


def test_e20_invalidation_is_partial_not_total():
    rows = run_sweep()
    mid = rows[1]
    assert 0 < mid[2] <= mid[1]


def test_e20_live_fraction_after_maintain_meets_refresh_floor():
    for row in run_sweep():
        assert row[3] >= REFRESH_BELOW - 1e-9, row


def test_e20_table(benchmark):
    rows = run_sweep()
    emit(
        f"E20: decremental hopset under an update stream (n=48, refresh<{REFRESH_BELOW})",
        ["updates", "records", "live", "live after maintain", "scale refreshes",
         "rebuilds", "safe"],
        rows,
    )
    g = erdos_renyi(48, 0.1, seed=20001, w_range=(1.0, 3.0))
    benchmark(
        lambda: DynamicHopset(DynamicGraph(g), params=HopsetParams(epsilon=0.25, beta=8))
    )
