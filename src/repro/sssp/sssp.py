"""(1+ε)-approximate single-source shortest distances — Theorem 3.8.

Pipeline: build the deterministic hopset (Theorem 3.7), materialize G ∪ H,
and run a β-hop Bellman–Ford from the source.  The hopset build dominates
both work and depth; the exploration adds O(β log n) depth and O(|E|+|H|)
work per round, exactly as the theorem's accounting says.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.hopsets.hopset import Hopset
from repro.hopsets.multi_scale import BuildReport, build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.cost import CostSnapshot
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import BellmanFordResult, bellman_ford

__all__ = ["SSSPResult", "approximate_sssp", "approximate_sssp_with_hopset"]


@dataclass
class SSSPResult:
    """Distances plus the full resource/provenance record."""

    source: int
    dist: np.ndarray
    parent: np.ndarray
    hopset: Hopset
    build_report: BuildReport | None
    query_cost: CostSnapshot
    rounds_used: int


def approximate_sssp(
    graph: Graph,
    source: int,
    params: HopsetParams | None = None,
    pram: PRAM | None = None,
    engine: str = "auto",
) -> SSSPResult:
    """End-to-end (1+ε)-SSSD: hopset construction + β-hop exploration."""
    pram = pram if pram is not None else PRAM()
    params = params if params is not None else HopsetParams()
    hopset, report = build_hopset(graph, params, pram)
    result = approximate_sssp_with_hopset(graph, hopset, source, pram, engine=engine)
    return SSSPResult(
        source=source,
        dist=result.dist,
        parent=result.parent,
        hopset=hopset,
        build_report=report,
        query_cost=result.query_cost,
        rounds_used=result.rounds_used,
    )


def approximate_sssp_with_hopset(
    graph: Graph,
    hopset: Hopset,
    source: int,
    pram: PRAM | None = None,
    hop_budget: int | None = None,
    engine: str = "auto",
) -> SSSPResult:
    """β-hop Bellman–Ford in G ∪ H from a prebuilt hopset.

    ``hop_budget`` defaults to the hopset's β times a small spare factor
    (the splice of Lemma 2.1 uses 2β+1 hops), capped at n−1 where
    hop-limited equals exact.  ``engine`` selects the relaxation schedule
    (see :mod:`repro.pram.frontier`); results are bit-exact either way.
    """
    pram = pram if pram is not None else PRAM()
    union = hopset.union_graph(graph)
    budget = hop_budget if hop_budget is not None else min(2 * hopset.beta + 1, max(graph.n - 1, 1))
    before = pram.snapshot()
    with pram.phase("sssp_query"):
        bf: BellmanFordResult = bellman_ford(pram, union, source, budget, engine=engine)
    cost = pram.snapshot() - before
    return SSSPResult(
        source=source,
        dist=bf.dist,
        parent=bf.parent,
        hopset=hopset,
        build_report=None,
        query_cost=cost,
        rounds_used=bf.rounds_used,
    )
