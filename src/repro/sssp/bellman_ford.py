"""Hop-limited Bellman–Ford on the PRAM machine.

The application side of the paper: once a (1+ε, β)-hopset H exists, a
β-round Bellman–Ford in G ∪ H from the source computes (1+ε)-approximate
distances (Theorem 3.8).  One dense round relaxes every arc once —
O(|E|+|H|) work, O(log n) depth (the concurrent minimum per vertex is a
combine tree) — so the full exploration is O(β·log n) depth, exactly the
paper's bound.  The relaxation loop itself is delegated to
:func:`repro.pram.frontier.frontier_relax`, which by default switches
per round between that dense schedule and a sparse frontier-driven one
(gather the out-arcs of only the vertices that changed) — bit-exact
``dist``/``parent``/``rounds_used`` either way, usually far less charged
work.  Pass ``engine="dense"`` to force the textbook schedule.

Parent pointers are tracked (deterministic tie-breaking), which the SPT
extraction of §4 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.errors import VertexError
from repro.pram.frontier import ENGINES, FrontierStats, frontier_relax
from repro.pram.machine import PRAM

__all__ = ["BellmanFordResult", "bellman_ford"]


@dataclass
class BellmanFordResult:
    """Distances, parents, and the number of rounds actually executed."""

    dist: np.ndarray
    parent: np.ndarray  # parent[source] == source; -1 where unreached
    rounds_used: int
    hop_budget: int
    frontier_stats: FrontierStats | None = None

    @property
    def reached(self) -> np.ndarray:
        return np.isfinite(self.dist)


def bellman_ford(
    pram: PRAM,
    graph: Graph,
    sources: int | np.ndarray,
    hops: int,
    early_exit: bool = True,
    engine: str = "auto",
) -> BellmanFordResult:
    """``hops`` rounds of parallel edge relaxation from ``sources``.

    ``sources`` may be one vertex or an array (the multi-source variant
    runs one exploration whose distance is to the *nearest* source —
    used by the weight-reduction star assembly; Theorem 3.8's aMSSD runs
    one independent instance per source instead).

    With ``early_exit`` the loop stops once a round changes nothing; the
    cost model is charged only for executed rounds (the paper's bounds are
    worst-case, so measured depth ≤ bound — E4 reports both), and the
    no-change detection itself (compare + OR-reduce, or the frontier
    rebuild that subsumes it) is charged in every engine.

    ``engine`` selects the relaxation schedule — ``"dense"`` (all arcs
    every round), ``"sparse"`` (frontier-driven), or ``"auto"`` (per-round
    Ligra-style switch, the default); see :mod:`repro.pram.frontier`.
    Dense relaxation rounds execute on ``pram``'s
    execution backend (:mod:`repro.pram.backends`): under
    ``REPRO_BACKEND=sharded[:W]`` the segmented minimum runs on a pool of
    shared-memory workers, again bit-exact and charge-identical.
    """
    if hops < 0:
        raise VertexError(f"hop budget must be non-negative, got {hops}")
    if engine not in ENGINES:
        raise VertexError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if src.size == 0:
        raise VertexError("at least one source is required")
    if src.min() < 0 or src.max() >= graph.n:
        raise VertexError("source vertex out of range")

    with pram.subphase("bellman_ford"):
        dist = pram.broadcast(np.inf, graph.n, dtype=np.float64, label="bf_init")
        parent = pram.broadcast(-1, graph.n, dtype=np.int64, label="bf_init")
        dist[src] = 0.0
        parent[src] = src
        stats = frontier_relax(
            pram,
            graph,
            dist,
            parent,
            src,
            hops,
            engine=engine,
            early_exit=early_exit,
            label="bf",
        )
    return BellmanFordResult(
        dist=dist,
        parent=parent,
        rounds_used=stats.rounds,
        hop_budget=hops,
        frontier_stats=stats,
    )
