"""Exact SSSP maintenance under edge updates: repair, don't rebuild.

:class:`DynamicSSSP` keeps an exact shortest-path tree (``dist`` /
``parent``) for one source over a :class:`~repro.dynamic.graph.DynamicGraph`
and repairs it after each mutation instead of recomputing:

* **Weight increase / deletion.**  If the touched edge is not a tree
  edge, nothing changes: every tree path avoids it, its cost is intact
  and still optimal (all path costs only rose).  If it *is* the tree
  edge above child ``c``, exactly the subtree rooted at ``c`` is
  orphaned — found in O(n) from the parent array — and reset to
  ``+inf``; the repair frontier is the set of still-labeled vertices
  adjacent to the orphaned region (every entry point of every possible
  replacement path), re-relaxed to quiescence through the sparse engine
  (:func:`~repro.pram.frontier.frontier_relax`).
* **Weight decrease / insertion.**  Labels are upper bounds that can
  only improve, and any improvement propagates from the touched edge's
  endpoints — they seed the frontier.

Both repairs converge to the *same* floating-point fixpoint a full
Bellman–Ford recompute reaches (the label of every vertex is the minimum
over paths of the left-folded float sum, and float addition of positive
weights is monotone), so ``dist`` agrees **bit-exactly** with a rebuild —
the differential matrix in ``tests/dynamic/test_repair.py`` enforces it.
Parent arrays are only guaranteed *valid* (``dist[v] == dist[parent[v]]
+ w`` exactly), not unique: float ties may resolve differently.

**Auto-fallback.**  An orphaned region whose CSR degree sum exceeds
``fallback_frac`` of all arcs is cheaper to recompute than to repair;
the engine then runs a counted full rebuild instead.  The fraction
defaults to :data:`DEFAULT_FALLBACK_FRAC`.  Every update returns a
:class:`RepairStats` with the charged-work cost of what was done and the
running repair-vs-rebuild totals feed the E27 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.graphs.csr import Graph
from repro.graphs.errors import InvalidGraphError, VertexError
from repro.pram.frontier import frontier_relax
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford

__all__ = ["DEFAULT_FALLBACK_FRAC", "DynamicSSSP", "RepairStats"]

#: The fraction of all CSR arcs the orphaned region's degree sum may reach
#: before a repair falls back to a full recompute; ``0`` forces every
#: orphaning update to rebuild, ``1`` (or more) never falls back.
DEFAULT_FALLBACK_FRAC = 0.25


@dataclass(frozen=True)
class RepairStats:
    """What one update did and what it charged.

    ``mode`` is ``"repair"`` (frontier re-relaxation), ``"rebuild"``
    (auto-fallback or structural recompaction), or ``"noop"`` (the
    update provably changed no label).  ``dirty`` counts orphaned
    vertices, ``seeds`` the repair frontier, ``work`` the charged work
    of this update, and ``est_arcs``/``threshold_arcs`` the fallback
    comparison that chose the mode.
    """

    op: str
    mode: str
    dirty: int = 0
    seeds: int = 0
    rounds: int = 0
    work: int = 0
    est_arcs: int = 0
    threshold_arcs: int = 0


class DynamicSSSP:
    """Exact single-source distances maintained under edge updates.

    Parameters
    ----------
    graph:
        The graph to maintain distances on; an immutable
        :class:`~repro.graphs.csr.Graph` is wrapped into a
        :class:`DynamicGraph` (exposed as ``self.graph``).
    source:
        The SSSP source vertex.
    fallback_frac:
        Repair→rebuild threshold (default :data:`DEFAULT_FALLBACK_FRAC`).
    pram:
        The machine charged for repairs; rebuilds run on a fresh
        workspace sharing its cost model, so the plan cache never
        accumulates per-snapshot entries.
    """

    def __init__(
        self,
        graph: Graph | DynamicGraph,
        source: int,
        *,
        fallback_frac: float | None = None,
        pram: PRAM | None = None,
    ) -> None:
        self.graph = graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        if not 0 <= source < self.graph.n:
            raise VertexError(f"source {source} out of range")
        self.source = int(source)
        self.fallback_frac = float(
            DEFAULT_FALLBACK_FRAC if fallback_frac is None else fallback_frac
        )
        if self.fallback_frac < 0:
            raise InvalidGraphError("fallback_frac must be non-negative")
        self.pram = pram if pram is not None else PRAM()
        self.repairs = 0
        self.rebuilds = 0
        self.updates = 0
        #: cumulative charged work split by mode (the E27 comparison)
        self.repair_work = 0
        self.rebuild_work = 0
        self.dist = np.empty(0)
        self.parent = np.empty(0)
        self._full_rebuild()

    # -- full recompute ------------------------------------------------------

    def _full_rebuild(self) -> tuple[int, int]:
        """Bellman–Ford to convergence on the live snapshot; returns (work, rounds)."""
        snap = self.graph.snapshot()
        before = self.pram.cost.work
        machine = PRAM(cost=self.pram.cost, backend=self.pram.backend)
        res = bellman_ford(
            machine, snap, self.source, hops=max(snap.n - 1, 1), early_exit=True
        )
        self.dist = res.dist.copy()
        self.parent = res.parent.copy()
        work = self.pram.cost.work - before
        self.rebuild_work += work
        return work, res.rounds_used

    # -- repair internals ----------------------------------------------------

    def _orphans(self, child: int) -> np.ndarray:
        """The tree subtree rooted at ``child``, via one pass over parents."""
        order = np.argsort(self.parent, kind="stable")
        indptr = np.searchsorted(self.parent[order], np.arange(self.graph.n + 1))
        out = [child]
        frontier = [child]
        while frontier:
            nxt: list[int] = []
            for p in frontier:
                kids = order[indptr[p] : indptr[p + 1]]
                if kids.size:
                    nxt.extend(int(k) for k in kids)
            out.extend(nxt)
            frontier = nxt
        return np.array(out, dtype=np.int64)

    def _neighbors_of(self, vertices: np.ndarray) -> np.ndarray:
        """Distinct CSR neighbors of a vertex set (tombstone arcs included)."""
        indptr = self.graph.indptr
        starts = indptr[vertices]
        counts = indptr[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        ends = np.cumsum(counts)
        offsets = np.arange(total) + np.repeat(starts - (ends - counts), counts)
        return np.unique(self.graph.indices[offsets])

    def _relax_from(self, seeds: np.ndarray, label: str) -> int:
        stats = frontier_relax(
            self.pram,
            self.graph,
            self.dist,
            self.parent,
            seeds,
            hops=max(self.graph.n - 1, 1),
            engine="sparse",
            early_exit=True,
            label=label,
        )
        return stats.rounds

    def _repair_worsened(self, u: int, v: int, op: str) -> RepairStats:
        """Repair after a weight increase or deletion on pair (u, v)."""
        self.updates += 1
        before = self.pram.cost.work
        if self.parent[v] == u:
            child = v
        elif self.parent[u] == v:
            child = u
        else:
            # not a tree edge: every label's witness path avoids it and
            # all path costs only rose, so every label is still optimal
            self.pram.cost.traffic(f"dynamic.repair.{op}", elements=1)
            return RepairStats(op=op, mode="noop")
        dirty = self._orphans(int(child))
        est_arcs = int(
            (self.graph.indptr[dirty + 1] - self.graph.indptr[dirty]).sum()
        )
        threshold = int(self.fallback_frac * self.graph.indices.size)
        self.pram.cost.traffic(f"dynamic.repair.{op}", elements=int(dirty.size))
        if est_arcs > threshold:
            self.pram.cost.traffic("dynamic.repair.fallback", elements=1)
            self.rebuilds += 1
            work, rounds = self._full_rebuild()
            return RepairStats(
                op=op, mode="rebuild", dirty=int(dirty.size), rounds=rounds,
                work=work, est_arcs=est_arcs, threshold_arcs=threshold,
            )
        self.dist[dirty] = np.inf
        self.parent[dirty] = -1
        seeds = self._neighbors_of(dirty)
        seeds = seeds[np.isfinite(self.dist[seeds])]
        rounds = self._relax_from(seeds, "dyn_repair") if seeds.size else 0
        self.repairs += 1
        work = self.pram.cost.work - before
        self.repair_work += work
        return RepairStats(
            op=op, mode="repair", dirty=int(dirty.size), seeds=int(seeds.size),
            rounds=rounds, work=work, est_arcs=est_arcs, threshold_arcs=threshold,
        )

    def _repair_improved(self, u: int, v: int, op: str) -> RepairStats:
        """Repair after a weight decrease or insertion on pair (u, v)."""
        self.updates += 1
        before = self.pram.cost.work
        self.pram.cost.traffic(f"dynamic.repair.{op}", elements=1)
        seeds = np.array([u, v], dtype=np.int64)
        seeds = seeds[np.isfinite(self.dist[seeds])]
        if seeds.size == 0:
            # both endpoints unreachable: a cheaper edge between two
            # unreached vertices cannot create a path from the source
            return RepairStats(op=op, mode="noop")
        rounds = self._relax_from(seeds, "dyn_repair")
        self.repairs += 1
        work = self.pram.cost.work - before
        self.repair_work += work
        return RepairStats(
            op=op, mode="repair", seeds=int(seeds.size), rounds=rounds, work=work,
            threshold_arcs=int(self.fallback_frac * self.graph.indices.size),
        )

    # -- the update API ------------------------------------------------------

    def set_weight(self, u: int, v: int, w: float) -> RepairStats:
        """Change the weight of live edge (u, v) and repair the tree."""
        old = self.graph.edge_weight(u, v)
        if not np.isfinite(old):
            raise InvalidGraphError(f"({u},{v}) is not a live edge")
        self.graph.set_weight(u, v, w)
        if float(w) == old:
            self.updates += 1
            return RepairStats(op="update", mode="noop")
        if float(w) > old:
            return self._repair_worsened(u, v, "increase")
        return self._repair_improved(u, v, "decrease")

    def increase_weight(self, u: int, v: int, w: float) -> RepairStats:
        """:meth:`set_weight` restricted to the decremental direction."""
        self.graph.increase_weight(u, v, w)
        return self._repair_worsened(u, v, "increase")

    def decrease_weight(self, u: int, v: int, w: float) -> RepairStats:
        """:meth:`set_weight` restricted to the incremental direction."""
        self.graph.decrease_weight(u, v, w)
        return self._repair_improved(u, v, "decrease")

    def delete_edge(self, u: int, v: int) -> RepairStats:
        """Tombstone edge (u, v) and repair the orphaned subtree, if any."""
        self.graph.delete_edge(u, v)
        return self._repair_worsened(u, v, "delete")

    def insert_edge(self, u: int, v: int, w: float) -> RepairStats:
        """Insert edge (u, v) and propagate any improvement.

        A brand-new pair recompacts the CSR (structural); the repair
        itself is still the incremental frontier relaxation — labels are
        preserved across recompaction because the vertex set is stable.
        """
        recompacted = self.graph.insert_edge(u, v, w)
        if recompacted:
            # derived per-object caches (plans, degrees) refer to the old
            # structure; reset so the next relaxation rebuilds them
            self.pram.workspace.drop_plan(self.graph)
        return self._repair_improved(u, v, "insert")

    def apply(self, op: tuple) -> RepairStats:
        """Apply one schedule op: ``("update"|"delete"|"insert", u, v[, w])``.

        The tuple form the time-varying workload generators emit
        (:func:`repro.graphs.generators.periodic_weight_schedule`,
        :func:`~repro.graphs.generators.failure_burst_schedule`);
        ``update`` upserts — it inserts when the pair is not live.
        """
        kind, u, v = op[0], int(op[1]), int(op[2])
        if kind == "delete":
            return self.delete_edge(u, v)
        if kind not in ("insert", "update"):
            raise InvalidGraphError(f"unknown dynamic op {kind!r}")
        w = float(op[3])
        if kind == "insert" or not self.graph.has_edge(u, v):
            return self.insert_edge(u, v, w)
        return self.set_weight(u, v, w)

    # -- queries & checks ----------------------------------------------------

    def distances(self) -> np.ndarray:
        """The maintained exact distance vector (a live view; do not write)."""
        return self.dist

    def verify(self) -> None:
        """Assert the maintained state against a from-scratch recompute.

        Raises ``AssertionError`` unless ``dist`` matches a full
        Bellman–Ford on the live snapshot **bit-exactly** and every
        finite non-source label satisfies the parent identity
        ``dist[v] == dist[parent[v]] + w(parent[v], v)`` exactly.
        """
        snap = self.graph.snapshot()
        res = bellman_ford(PRAM(), snap, self.source, hops=max(snap.n - 1, 1))
        assert np.array_equal(self.dist, res.dist), "repaired dist diverged"
        finite = np.isfinite(self.dist)
        finite[self.source] = False
        idx = np.flatnonzero(finite)
        for v in idx:
            p = int(self.parent[v])
            assert p >= 0, f"finite label {v} without a parent"
            w = self.graph.edge_weight(p, int(v))
            assert self.dist[v] == self.dist[p] + w, f"parent identity broke at {v}"
