"""A mutable CSR wrapper: in-place weights, tombstoned deletions, O(1) lookup.

:class:`~repro.graphs.csr.Graph` is deliberately immutable — every
algorithm in the repository leans on that.  The dynamic subsystem needs
the opposite: thousands of small weight updates between queries, none of
which can afford the O(m log m) rebuild a fresh ``Graph`` costs.

:class:`DynamicGraph` wraps one immutable base graph and owns *mutable
copies* of exactly the two weight arrays (the unique-edge view and the
CSR arc view); the structural arrays — ``indptr``, ``indices``,
``edge_u``/``edge_v``, ``arc_edge_id`` — stay shared with the base and
read-only.  Three facts make updates cheap:

* ``arc_edge_id`` maps each CSR arc slot to its unique-edge id, so the
  two slots of every edge are precomputed once (``argsort`` grouped by
  id) and a weight update writes exactly three cells;
* a pair→edge-id dict gives O(1) lookup, not an O(m) boolean mask;
* deletions **tombstone**: the edge's weight cells become ``+inf`` and an
  alive bit flips.  Relaxation over the CSR is tombstone-transparent
  (an ``inf`` candidate never wins a minimum), so the sparse repair
  engine runs on this object directly; exact recomputes use
  :meth:`snapshot`, which materializes the live edges only.

Only :meth:`insert_edge` of a brand-new pair is structural: CSR cannot
grow in place, so it recompacts into a fresh base (counted,
``recompactions``).  Inserting over a tombstone resurrects it in O(1).

Two generation counters let engines cache derived state safely:
``generation`` bumps on every mutation, ``structural_generation`` only on
recompaction.  Cached :class:`~repro.pram.primitives.RelaxPlan`\\ s alias
``weights`` in-process (no copy), but sharded-backend workers hold
shared-memory *copies* — callers that mutate between explorations must
drop/evict plans via :meth:`~repro.pram.workspace.Workspace.drop_plan`
and :meth:`~repro.pram.backends.base.ExecutionBackend.evict_plan`
(:class:`~repro.dynamic.engine.DynamicOracle` does).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.errors import InvalidGraphError, VertexError

__all__ = ["DynamicGraph"]


class DynamicGraph:
    """A mutable view over one CSR base graph (see the module docstring).

    Duck-types the :class:`~repro.graphs.csr.Graph` attributes the
    relaxation engines read — ``n``, ``indptr``, ``indices``,
    ``weights``, ``arcs()`` — so ``frontier_relax`` / ``explore_batch``
    run on it unchanged; tombstoned arcs carry ``+inf`` and never win a
    relaxation.
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "weights",
        "arc_edge_id",
        "edge_u",
        "edge_v",
        "edge_w",
        "alive",
        "generation",
        "structural_generation",
        "recompactions",
        "_eid",
        "_slots",
        "_snapshot",
    )

    def __init__(self, base: Graph) -> None:
        self.generation = 0
        self.structural_generation = 0
        self.recompactions = 0
        self._adopt(base)

    def _adopt(self, base: Graph) -> None:
        """(Re)derive all state from an immutable base graph."""
        self.n = base.n
        self.indptr = base.indptr
        self.indices = base.indices
        self.weights = base.weights.copy()
        self.arc_edge_id = base.arc_edge_id
        self.edge_u = base.edge_u
        self.edge_v = base.edge_v
        self.edge_w = base.edge_w.copy()
        m = base.num_edges
        self.alive = np.ones(m, dtype=bool)
        # each edge id appears on exactly two CSR slots (its two arcs)
        self._slots = (
            np.argsort(base.arc_edge_id, kind="stable").reshape(m, 2)
            if m
            else np.zeros((0, 2), dtype=np.int64)
        )
        self._eid = {
            (int(a), int(b)): i
            for i, (a, b) in enumerate(zip(base.edge_u, base.edge_v))
        }
        self._snapshot = (self.generation, base)

    # -- lookups -------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexError(f"vertex {v} out of range for graph on {self.n} vertices")

    def edge_index(self, u: int, v: int) -> int | None:
        """The unique-edge id of pair (u, v), dead or alive; O(1)."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._eid.get((u, v) if u < v else (v, u))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the live edge (u, v); ``inf`` when absent or deleted."""
        eid = self.edge_index(u, v)
        if eid is None or not self.alive[eid]:
            return float("inf")
        return float(self.edge_w[eid])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is a live edge."""
        return np.isfinite(self.edge_weight(u, v))

    @property
    def num_edges(self) -> int:
        """|E|: the number of *live* undirected edges."""
        return int(self.alive.sum())

    @property
    def num_edge_records(self) -> int:
        """Edge slots in the backing arrays, tombstones included."""
        return int(self.edge_u.size)

    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All directed arc records as (tails, heads, weights), 2·records.

        Tombstoned arcs are present with weight ``+inf`` — harmless to
        relaxation, wrong for exact algorithms; those take
        :meth:`snapshot`.
        """
        tails = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return tails, self.indices, self.weights

    def live_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live unique edges as (u, v, w) arrays (views by mask copy)."""
        mask = self.alive
        return self.edge_u[mask], self.edge_v[mask], self.edge_w[mask]

    def snapshot(self) -> Graph:
        """An immutable :class:`Graph` of the current live edges.

        Cached per :attr:`generation`, so repeated exact recomputes
        between mutations share one materialization.
        """
        gen, g = self._snapshot
        if gen != self.generation:
            g = Graph(self.n, *self.live_edges())
            self._snapshot = (self.generation, g)
        return g

    # -- mutations -----------------------------------------------------------

    def _require_eid(self, u: int, v: int) -> int:
        eid = self.edge_index(u, v)
        if eid is None or not self.alive[eid]:
            raise InvalidGraphError(f"({u},{v}) is not a live edge")
        return eid

    @staticmethod
    def _check_weight(w: float) -> float:
        w = float(w)
        if not (np.isfinite(w) and w > 0):
            raise InvalidGraphError(f"edge weights must be positive and finite, got {w}")
        return w

    def set_weight(self, u: int, v: int, w: float) -> float:
        """Set the weight of live edge (u, v) in place; returns the old one."""
        w = self._check_weight(w)
        eid = self._require_eid(u, v)
        old = float(self.edge_w[eid])
        if w != old:
            self.edge_w[eid] = w
            self.weights[self._slots[eid]] = w
            self.generation += 1
        return old

    def increase_weight(self, u: int, v: int, w: float) -> float:
        """:meth:`set_weight` that enforces the decremental direction."""
        old = self.edge_weight(u, v)
        if not np.isfinite(old):
            raise InvalidGraphError(f"({u},{v}) is not a live edge")
        if float(w) < old:
            raise InvalidGraphError(
                f"weight of ({u},{v}) may only increase here ({old} -> {w})"
            )
        return self.set_weight(u, v, w)

    def decrease_weight(self, u: int, v: int, w: float) -> float:
        """:meth:`set_weight` that enforces the incremental direction."""
        old = self.edge_weight(u, v)
        if not np.isfinite(old):
            raise InvalidGraphError(f"({u},{v}) is not a live edge")
        if float(w) > old:
            raise InvalidGraphError(
                f"weight of ({u},{v}) may only decrease here ({old} -> {w})"
            )
        return self.set_weight(u, v, w)

    def delete_edge(self, u: int, v: int) -> float:
        """Tombstone live edge (u, v): alive bit off, weight cells +inf.

        Returns the weight the edge had.  O(1); the CSR keeps its shape,
        and relaxations simply never traverse the dead arcs.
        """
        eid = self._require_eid(u, v)
        old = float(self.edge_w[eid])
        self.alive[eid] = False
        self.edge_w[eid] = np.inf
        self.weights[self._slots[eid]] = np.inf
        self.generation += 1
        return old

    def insert_edge(self, u: int, v: int, w: float) -> bool:
        """Insert edge (u, v); returns True when it recompacted.

        Three cases: a live duplicate is an error (use
        :meth:`set_weight`); a tombstoned pair resurrects in O(1); a
        brand-new pair forces a **counted structural recompaction** — CSR
        cannot grow in place, so the live edges plus the new one become a
        fresh base graph (O(m log m), the honest trade-off this design
        makes to keep every other operation constant-time).
        """
        w = self._check_weight(w)
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise InvalidGraphError("self-loops are not allowed")
        eid = self.edge_index(u, v)
        if eid is not None and self.alive[eid]:
            raise InvalidGraphError(
                f"({u},{v}) already exists; use set_weight to change it"
            )
        if eid is not None:  # resurrect the tombstone
            self.alive[eid] = True
            self.edge_w[eid] = w
            self.weights[self._slots[eid]] = w
            self.generation += 1
            return False
        eu, ev, ew = self.live_edges()
        base = Graph(
            self.n,
            np.append(eu, min(u, v)),
            np.append(ev, max(u, v)),
            np.append(ew, w),
        )
        self.generation += 1
        self.structural_generation += 1
        self.recompactions += 1
        self._adopt(base)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.n}, live={self.num_edges}/"
            f"{self.num_edge_records}, gen={self.generation})"
        )
