"""Reusable per-round scratch buffers for the simulator's hot loops.

Every relaxation round of a β-hop exploration needs the same handful of
temporaries — candidate distances, segment minima, changed masks.  NumPy
allocates each of them fresh per round, which on the hot path costs more
than the arithmetic.  A :class:`Workspace` is a named buffer pool: callers
ask for ``take(name, size, dtype)`` and get a view into a retained buffer
that is reused (and grown geometrically when needed) across rounds.

Pooling is *observationally invisible*: a correctly written kernel fully
overwrites every cell of a buffer before reading it, so values from the
previous round can never leak into results.  Because that property is easy
to break silently, the pool supports **poisoning**: in debug mode every
``take`` first fills the returned view with a sentinel (NaN for floats, a
large negative for ints, ``True`` for bools), so a stale read produces
loudly wrong output instead of a plausible one.  Enable it per workspace
(``Workspace(poison=True)``) or globally with the ``REPRO_POOL_POISON=1``
environment variable; the strict-shadow conformance tests run the full
differential matrix with poisoning on.

The workspace also caches per-graph :class:`~repro.pram.primitives.RelaxPlan`
objects (the arcs-sorted-by-head layout the fused dense relaxation kernel
uses), keyed by graph identity — the plan holds a reference to the graph,
so an id can never be recycled while its cache entry is alive.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["Workspace", "poison_default"]

#: Poison sentinel written into integer buffers (floats get NaN, bools True).
INT_POISON = np.iinfo(np.int64).min + 1


def poison_default() -> bool:
    """Resolve the debug pool-poisoning default (``REPRO_POOL_POISON``)."""
    return os.environ.get("REPRO_POOL_POISON", "0") != "0"


class Workspace:
    """A named pool of reusable scratch arrays (plus per-graph plan cache).

    ``take`` returns a *view* of length ``size`` into a pooled buffer; the
    buffer is reused by the next ``take`` of the same name, so callers must
    fully write the view before reading it and must never let a view
    outlive the round that took it (copy out anything that survives —
    fancy indexing does this naturally).  Distinct names never alias.
    """

    __slots__ = ("poison", "_buffers", "_plans")

    def __init__(self, poison: bool | None = None) -> None:
        self.poison = poison_default() if poison is None else bool(poison)
        self._buffers: dict[str, np.ndarray] = {}
        self._plans: dict[int, tuple[object, object]] = {}

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` scratch view named ``name`` (contents undefined)."""
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            capacity = max(size, 2 * (buf.size if buf is not None else 0), 16)
            buf = self._buffers[name] = np.empty(capacity, dtype=dtype)
        view = buf[:size]
        if self.poison:
            if dtype.kind == "f":
                view.fill(np.nan)
            elif dtype.kind == "b":
                view.fill(True)
            else:
                view.fill(INT_POISON)
        return view

    def relax_plan(self, graph):
        """The cached :class:`~repro.pram.primitives.RelaxPlan` of ``graph``.

        Built on first use; subsequent rounds and subsequent explorations
        of the same graph reuse it.  Symmetric CSR graphs get the O(n+m)
        sort-free derivation (:func:`~repro.pram.primitives.build_relax_plan_from_csr`
        — the arc list sorted by head is the CSR with tail/head roles
        swapped), so each hopset scale's cluster graph costs no argsort;
        other arc layouts fall back to the stable-argsort builder.  The
        cache keeps the graph alive, which is what makes ``id(graph)`` a
        sound key.
        """
        key = id(graph)
        hit = self._plans.get(key)
        if hit is not None and hit[0] is graph:
            return hit[1]
        from repro.pram.primitives import build_relax_plan, build_relax_plan_from_csr

        if hasattr(graph, "indptr") and hasattr(graph, "indices"):
            plan = build_relax_plan_from_csr(graph)
        else:  # pragma: no cover - no such caller today
            tails, heads, weights = graph.arcs()
            plan = build_relax_plan(tails, heads, weights, n_cells=graph.n)
        self._plans[key] = (graph, plan)
        return plan

    def drop_plan(self, graph):
        """Evict ``graph``'s cached plan; returns the plan.

        The mutation seam of the dynamic subsystem: a cached
        :class:`~repro.pram.primitives.RelaxPlan` aliases the graph's CSR
        arrays, so an *in-place* weight update keeps it fresh — but a
        structural change (a :class:`~repro.dynamic.graph.DynamicGraph`
        recompaction swaps the arrays under the same object identity)
        silently stales it.  Callers drop here, then hand the
        returned plan to the execution backend's ``evict_plan`` so
        sharded workers release their shared-memory *copies* too.
        Returns ``None`` when nothing was cached.
        """
        hit = self._plans.pop(id(graph), None)
        return hit[1] if hit is not None else None

    def clear(self) -> None:
        """Drop every pooled buffer and cached plan."""
        self._buffers.clear()
        self._plans.clear()
