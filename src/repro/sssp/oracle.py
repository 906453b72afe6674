"""A (1+ε)-approximate distance oracle backed by one hopset.

The S×V application of §1.2 ([EN20]): once the hopset exists, every source
costs one β-hop Bellman–Ford.  The oracle materializes G ∪ H once, caches
per-source distance *and parent* vectors (LRU), and answers:

* ``query(u, v)`` — a (1+ε)-approximate u–v distance,
* ``path(u, v)`` — the vertex sequence realizing that estimate,
* ``distances_from(s)`` / ``parents_from(s)`` — full vectors for one source,
* ``batch(sources)`` — the S × V matrix of Theorem 3.8's aMSSD.

Pair queries are answered from whichever endpoint is already cached, so a
locality-heavy query stream touches few explorations.  The serving layer
(:mod:`repro.serve`) stacks a micro-batcher and an exact-hit pair cache on
top of this tier; it pins its answers to the *first-named* endpoint instead
of the opportunistic swap so that served values are cache-state independent
(see ``docs/serving.md``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.errors import VertexError
from repro.hopsets.hopset import Hopset
from repro.pram.machine import PRAM
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK, block_width, explore_batch

__all__ = ["HopsetDistanceOracle", "tree_path"]


def tree_path(parent: np.ndarray, s: int, t: int, n: int) -> list[int] | None:
    """The s→t vertex sequence through an exploration tree rooted at ``s``.

    Follows ``parent`` pointers from ``t`` back to ``s`` and reverses;
    returns ``None`` when the walk leaves the tree (no parent) or exceeds
    ``n`` steps — callers check reachability via the distance first.
    """
    walk = [t]
    while walk[-1] != s:
        nxt = int(parent[walk[-1]])
        if nxt < 0 or len(walk) > n:
            return None
        walk.append(nxt)
    walk.reverse()
    return walk


class HopsetDistanceOracle:
    """Build once, query many — the intended usage pattern of a hopset.

    Parameters
    ----------
    graph, hopset:
        The base graph and a prebuilt hopset for it.
    hop_budget:
        Rounds per exploration; defaults to 2β+1 (Lemma 2.1's splice).
    cache_size:
        Number of source vectors kept (LRU).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given,
        cache outcomes increment ``oracle.cache.{hit,miss}`` counters there.
        Outcomes are also reported as cost-model traffic under the same
        labels, so any attached hook (tracer, registry) sees them in trace
        summaries without the oracle knowing about it.
    mssp_block:
        Row-block width S >= 1 of the S×V matrix engine
        (:func:`repro.sssp.mssp.explore_batch`) used for tier-2
        explorations.  Per-source outputs and charges are block-invariant
        (the matrix contract), only wall-clock changes.
    union:
        An already-materialized G ∪ H to explore instead of building
        one from ``hopset.union_graph(graph)`` — the dynamic serving
        path hands the :class:`~repro.dynamic.engine.DynamicOracle`'s
        mutable union here (and re-points the attribute after a
        maintenance pass swaps it).  Any object exposing the CSR quartet
        (``indptr``/``indices``/``weights``/``n``) works.

    **Counters.**  ``misses`` counts tier-1 vector-cache misses (a
    source was requested and its vectors were not resident);
    ``explorations`` counts tier-2 β-hop explorations actually run.
    They are distinct tiers: :meth:`explore_many` (the serving layer's
    grouped pre-explore) runs the exploration and books the miss at
    grouping time, and vectors pre-installed that way are handed to the
    *first* subsequent :meth:`vectors_from` without re-counting — so
    any partitioning of a request stream into batches yields the same
    counter values as serving it one request at a time.
    """

    def __init__(
        self,
        graph: Graph,
        hopset: Hopset,
        hop_budget: int | None = None,
        cache_size: int = 32,
        pram: PRAM | None = None,
        metrics=None,
        mssp_block: int = DEFAULT_MSSP_BLOCK,
        union=None,
    ) -> None:
        if hopset.n != graph.n:
            raise VertexError("hopset and graph disagree on the vertex count")
        if cache_size < 1:
            raise VertexError("cache_size must be at least 1")
        self.graph = graph
        self.hopset = hopset
        self.union = union if union is not None else hopset.union_graph(graph)
        self.hop_budget = (
            hop_budget
            if hop_budget is not None
            else min(2 * hopset.beta + 1, max(graph.n - 1, 1))
        )
        self.pram = pram if pram is not None else PRAM()
        #: source -> (dist, parent), most-recently-used last
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._cache_size = cache_size
        self.metrics = metrics
        #: sources per S×V matrix pass (1: one row at a time)
        self.mssp_block = block_width(mssp_block)
        #: tier-2 explorations actually run (rows of matrix passes)
        self.explorations = 0
        #: S×V matrix passes run (each explores >= 1 rows)
        self.matrix_passes = 0
        self.hits = 0
        #: tier-1 vector-cache misses (requested source not resident)
        self.misses = 0
        #: sources pre-explored by :meth:`explore_many` whose (already
        #: booked) miss has not yet been claimed by a ``vectors_from``
        self._fresh: set[int] = set()
        #: rounds each cached source's exploration ran before converging
        #: (== hop_budget means possibly truncated, not provably settled)
        self._rounds: dict[int, int] = {}

    def _note(self, event: str) -> None:
        """Record one cache outcome (``hit`` | ``miss``) with every sink."""
        self.pram.cost.traffic(f"oracle.cache.{event}", elements=1)
        if self.metrics is not None:
            self.metrics.counter(f"oracle.cache.{event}").inc()

    def is_cached(self, source: int) -> bool:
        """Whether ``source``'s vectors are resident (no LRU touch)."""
        return source in self._cache

    def vectors_from(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(dist, parent)`` pair of ``source``, exploring on miss."""
        if not 0 <= source < self.graph.n:
            raise VertexError(f"source {source} out of range")
        if source in self._cache:
            if source in self._fresh:
                # Pre-explored by explore_many, which already booked the
                # miss this lookup would have been — claim it silently.
                self._fresh.discard(source)
            else:
                self.hits += 1
                self._note("hit")
            self._cache.move_to_end(source)
            return self._cache[source]
        self.explore_many([source])
        self._fresh.discard(source)
        self._cache.move_to_end(source)
        return self._cache[source]

    def explore_many(self, sources) -> dict[int, int]:
        """Explore every not-yet-cached source in S×V matrix passes.

        The serving layer's grouped tier-2 entry point: the distinct
        uncached sources of one micro-batch advance together, one
        (S × n) matrix pass per ``mssp_block`` rows
        (:func:`repro.sssp.mssp.explore_batch`).  Each explored source
        books one tier-1 miss and one tier-2 exploration here — the
        first later :meth:`vectors_from` lookup claims the pre-counted
        miss instead of booking a hit, so counters and charges match
        one-at-a-time serving exactly.

        Returns ``{source: charged work}`` of the explored sources (the
        serving layer's per-source attribution); already-cached sources
        are skipped and absent from the result.
        """
        todo: list[int] = []
        seen: set[int] = set()
        for s in sources:
            s = int(s)
            if not 0 <= s < self.graph.n:
                raise VertexError(f"source {s} out of range")
            if s not in self._cache and s not in seen:
                seen.add(s)
                todo.append(s)
        charges: dict[int, int] = {}
        for lo in range(0, len(todo), self.mssp_block):
            chunk = np.asarray(todo[lo : lo + self.mssp_block], dtype=np.int64)
            res = explore_batch(
                self.union, chunk, self.hop_budget,
                workspace=self.pram.workspace, backend=self.pram.backend,
                obs_cost=self.pram.cost,
            )
            self.matrix_passes += 1
            # Fold the per-row charge streams into the oracle's machine
            # under the same subphase the rows charged themselves —
            # the aggregate equals |chunk| sequential solo explorations,
            # so charges are independent of how requests were batched.
            with self.pram.cost.subphase("bellman_ford"):
                for i, s in enumerate(map(int, chunk)):
                    row_cost = res.costs[i]
                    self.pram.cost.charge(
                        work=row_cost.work, depth=row_cost.depth, label="bf_matrix"
                    )
                    charges[s] = row_cost.work
                    self.explorations += 1
                    self.misses += 1
                    self._note("miss")
                    self._fresh.add(s)
                    self._cache[s] = (res.dist[i], res.parent[i])
                    self._rounds[s] = int(res.rounds_used[i])
                    if len(self._cache) > self._cache_size:
                        evicted, _ = self._cache.popitem(last=False)
                        self._fresh.discard(evicted)
                        self._rounds.pop(evicted, None)
        return charges

    def invalidate_all(self) -> list[int]:
        """Evict every cached source vector; returns the evicted sources.

        The dynamic serving path's response to an *improvement*
        (weight decrease / edge insert): cached vectors are stale upper
        bounds everywhere, so nothing survives.  Counters are untouched
        — invalidation is not a miss, the next lookup is.
        """
        evicted = list(self._cache)
        self._cache.clear()
        self._fresh.clear()
        self._rounds.clear()
        return evicted

    def invalidate_touching(self, codes: np.ndarray) -> list[int]:
        """Evict cached sources a *worsening* of the coded pairs can reach.

        ``codes`` encodes the worsened pairs
        (:func:`repro.dynamic.engine.pair_codes`).  A cached vector
        survives exactly when its exploration tree avoids every coded
        pair **and** the exploration provably converged within the hop
        budget — a converged tree that never crosses a worsened pair
        re-derives the identical vector on recompute (docs/dynamic.md),
        which is the serving determinism contract's bar for keeping it.
        Returns the evicted sources (the serving layer evicts their
        tier-0 entries alongside).
        """
        from repro.dynamic.engine import tree_touches

        evicted = []
        for s in list(self._cache):
            converged = self._rounds.get(s, self.hop_budget) < self.hop_budget
            if converged and not tree_touches(
                self._cache[s][1], codes, self.graph.n
            ):
                continue
            del self._cache[s]
            self._fresh.discard(s)
            self._rounds.pop(s, None)
            evicted.append(s)
        return evicted

    def finish_batch(self) -> None:
        """Drop unclaimed pre-counted misses at the end of a served batch.

        A source pre-explored for a batch is normally claimed by that
        batch's first ``vectors_from`` lookup; if the claiming request
        errored after grouping, the leftover marker must not silently
        swallow a *future* hit.
        """
        self._fresh.clear()

    def distances_from(self, source: int) -> np.ndarray:
        """The cached (1+ε)-approximate distance vector of ``source``."""
        return self.vectors_from(source)[0]

    def parents_from(self, source: int) -> np.ndarray:
        """The parent vector of ``source``'s exploration tree."""
        return self.vectors_from(source)[1]

    def query(self, u: int, v: int) -> float:
        """A (1+ε)-approximate u–v distance (symmetric)."""
        if not 0 <= v < self.graph.n:
            raise VertexError(f"vertex {v} out of range")
        if u == v:
            return 0.0
        if v in self._cache and u not in self._cache:
            u, v = v, u
        return float(self.distances_from(u)[v])

    def path(self, u: int, v: int) -> list[int] | None:
        """The u→v vertex sequence behind :meth:`query`'s estimate.

        Reconstructed from the exploration tree of whichever endpoint is
        (or becomes) cached, following the same endpoint-swap rule as
        :meth:`query`; returns ``None`` when ``v`` is unreached within the
        hop budget.  Tree edges may be hopset shortcuts, so consecutive
        vertices are adjacent in G ∪ H, not necessarily in G.
        """
        if not 0 <= v < self.graph.n:
            raise VertexError(f"vertex {v} out of range")
        if not 0 <= u < self.graph.n:
            raise VertexError(f"vertex {u} out of range")
        if u == v:
            return [u]
        swapped = v in self._cache and u not in self._cache
        s, t = (v, u) if swapped else (u, v)
        dist, parent = self.vectors_from(s)
        if not np.isfinite(dist[t]):
            return None
        walk = tree_path(parent, s, t, self.graph.n)
        if walk is None:
            return None  # broken tree (cannot happen on a finite dist)
        # ``walk`` runs s -> t; when the endpoints were swapped (s = v),
        # the u -> v path is its reverse.
        return walk[::-1] if swapped else walk

    def batch(self, sources: np.ndarray) -> np.ndarray:
        """The |S| × n matrix of Theorem 3.8's aMSSD."""
        src = np.asarray(sources, dtype=np.int64)
        return np.stack([self.distances_from(int(s)) for s in src])

    def cache_info(self) -> dict[str, int]:
        """Cache and exploration counters, tier by tier.

        ``misses`` counts **tier-1** vector-cache misses (requested
        source not resident) and ``explorations`` counts **tier-2**
        β-hop explorations actually run; the historical aliases are kept
        alongside the explicitly-tiered names (``tier1_vector_misses``,
        ``tier2_explorations``) plus ``matrix_passes``, the number of
        S×V matrix sweeps those explorations were grouped into.
        """
        return {
            "cached_sources": len(self._cache),
            "explorations": self.explorations,
            "hits": self.hits,
            "misses": self.misses,
            "tier1_vector_misses": self.misses,
            "tier2_explorations": self.explorations,
            "matrix_passes": self.matrix_passes,
            "mssp_block": self.mssp_block,
        }
