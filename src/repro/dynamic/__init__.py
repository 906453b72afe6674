"""The incremental-update subsystem: repair, don't rebuild.

The paper closes (§1.4) by conjecturing its techniques extend to dynamic
shortest paths; ROADMAP item 3 names the workload.  This package is the
real subsystem behind that item: instead of rebuilding everything on an
update, it repairs in four layers (``docs/dynamic.md``):

1. :class:`~repro.dynamic.graph.DynamicGraph` — a mutable wrapper over
   the immutable CSR :class:`~repro.graphs.csr.Graph`: O(1) pair→edge
   lookup, in-place weight mutation (both CSR arc slots share the edge's
   weight cells), and a tombstone mask for deletions, so an update does
   not pay an O(m) edge-array rebuild.
2. :class:`~repro.dynamic.repair.DynamicSSSP` — exact SSSP maintenance
   that repairs the shortest-path tree after each update by re-relaxing
   only the affected frontier through the sparse engine
   (:func:`~repro.pram.frontier.frontier_relax`), with a charged-cost
   comparison against full recompute and an auto-fallback when the dirty
   region is too large.
3. :class:`~repro.dynamic.hopset.DynamicHopset` — the lazy hopset
   repair: the memory-path dependency index kills exactly the records
   whose certified upper bound may have broken (cover-aware), and decayed
   scales are refreshed one at a time, reusing surviving lower-scale
   edges, instead of a monolithic rebuild.
4. :class:`~repro.dynamic.engine.DynamicOracle` — the serving-facing
   composition: a mutable G ∪ H union kept consistent with both layers
   plus the exact cache-invalidation decisions the
   :class:`~repro.serve.server.OracleServer` ``update``/``delete`` verbs
   need.
"""

from repro.dynamic.engine import DynamicOracle, pair_codes, tree_touches
from repro.dynamic.graph import DynamicGraph
from repro.dynamic.hopset import DynamicHopset, MaintenanceReport
from repro.dynamic.repair import DEFAULT_FALLBACK_FRAC, DynamicSSSP, RepairStats

__all__ = [
    "DEFAULT_FALLBACK_FRAC",
    "DynamicGraph",
    "DynamicHopset",
    "DynamicOracle",
    "DynamicSSSP",
    "MaintenanceReport",
    "RepairStats",
    "pair_codes",
    "tree_touches",
]
