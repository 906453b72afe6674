"""Algorithm 4: deterministic (3, 2·log n)-ruling sets for cluster graphs.

The derandomization engine of the paper (Appendix B), after
[AGLP89, SEW13, KMW18]: a divide-and-conquer over the bits of cluster IDs
(IDs = center vertex ids, Section 1.5).  The recursion tree is processed
level by level, bottom-up; at each level every invocation splits its alive
clusters by the current ID bit into B₀ (bit 0) and B₁ (bit 1), all B₀ sets
jointly run one BFS to depth 2 in the virtual graph G̃ᵢ, and every detected
B₁ cluster is *knocked out* — possibly by a different invocation's
exploration, which the paper explicitly allows (Figure 9).

Guarantees (Lemmas B.2, B.3): the output Q is 3-separated w.r.t. G̃ᵢ, and
every input cluster has a Q-cluster within G̃ᵢ-distance 2·⌈log n⌉.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph
from repro.hopsets.cluster_graph import ExplorePlan, bfs_from_clusters
from repro.hopsets.clusters import Partition
from repro.hopsets.errors import HopsetError
from repro.pram.machine import PRAM
from repro.pram.primitives import ceil_log2

__all__ = ["ruling_set"]


def ruling_set(
    pram: PRAM,
    graph: Graph,
    partition: Partition,
    candidates: np.ndarray,
    threshold: float,
    hops: int,
    members_by_cluster: list[np.ndarray] | None = None,
    plan: ExplorePlan | None = None,
) -> np.ndarray:
    """Compute a (3, 2·⌈log n⌉)-ruling set for ``candidates`` w.r.t. G̃ᵢ.

    Parameters
    ----------
    partition:
        The cluster collection ``P_i`` defining G̃ᵢ's supervertices.
    candidates:
        Boolean mask over clusters — the paper's ``W_i`` (popular clusters).
    threshold, hops:
        G̃ᵢ's edge rule: clusters at (``hops``-bounded) distance ≤
        ``threshold`` in the underlying graph are adjacent.
    plan:
        The scale's :class:`~repro.hopsets.cluster_graph.ExplorePlan`,
        shared by every knockout sweep (one is made when omitted).

    Returns
    -------
    Boolean mask of the selected clusters Q ⊆ candidates.
    """
    ncl = partition.num_clusters
    if candidates.shape != (ncl,):
        raise HopsetError("candidates mask must have one flag per cluster")
    alive = candidates.copy()
    if not alive.any():
        return alive
    ids = partition.centers.astype(np.int64)
    bits = ceil_log2(max(int(partition.n), 2))
    members = (
        members_by_cluster if members_by_cluster is not None else partition.members_by_cluster()
    )
    plan = plan if plan is not None else ExplorePlan(graph)
    for h in range(bits):
        # one span per ID-bit level of the divide-and-conquer recursion
        with pram.subphase(f"bit{h}"):
            bit = (ids >> h) & 1
            b0 = alive & (bit == 0)
            b1 = alive & (bit == 1)
            pram.charge(work=ncl, depth=1, label="ruling_split")
            if not (b0.any() and b1.any()):
                continue
            bfs = bfs_from_clusters(
                pram,
                graph,
                partition,
                source_mask=b0,
                threshold=threshold,
                hops=hops,
                max_pulses=2,
                members_by_cluster=members,
                plan=plan,
            )
            knocked = b1 & bfs.detected()
            alive &= ~knocked
            pram.charge(work=ncl, depth=1, label="ruling_knockout")
    return alive
