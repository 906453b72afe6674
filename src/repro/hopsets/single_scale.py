"""Single-scale hopset construction — Section 2.1 of the paper.

One scale k handles vertex pairs with d_G(u, v) ∈ (2^k, 2^{k+1}].  The
construction runs ℓ+1 phases of superclustering-and-interconnection over the
cluster collection ``P_i``:

1. **detect popular clusters** (Lemma A.3): one pulse of Algorithm 2 with
   x = degᵢ+1 sources kept — a cluster with ≥ degᵢ neighbors in G̃ᵢ is
   popular;
2. **ruling set** (Corollary B.4): a deterministic (3, 2·log n)-ruling set
   Qᵢ for the popular clusters;
3. **superclustering**: a BFS to depth 2·log n in G̃ᵢ from Qᵢ; every
   detected cluster joins the supercluster of its detecting source and its
   center adds one superclustering edge to H_k;
4. **interconnection**: clusters left out (``U_i``) connect their centers
   to the centers of all neighbors that are also in ``U_i``.

Phase ℓ skips superclustering (eq. 5 guarantees |P_ℓ| ≤ n^ρ) and
interconnects everything.

Edge weights come in two modes (DESIGN.md §6): *faithful* uses the paper's
worst-case formulas (superclustering ``2((1+ε_{k−1})δᵢ + 2Rᵢ)·log n``,
Lemma 2.3; interconnection ``d^{(2β+1)}(C,C') + 2Rᵢ``, Lemma 2.9); *tight*
(default) uses the realized weight of the implementing path, which the
cluster memory (§4.3) makes available at no asymptotic cost.  Both are
upper bounds on the true distance, so the hopset never shortens distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.hopsets.cluster_graph import BFSResult, bfs_from_clusters, neighbor_tables
from repro.hopsets.clusters import ClusterMemory, Partition
from repro.hopsets.errors import CertificationError
from repro.hopsets.hopset import INTERCONNECT, SUPERCLUSTER, HopsetEdge
from repro.hopsets.params import PhaseSchedule
from repro.hopsets.ruling_sets import ruling_set
from repro.pram.machine import PRAM
from repro.pram.primitives import ceil_log2

__all__ = ["PhaseStats", "build_single_scale", "compose_supercluster_path", "interconnect_path"]


@dataclass(frozen=True)
class PhaseStats:
    """Per-phase accounting, used by the E3/E6 experiment tables."""

    phase: int
    num_clusters: int
    popular: int
    ruling_set_size: int
    supercluster_edges: int
    interconnect_edges: int
    degree_threshold: int
    distance_threshold: float


def compose_supercluster_path(
    bfs: BFSResult, c: int, memory: ClusterMemory, centers: np.ndarray
) -> tuple[int, ...]:
    """Memory path: origin center → center of detected cluster ``c``.

    Walks the detection chain (Figure 2): per hop, descend from the
    predecessor's center to the seed z (reversed CP(z)), traverse the
    recorded z → u segment, then climb CP(u) to the detected cluster's
    center.
    """
    chain: list[int] = []
    cur = c
    while bfs.pred[cur] >= 0:
        chain.append(cur)
        cur = int(bfs.pred[cur])
    path: tuple[int, ...] = (int(centers[cur]),)
    for cl in reversed(chain):
        z = int(bfs.seg_seed[cl])
        u = int(bfs.seg_member[cl])
        down = memory.path(z)[::-1]  # pred center → z
        if down[0] != path[-1]:
            raise CertificationError("memory-path composition lost the predecessor center")
        path = path + down[1:]
        seg = bfs.seg_paths[cl] if bfs.seg_paths is not None else None
        if seg is None:
            raise CertificationError("superclustering BFS did not record a segment path")
        path = path + seg[1:]
        path = path + memory.path(u)[1:]
    return path


def interconnect_path(
    memory: ClusterMemory, z: int, u: int, seg: tuple[int, ...]
) -> tuple[int, ...]:
    """Memory path: center(C') → z → u → center(C) for an interconnection."""
    down = memory.path(z)[::-1]
    if seg[0] != z or seg[-1] != u:
        raise CertificationError("interconnection segment endpoints are inconsistent")
    return down + seg[1:] + memory.path(u)[1:]


def build_single_scale(
    pram: PRAM,
    g_prev: Graph,
    schedule: PhaseSchedule,
    tight_weights: bool = True,
    record_paths: bool = False,
) -> tuple[list[HopsetEdge], list[PhaseStats]]:
    """Construct the scale-k hopset H_k over ``g_prev = G ∪ H_{k−1}``.

    Returns the new hopset edges and per-phase statistics.  ``schedule``
    carries every derived parameter of Section 2.1 for this scale (see
    :class:`repro.hopsets.params.PhaseSchedule`).
    """
    n = g_prev.n
    k = schedule.k
    hops = 2 * schedule.beta + 1
    log_n = math.log2(max(n, 2))
    partition = Partition.singletons(n)
    memory = ClusterMemory(n, record_paths=record_paths)
    edges: list[HopsetEdge] = []
    stats: list[PhaseStats] = []

    for i in range(schedule.ell + 1):
        if partition.num_clusters <= 1:
            break
        members = partition.members_by_cluster()
        centers = partition.centers
        threshold = schedule.threshold(i)
        deg = schedule.degrees[i]
        last_phase = i == schedule.ell
        x = partition.num_clusters if last_phase else deg + 1

        with pram.phase(f"scale{k}/phase{i}/detect"):
            tables = neighbor_tables(
                pram, g_prev, partition, threshold, hops, x,
                record_paths=record_paths, members_by_cluster=members,
            )
        counts = tables.counts()
        popular = (
            np.zeros(partition.num_clusters, dtype=bool)
            if last_phase
            else counts >= (deg + 1)
        )

        q_mask = np.zeros(partition.num_clusters, dtype=bool)
        detected = np.zeros(partition.num_clusters, dtype=bool)
        bfs: BFSResult | None = None
        n_super = 0
        if popular.any():
            with pram.phase(f"scale{k}/phase{i}/ruling"):
                q_mask = ruling_set(
                    pram, g_prev, partition, popular, threshold, hops,
                    members_by_cluster=members,
                )
            with pram.phase(f"scale{k}/phase{i}/supercluster"):
                bfs = bfs_from_clusters(
                    pram, g_prev, partition, q_mask, threshold, hops,
                    max_pulses=2 * ceil_log2(max(n, 2)),
                    memory=memory, record_paths=record_paths,
                    members_by_cluster=members,
                )
            detected = bfs.detected()
            if np.any(popular & ~detected):
                raise CertificationError(
                    "Lemma 2.4 violated: a popular cluster was not superclustered"
                )
            formula_w = 2 * ((1 + schedule.eps_prev) * schedule.deltas[i]
                             + 2 * schedule.radii[i]) * log_n
            # Compose every memory path before any CP is extended below —
            # compositions read CP values of *this* phase.
            super_paths: dict[int, tuple[int, ...] | None] = {}
            for c in np.flatnonzero(detected & ~q_mask):
                super_paths[int(c)] = (
                    compose_supercluster_path(bfs, int(c), memory, centers)
                    if record_paths
                    else None
                )
            for c in np.flatnonzero(detected & ~q_mask):
                origin = int(bfs.origin[c])
                weight = float(bfs.acc_weight[c]) if tight_weights else formula_w
                path = super_paths[int(c)]
                edges.append(
                    HopsetEdge(
                        u=int(centers[origin]),
                        v=int(centers[c]),
                        weight=weight,
                        scale=k,
                        phase=i,
                        kind=SUPERCLUSTER,
                        path=path,
                    )
                )
                n_super += 1

        # ---- interconnection (Section 2.1.2) -----------------------------
        in_u = ~detected  # phase ℓ: detected is all-False, so U_ℓ = P_ℓ
        n_inter = 0
        with pram.phase(f"scale{k}/phase{i}/interconnect"):
            r_i = schedule.radii[i]
            cl, sr = tables.cluster, tables.src
            # each unordered pair of U_i clusters is emitted once
            emit = (cl != sr) & in_u[cl] & in_u[sr] & (centers[cl] <= centers[sr])
            for row in np.flatnonzero(emit).tolist():
                c = int(cl[row])
                s = int(sr[row])
                u_vtx = int(tables.member[row])
                z_vtx = int(tables.seed[row])
                dist = float(tables.dist[row])
                if tight_weights:
                    weight = float(memory.cd[u_vtx]) + dist + float(memory.cd[z_vtx])
                else:
                    weight = dist + 2 * r_i
                path = None
                if record_paths:
                    seg = tables.paths[row] if tables.paths is not None else None
                    if seg is None:
                        raise CertificationError("interconnection row lacks a segment path")
                    path = interconnect_path(memory, z_vtx, u_vtx, seg)
                edges.append(
                    HopsetEdge(
                        u=int(centers[s]),
                        v=int(centers[c]),
                        weight=weight,
                        scale=k,
                        phase=i,
                        kind=INTERCONNECT,
                        path=path,
                    )
                )
                n_inter += 1
            pram.charge(work=int(tables.cluster.size), depth=1, label="interconnect")

        stats.append(
            PhaseStats(
                phase=i,
                num_clusters=partition.num_clusters,
                popular=int(popular.sum()),
                ruling_set_size=int(q_mask.sum()),
                supercluster_edges=n_super,
                interconnect_edges=n_inter,
                degree_threshold=deg,
                distance_threshold=threshold,
            )
        )

        if not popular.any():
            break  # P_{i+1} is empty; later phases are no-ops

        # ---- advance to P_{i+1} ------------------------------------------
        assert bfs is not None
        for c in np.flatnonzero(detected & ~q_mask):
            verts = members[int(c)]
            extra = float(bfs.acc_weight[c])
            epath = None
            if record_paths:
                # CP extension runs detected-center → origin-center; reuse
                # the composition taken before any CP was extended.
                epath = super_paths[int(c)][::-1]
            memory.absorb(verts, extra, epath)
        q_idx = np.flatnonzero(q_mask)
        new_of_origin = np.full(partition.num_clusters, -1, dtype=np.int64)
        new_of_origin[q_idx] = np.arange(q_idx.size, dtype=np.int64)
        new_cluster_of = np.full(n, -1, dtype=np.int64)
        for c in np.flatnonzero(detected):
            new_cluster_of[members[int(c)]] = new_of_origin[int(bfs.origin[c])]
        partition = Partition(cluster_of=new_cluster_of, centers=centers[q_idx].copy())
        pram.charge(work=n, depth=1, label="reform_partition")

    return edges, stats
