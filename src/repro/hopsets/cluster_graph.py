"""Algorithm 2: parallel hop-limited explorations in the virtual graph G̃ᵢ.

The virtual graph G̃ᵢ has the current clusters ``P_i`` as supervertices and
an edge between clusters at (2β+1)-hop-bounded distance ≤ (1+ε_{k−1})δᵢ in
``G_{k−1}`` (Section 2.1.1).  Its edges are never materialized; instead the
explorations run at the *vertex* level of G_{k−1}:

* **distribution** — every vertex copies its cluster's records,
* **propagation** — 2β+1 rounds of edge relaxation, keeping per vertex the
  x closest sources, pruning entries beyond the distance threshold,
* **aggregation** — every cluster merges its members' records.

Entries are flat NumPy arrays ``(vert, src, dist, seed)`` — ``seed`` is the
vertex at which the entry was seeded (the paper's first path vertex), used
for tight edge weights and path reporting.  The per-round merge implements
the paper's Algorithm 3 (sort, dedup by source, re-sort by distance, keep
x), charged at AKS sorting rates.

Two drivers are exported:

* :func:`neighbor_tables` — the d=1 variants (popular-cluster detection
  with x = degᵢ+1, and the phase-ℓ interconnection with x = |P_ℓ|);
* :func:`bfs_from_clusters` — the x=1 BFS variant (superclustering sweeps
  to depth 2·log n, and the depth-2 knockout sweeps inside Algorithm 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.hopsets.clusters import ClusterMemory, Partition
from repro.hopsets.errors import HopsetError
from repro.pram.machine import PRAM
from repro.pram.primitives import ceil_log2

__all__ = [
    "EntryTable",
    "ClusterTables",
    "BFSResult",
    "ExplorePlan",
    "neighbor_tables",
    "bfs_from_clusters",
]

_EPS_PAD = 1e-9  # float-safe threshold comparisons


@dataclass
class EntryTable:
    """Flat per-vertex exploration entries (the paper's L(v) lists)."""

    vert: np.ndarray
    src: np.ndarray
    dist: np.ndarray
    seed: np.ndarray
    paths: list[tuple[int, ...]] | None = None

    @property
    def size(self) -> int:
        return int(self.vert.size)

    def take(self, idx: np.ndarray) -> "EntryTable":
        return EntryTable(
            vert=self.vert[idx],
            src=self.src[idx],
            dist=self.dist[idx],
            seed=self.seed[idx],
            paths=None if self.paths is None else [self.paths[i] for i in idx],
        )

    @staticmethod
    def concat(a: "EntryTable", b: "EntryTable") -> "EntryTable":
        paths: list[tuple[int, ...]] | None = None
        if (a.paths is None) != (b.paths is None):
            raise HopsetError("cannot concat path-recording with non-recording tables")
        if a.paths is not None and b.paths is not None:
            paths = a.paths + b.paths
        return EntryTable(
            vert=np.concatenate([a.vert, b.vert]),
            src=np.concatenate([a.src, b.src]),
            dist=np.concatenate([a.dist, b.dist]),
            seed=np.concatenate([a.seed, b.seed]),
            paths=paths,
        )


@dataclass
class ClusterTables:
    """Aggregated per-cluster records: the paper's m(C) arrays.

    Rows are grouped by cluster and sorted by (dist, src) within a cluster.
    ``member`` is the cluster vertex that realized the entry (paper's u);
    ``seed`` the vertex where it originated inside the source cluster (z).
    """

    num_clusters: int
    cluster: np.ndarray
    src: np.ndarray
    dist: np.ndarray
    member: np.ndarray
    seed: np.ndarray
    paths: list[tuple[int, ...]] | None
    row_start: np.ndarray  # (num_clusters + 1,) CSR offsets into the rows

    def rows_of(self, c: int) -> slice:
        return slice(int(self.row_start[c]), int(self.row_start[c + 1]))

    def counts(self) -> np.ndarray:
        return np.diff(self.row_start)


@dataclass
class BFSResult:
    """Outcome of a multi-pulse BFS in G̃ᵢ from a set of source clusters."""

    pulse: np.ndarray       # detection pulse per cluster; -1 = undetected, 0 = source
    origin: np.ndarray      # originating source cluster (-1 = undetected)
    pred: np.ndarray        # predecessor cluster on the detection chain (-1 at sources)
    acc_weight: np.ndarray  # realized origin-center → cluster-center path weight
    seg_seed: np.ndarray    # z: seed vertex (in pred) of the detecting segment
    seg_member: np.ndarray  # u: member vertex (in cluster) where detection arrived
    seg_dist: np.ndarray    # weight of the z → u segment in G_{k−1}
    seg_paths: list[tuple[int, ...] | None] | None

    def detected(self) -> np.ndarray:
        return self.pulse >= 0


class ExplorePlan:
    """What every exploration of one scale shares: its graph's degree array
    and a tally of the candidates its distance thresholds cut.

    ``deg`` is ``G_{k−1}``'s CSR degree array, derived once per scale, so
    no relaxation round re-derives it from the row pointers.  ``cut``
    counts, uncharged, the relaxation candidates dropped for lying beyond
    the exploration's distance threshold; a scale that cut none is one
    half of the saturated-scale test (docs/algorithms.md).  The plan
    lives as long as its scale, and with it the graph's degree array.
    """

    __slots__ = ("deg", "cut")

    def __init__(self, graph: Graph) -> None:
        self.deg = np.diff(graph.indptr)
        self.cut = 0


# ---------------------------------------------------------------------------
# internal machinery
# ---------------------------------------------------------------------------


def _seed(
    members_by_cluster: list[np.ndarray],
    clusters: np.ndarray,
    src_of_cluster: np.ndarray,
    record_paths: bool,
) -> EntryTable:
    """Distribution part: every member of each listed cluster gets (src, 0)."""
    member_lists = [members_by_cluster[int(c)] for c in clusters]
    if member_lists:
        vert = np.concatenate(member_lists)
        sizes = np.array([m.size for m in member_lists], dtype=np.int64)
        src = np.repeat(np.asarray(src_of_cluster, dtype=np.int64), sizes)
    else:
        vert = np.zeros(0, dtype=np.int64)
        src = np.zeros(0, dtype=np.int64)
    paths = [(int(v),) for v in vert] if record_paths else None
    return EntryTable(
        vert=vert,
        src=src,
        dist=np.zeros(vert.size, dtype=np.float64),
        seed=vert.copy(),
        paths=paths,
    )


def _tie_keys(table: EntryTable, *keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The aggregation's tie keys; path tables append the input row position.

    The row position is unique, so it is the stable sort's tie rule and
    its per-group minimum names the winning row — the row whose path the
    survivor carries.
    """
    if table.paths is None:
        return keys
    return (*keys, np.arange(table.size, dtype=np.int64))


def _gather_paths(table: EntryTable, ties: tuple[np.ndarray, ...]) -> list | None:
    """The winners' paths, gathered by the row-position key (the last tie key)."""
    if table.paths is None:
        return None
    return [table.paths[i] for i in ties[-1]]


def _prune_rows(table: EntryTable, x: int, pram: PRAM) -> tuple[EntryTable, np.ndarray]:
    """:func:`_dedup_and_prune`, also returning each survivor's input row.

    The tie keys are ``(seed, row position)`` for every table.  The
    position is unique, so it is the stable sort's own tie rule and keeps
    the same rows; its per-group minimum names the winning input row,
    whose path the survivor carries.
    """
    if table.size == 0:
        return table, np.zeros(0, dtype=np.int64)
    pos = np.arange(table.size, dtype=np.int64)
    vert, src, dist, ties = pram.prune_entries(
        table.vert, table.src, table.dist, (table.seed, pos), x
    )
    pruned = EntryTable(
        vert=vert, src=src, dist=dist, seed=ties[0], paths=_gather_paths(table, ties)
    )
    return pruned, ties[1]


def _dedup_and_prune(table: EntryTable, x: int, pram: PRAM) -> EntryTable:
    """Algorithm 3: dedup per (vertex, source) by min distance, keep x per vertex.

    Runs the grouped staged-minimum kernel
    :func:`~repro.pram.primitives.pprune_entries` with ``(seed, row
    position)`` as the tie keys; path-recording tables carry the winners'
    paths along.
    """
    return _prune_rows(table, x, pram)[0]


def _only_seeds_moved(old: EntryTable, new: EntryTable, fresh: np.ndarray, pram: PRAM) -> bool:
    """Whether a round left every ``(vert, src, dist)`` triple in place.

    Both tables are in the prune's canonical row order with one row per
    (vertex, source), and every non-fresh row is an old row.  So when the
    sizes match, the triples are unchanged exactly when each fresh row
    repeats the old row at its own position.  Charged as a compare over
    the fresh rows and an AND-reduce.
    """
    if new.size != old.size:
        return False
    f = int(fresh.size)
    pram.charge(work=f, depth=ceil_log2(max(f, 1)) + 1, label="converged")
    return (
        np.array_equal(new.vert[fresh], old.vert[fresh])
        and np.array_equal(new.src[fresh], old.src[fresh])
        and np.array_equal(new.dist[fresh], old.dist[fresh])
    )


def _propagate(
    pram: PRAM,
    graph: Graph,
    table: EntryTable,
    rounds: int,
    threshold: float,
    x: int,
    plan: ExplorePlan | None = None,
) -> EntryTable:
    """Propagation part: ``rounds`` rounds of threshold-pruned relaxation.

    Each round expands only the *fresh* rows: those the previous round's
    prune added or strictly improved, found as the survivors whose
    winning input row lies past the old table (old rows precede the
    candidates).  An unchanged row would only re-offer candidates that
    were already kept or beaten, so every round's table is the one that
    expanding all rows would give (docs/algorithms.md, "Delta
    propagation").  The exploration stops when no row is fresh, or when
    a round moved only seeds and no ``(vert, src, dist)`` triple.

    Charged as it runs: the fused CSR gather + add over the fresh rows
    (its prefix-sum depth and write-set declared), the prune over the
    table plus the candidates, and the fresh-row pick as a ``select``.
    ``plan`` (the scale's :class:`ExplorePlan`) supplies the degree array
    and receives the count of candidates the threshold cut.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    plan = plan if plan is not None else ExplorePlan(graph)
    table = _dedup_and_prune(table, x, pram)
    fresh = np.arange(table.size, dtype=np.int64)  # round 1 expands every row
    for _ in range(rounds):
        if fresh.size == 0:
            break
        rep, head, cand_dist = pram.gather_add(
            indptr, indices, weights, table.vert[fresh], table.dist[fresh],
            label="relax_gather", add_label="relax", deg_all=plan.deg,
        )
        keep = cand_dist <= threshold + _EPS_PAD
        rep_k = fresh[rep[keep]]
        plan.cut += rep.size - rep_k.size
        if rep_k.size == 0:
            break
        head_k = head[keep]
        cand = EntryTable(
            vert=head_k,
            src=table.src[rep_k],
            dist=cand_dist[keep],
            seed=table.seed[rep_k],
            paths=(
                None
                if table.paths is None
                else [
                    table.paths[i] + (h,)
                    for i, h in zip(rep_k.tolist(), head_k.tolist())
                ]
            ),
        )
        old = table
        table, won = _prune_rows(EntryTable.concat(old, cand), x, pram)
        fresh = pram.select(won >= old.size, label="fresh_rows")
        if fresh.size and _only_seeds_moved(old, table, fresh, pram):
            break
    return table


def _aggregate(
    pram: PRAM,
    partition: Partition,
    table: EntryTable,
    x: int,
) -> ClusterTables:
    """Aggregation part: merge member entries into per-cluster m(C) tables.

    Runs the grouped staged-minimum kernel
    :func:`~repro.pram.primitives.paggregate_entries` with ``(member,
    seed)`` as the tie keys (plus the row position for path tables).
    """
    ncl = partition.num_clusters
    cl = partition.cluster_of[table.vert] if table.size else np.zeros(0, dtype=np.int64)
    live = cl >= 0
    t = table.take(np.flatnonzero(live))
    cl, src, dist, ties = pram.aggregate_entries(
        cl[live], t.src, t.dist, _tie_keys(t, t.vert, t.seed), x
    )
    counts = np.zeros(ncl, dtype=np.int64)
    if cl.size:
        np.add.at(counts, cl, 1)
    row_start = np.zeros(ncl + 1, dtype=np.int64)
    np.cumsum(counts, out=row_start[1:])
    return ClusterTables(
        num_clusters=ncl,
        cluster=cl,
        src=src,
        dist=dist,
        member=ties[0],
        seed=ties[1],
        paths=_gather_paths(t, ties),
        row_start=row_start,
    )


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def neighbor_tables(
    pram: PRAM,
    graph: Graph,
    partition: Partition,
    threshold: float,
    hops: int,
    x: int,
    record_paths: bool = False,
    members_by_cluster: list[np.ndarray] | None = None,
    plan: ExplorePlan | None = None,
) -> ClusterTables:
    """One pulse (d=1) of Algorithm 2 from *all* clusters, x sources kept.

    With ``x = degᵢ + 1`` this is the popular-cluster detection of
    Lemma A.3: a cluster is popular iff its table holds x records (itself +
    degᵢ neighbors).  With ``x = |P_ℓ|`` it is the phase-ℓ interconnection
    sweep.  Every record carries the (2β+1)-hop cluster distance, the
    realizing member vertex, and the seed vertex inside the source cluster.
    ``plan`` is the scale's :class:`ExplorePlan` (one is made when omitted).
    """
    if x < 1:
        raise HopsetError(f"x must be >= 1, got {x}")
    members = members_by_cluster if members_by_cluster is not None else partition.members_by_cluster()
    all_clusters = np.arange(partition.num_clusters, dtype=np.int64)
    table = _seed(members, all_clusters, all_clusters, record_paths)
    pram.charge(work=table.size, depth=1, label="distribute")
    with pram.subphase("explore"):
        table = _propagate(pram, graph, table, hops, threshold, x, plan)
    with pram.subphase("aggregate"):
        return _aggregate(pram, partition, table, x)


def bfs_from_clusters(
    pram: PRAM,
    graph: Graph,
    partition: Partition,
    source_mask: np.ndarray,
    threshold: float,
    hops: int,
    max_pulses: int,
    memory: ClusterMemory | None = None,
    record_paths: bool = False,
    members_by_cluster: list[np.ndarray] | None = None,
    plan: ExplorePlan | None = None,
) -> BFSResult:
    """The x=1 BFS variant (Appendix A.3.2) from ``source_mask`` clusters.

    Each pulse advances the detection frontier one G̃ᵢ-hop (Lemma A.4); per
    pulse the frontier clusters' members are re-seeded at distance 0 and
    relaxed for ``hops`` rounds within ``threshold``.  Detection is
    deterministic: ties broken by (segment distance, predecessor id,
    member id, seed id).

    ``memory`` supplies CD(·) so ``acc_weight`` is the *realized* weight of
    the composed center-to-center path (tight edge weights, §4.3); without
    it the CD terms are treated as 0 and ``acc_weight`` only sums segment
    weights (callers in faithful mode use the formula weight anyway).
    ``plan`` is the scale's :class:`ExplorePlan` (one is made when omitted).
    """
    ncl = partition.num_clusters
    if source_mask.shape != (ncl,):
        raise HopsetError("source_mask must have one flag per cluster")
    members = members_by_cluster if members_by_cluster is not None else partition.members_by_cluster()
    pulse = np.full(ncl, -1, dtype=np.int64)
    origin = np.full(ncl, -1, dtype=np.int64)
    pred = np.full(ncl, -1, dtype=np.int64)
    acc = np.full(ncl, np.inf)
    seg_seed = np.full(ncl, -1, dtype=np.int64)
    seg_member = np.full(ncl, -1, dtype=np.int64)
    seg_dist = np.full(ncl, np.inf)
    seg_paths: list[tuple[int, ...] | None] | None = [None] * ncl if record_paths else None

    sources = np.flatnonzero(source_mask)
    pulse[sources] = 0
    origin[sources] = sources
    acc[sources] = 0.0
    frontier = sources
    cd = memory.cd if memory is not None else None
    plan = plan if plan is not None else ExplorePlan(graph)

    for p in range(1, max_pulses + 1):
        if frontier.size == 0:
            break
        table = _seed(members, frontier, frontier, record_paths)
        pram.charge(work=table.size, depth=1, label="distribute")
        table = _propagate(pram, graph, table, hops, threshold, 1, plan)
        agg = _aggregate(pram, partition, table, x=1)
        # x = 1 leaves one row per cluster, and every detecting source is a
        # frontier cluster detected in an earlier pulse, so no row of this
        # pulse reads what another writes: the detections vectorize.
        rows = np.flatnonzero(pulse[agg.cluster] < 0)
        c = agg.cluster[rows]
        pr = agg.src[rows]
        z = agg.seed[rows]
        u = agg.member[rows]
        d = agg.dist[rows]
        pulse[c] = p
        pred[c] = pr
        origin[c] = origin[pr]
        seg_seed[c] = z
        seg_member[c] = u
        seg_dist[c] = d
        cd_z = cd[z] if cd is not None else 0.0
        cd_u = cd[u] if cd is not None else 0.0
        acc[c] = acc[pr] + cd_z + d + cd_u
        if seg_paths is not None and agg.paths is not None:
            for row, cl in zip(rows.tolist(), c.tolist()):
                seg_paths[cl] = agg.paths[row]
        pram.charge(work=ncl, depth=1, label="bfs_bookkeep")
        frontier = c
    return BFSResult(
        pulse=pulse,
        origin=origin,
        pred=pred,
        acc_weight=acc,
        seg_seed=seg_seed,
        seg_member=seg_member,
        seg_dist=seg_dist,
        seg_paths=seg_paths,
    )
