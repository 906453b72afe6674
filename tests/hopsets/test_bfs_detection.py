"""``bfs_from_clusters``' vectorized detection against its per-row loop.

The loop below is the detection step as it was written before it became
array assignments.  The arithmetic is unchanged (``acc`` is the same
left-to-right float64 sum), so every field must match bit for bit.
"""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.hopsets.cluster_graph import (
    BFSResult,
    _aggregate,
    _propagate,
    _seed,
    bfs_from_clusters,
)
from repro.hopsets.clusters import ClusterMemory, Partition
from repro.pram.machine import PRAM


def loop_bfs(graph, partition, source_mask, threshold, hops, max_pulses, memory, record_paths):
    ncl = partition.num_clusters
    members = partition.members_by_cluster()
    pram = PRAM()
    pulse = np.full(ncl, -1, dtype=np.int64)
    origin = np.full(ncl, -1, dtype=np.int64)
    pred = np.full(ncl, -1, dtype=np.int64)
    acc = np.full(ncl, np.inf)
    seg_seed = np.full(ncl, -1, dtype=np.int64)
    seg_member = np.full(ncl, -1, dtype=np.int64)
    seg_dist = np.full(ncl, np.inf)
    seg_paths = [None] * ncl if record_paths else None
    sources = np.flatnonzero(source_mask)
    pulse[sources] = 0
    origin[sources] = sources
    acc[sources] = 0.0
    frontier = sources
    cd = memory.cd if memory is not None else None
    for p in range(1, max_pulses + 1):
        if frontier.size == 0:
            break
        table = _seed(members, frontier, frontier, record_paths)
        table = _propagate(pram, graph, table, hops, threshold, x=1)
        agg = _aggregate(pram, partition, table, x=1)
        fresh = []
        for row in range(agg.cluster.size):
            c = int(agg.cluster[row])
            if pulse[c] >= 0:
                continue
            pulse[c] = p
            pr = int(agg.src[row])
            pred[c] = pr
            origin[c] = origin[pr]
            z = int(agg.seed[row])
            u = int(agg.member[row])
            d = float(agg.dist[row])
            seg_seed[c] = z
            seg_member[c] = u
            seg_dist[c] = d
            cd_z = float(cd[z]) if cd is not None else 0.0
            cd_u = float(cd[u]) if cd is not None else 0.0
            acc[c] = acc[pr] + cd_z + d + cd_u
            if seg_paths is not None and agg.paths is not None:
                seg_paths[c] = agg.paths[row]
            fresh.append(c)
        frontier = np.array(fresh, dtype=np.int64)
    return BFSResult(pulse, origin, pred, acc, seg_seed, seg_member, seg_dist, seg_paths)


@pytest.mark.parametrize("family", ["er", "grid", "path", "wide"])
def test_vectorized_detection_matches_the_row_loop(family):
    g = SMOKE_FAMILIES[family](24, 7)
    rng = np.random.default_rng(5)
    n = g.n
    groups = Partition(
        cluster_of=(np.arange(n) // 3).astype(np.int64),
        centers=np.arange(0, n, 3, dtype=np.int64),
    )
    for part in (Partition.singletons(n), groups):
        memory = ClusterMemory(n)
        memory.cd[:] = rng.uniform(0.0, 2.0, size=n)
        sources = rng.random(part.num_clusters) < 0.25
        sources[0] = True
        threshold = float(np.median(g.weights)) * 3
        for mem in (None, memory):
            for record_paths in (False, True):
                args = (g, part, sources, threshold, 5, 6)
                got = bfs_from_clusters(
                    PRAM(), *args, memory=mem, record_paths=record_paths
                )
                ref = loop_bfs(*args, mem, record_paths)
                for name in ("pulse", "origin", "pred", "seg_seed", "seg_member"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), name
                for name in ("acc_weight", "seg_dist"):
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
                assert got.seg_paths == ref.seg_paths
                assert got.detected().sum() > sources.sum()  # the BFS went somewhere
