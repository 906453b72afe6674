"""White-box tests of the Algorithm 2/3 engine internals."""

import numpy as np

from repro.graphs.build import from_edges
from repro.graphs.generators import path_graph
from repro.hopsets.cluster_graph import EntryTable, _aggregate, _dedup_and_prune, _propagate
from repro.hopsets.clusters import Partition
from repro.pram.machine import PRAM
from repro.pram.reference import crew_aggregate_entries, crew_prune_entries


def table(verts, srcs, dists, seeds=None, paths=None):
    v = np.array(verts, dtype=np.int64)
    return EntryTable(
        vert=v,
        src=np.array(srcs, dtype=np.int64),
        dist=np.array(dists, dtype=np.float64),
        seed=np.array(seeds if seeds is not None else verts, dtype=np.int64),
        paths=paths,
    )


def test_dedup_keeps_min_distance_per_vertex_source():
    t = table([0, 0, 0], [5, 5, 6], [3.0, 1.0, 2.0])
    out = _dedup_and_prune(t, x=10, pram=PRAM())
    rows = sorted(zip(out.src.tolist(), out.dist.tolist()))
    assert rows == [(5, 1.0), (6, 2.0)]


def test_prune_keeps_x_closest_sources():
    t = table([0, 0, 0, 0], [1, 2, 3, 4], [4.0, 1.0, 3.0, 2.0])
    out = _dedup_and_prune(t, x=2, pram=PRAM())
    assert sorted(out.src.tolist()) == [2, 4]  # the two closest


def test_prune_tie_breaks_by_source_id():
    t = table([0, 0], [9, 3], [1.0, 1.0])
    out = _dedup_and_prune(t, x=1, pram=PRAM())
    assert out.src.tolist() == [3]


def test_dedup_is_per_vertex():
    t = table([0, 1], [7, 7], [5.0, 6.0])
    out = _dedup_and_prune(t, x=1, pram=PRAM())
    assert out.size == 2  # same source at two vertices both survive


def test_dedup_preserves_paths_alignment():
    paths = [(0, 9), (0,), (1, 8)]
    t = table([0, 0, 1], [5, 5, 5], [3.0, 1.0, 2.0], paths=paths)
    out = _dedup_and_prune(t, x=10, pram=PRAM())
    # vertex 0 keeps the dist-1.0 entry whose path was (0,)
    m = {(int(v), float(d)): p for v, d, p in zip(out.vert, out.dist, out.paths)}
    assert m[(0, 1.0)] == (0,)
    assert m[(1, 2.0)] == (1, 8)


def _tied_rows(seed, n=40):
    """Rows with heavy (vertex, source, dist, seed) ties and distinct paths."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 4, size=n),
        rng.integers(0, 3, size=n),
        rng.integers(0, 2, size=n).astype(np.float64),
        rng.integers(0, 2, size=n),
        [(i,) for i in range(n)],
    )


def test_prune_paths_follow_the_literal_stable_sort():
    """A path table keeps, per survivor, the path of the row the literal
    stable sorts keep — the first input row among full ties."""
    for seed in range(4):
        vert, src, dist, seeds, paths = _tied_rows(seed)
        for x in (1, 3):
            out = _dedup_and_prune(table(vert, src, dist, seeds, paths), x=x, pram=PRAM())
            cols, pos, _ = crew_prune_entries(
                vert.tolist(), src.tolist(), dist.tolist(), seeds.tolist(), x
            )
            got = [out.vert, out.src, out.dist, out.seed]
            assert tuple(col.tolist() for col in got) == cols
            assert out.paths == [paths[i] for i in pos]


def test_aggregate_paths_follow_the_literal_stable_sort():
    part = Partition(
        cluster_of=np.array([0, 0, 1, -1], dtype=np.int64),
        centers=np.array([0, 2], dtype=np.int64),
    )
    for seed in range(4):
        vert, src, dist, seeds, paths = _tied_rows(seed)
        agg = _aggregate(PRAM(), part, table(vert, src, dist, seeds, paths), x=2)
        live = np.flatnonzero(part.cluster_of[vert] >= 0)
        cols, pos, _ = crew_aggregate_entries(
            part.cluster_of[vert][live].tolist(), src[live].tolist(),
            dist[live].tolist(), vert[live].tolist(), seeds[live].tolist(), 2,
        )
        got = [agg.cluster, agg.src, agg.dist, agg.member, agg.seed]
        assert tuple(col.tolist() for col in got) == cols
        assert agg.paths == [paths[live[i]] for i in pos]


def test_propagate_respects_threshold():
    g = path_graph(5, weight=2.0)
    t = table([0], [0], [0.0])
    out = _propagate(PRAM(), g, t, rounds=10, threshold=3.0, x=5)
    assert set(out.vert.tolist()) == {0, 1}  # vertex 2 is at distance 4 > 3


def test_propagate_respects_hop_budget():
    g = path_graph(6, weight=1.0)
    t = table([0], [0], [0.0])
    out = _propagate(PRAM(), g, t, rounds=2, threshold=100.0, x=6)
    assert set(out.vert.tolist()) == {0, 1, 2}


def test_propagate_early_exit_charges_less():
    g = path_graph(4, weight=1.0)
    p1, p2 = PRAM(), PRAM()
    t1 = table([0], [0], [0.0])
    t2 = table([0], [0], [0.0])
    _propagate(p1, g, t1, rounds=3, threshold=100.0, x=4)
    _propagate(p2, g, t2, rounds=300, threshold=100.0, x=4)
    # converges after ~3 rounds either way
    assert p2.cost.depth <= 2 * p1.cost.depth + 20


def test_propagate_merges_multiple_sources():
    g = from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    t = table([0, 2], [0, 2], [0.0, 0.0])
    out = _propagate(PRAM(), g, t, rounds=3, threshold=10.0, x=2)
    mid = [(int(s), float(d)) for v, s, d in zip(out.vert, out.src, out.dist) if v == 1]
    assert sorted(mid) == [(0, 1.0), (2, 1.0)]


def test_empty_table_propagates_to_empty():
    g = path_graph(3)
    t = table([], [], [])
    out = _propagate(PRAM(), g, t, rounds=5, threshold=10.0, x=3)
    assert out.size == 0


def test_concat_path_mode_mismatch_rejected():
    import pytest

    from repro.hopsets.errors import HopsetError

    a = table([0], [0], [0.0], paths=[(0,)])
    b = table([1], [1], [0.0])
    with pytest.raises(HopsetError):
        EntryTable.concat(a, b)
