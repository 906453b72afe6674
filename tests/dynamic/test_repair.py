"""DynamicSSSP: repaired trees must match full recomputes bit-exactly.

The differential safety matrix of the dynamic subsystem: graph families
× update sequences × {frontier repair, forced full rebuild} × execution
backends, with the repaired ``dist`` required to equal a from-scratch
Bellman–Ford on the live snapshot **bit-exactly** after every single
update (never-under is implied by equality), and the parent tree
required to be valid (``dist[v] == dist[parent[v]] + w`` exactly).
"""

import numpy as np
import pytest

from repro.dynamic import DEFAULT_FALLBACK_FRAC, DynamicSSSP, RepairStats
from repro.graphs.errors import InvalidGraphError, VertexError
from repro.dynamic import DynamicGraph
from repro.graphs.generators import erdos_renyi, grid_graph, road_network
from repro.pram.backends import ShardedBackend
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford


def _families():
    return {
        "grid": grid_graph(7, 7, seed=3, w_range=(1.0, 4.0)),
        "er": erdos_renyi(50, 0.1, seed=17, w_range=(0.5, 3.0)),
    }


def _mixed_ops(g, steps, seed, p_delete=0.25):
    """A reproducible mixed schedule over ``g``'s original edge set."""
    rng = np.random.default_rng(seed)
    live = {
        (int(a), int(b)) for a, b in zip(g.edge_u, g.edge_v)
    }
    ops = []
    for _ in range(steps):
        i = int(rng.integers(0, g.num_edges))
        u, v = int(g.edge_u[i]), int(g.edge_v[i])
        if (u, v) in live:
            if rng.random() < p_delete:
                ops.append(("delete", u, v))
                live.discard((u, v))
            else:
                ops.append(("update", u, v, float(rng.uniform(0.5, 6.0))))
        else:
            ops.append(("insert", u, v, float(rng.uniform(0.5, 6.0))))
            live.add((u, v))
    return ops


@pytest.mark.parametrize("family", ["grid", "er"])
@pytest.mark.parametrize("seq_seed, p_delete", [(11, 0.25), (23, 0.6), (5, 0.0)])
def test_differential_repair_vs_rebuild(family, seq_seed, p_delete):
    g = _families()[family]
    d = DynamicSSSP(g, 0)
    for op in _mixed_ops(g, 30, seq_seed, p_delete):
        stats = d.apply(op)
        assert isinstance(stats, RepairStats)
        ref = bellman_ford(PRAM(), d.graph.snapshot(), 0, hops=g.n - 1)
        assert np.array_equal(d.dist, ref.dist), f"diverged after {op}"
        d.verify()  # also checks the parent identity bit-exactly


def test_differential_on_sharded_backend():
    g = grid_graph(6, 6, seed=9, w_range=(1.0, 3.0))
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        d = DynamicSSSP(g, 0, pram=PRAM(backend=be))
        for op in _mixed_ops(g, 12, seed=41):
            d.apply(op)
            ref = bellman_ford(PRAM(), d.graph.snapshot(), 0, hops=g.n - 1)
            assert np.array_equal(d.dist, ref.dist)
        assert not be.failed
    finally:
        be.close()


def test_increase_on_non_tree_edge_is_noop():
    g = grid_graph(6, 6, seed=2, w_range=(1.0, 2.0))
    d = DynamicSSSP(g, 0)
    non_tree = next(
        (int(a), int(b))
        for a, b in zip(g.edge_u, g.edge_v)
        if d.parent[b] != a and d.parent[a] != b
    )
    before = d.dist.copy()
    stats = d.increase_weight(*non_tree, 50.0)
    assert stats.mode == "noop"
    assert np.array_equal(d.dist, before)
    d.verify()


def test_tree_edge_increase_repairs_subtree():
    g = grid_graph(6, 6, seed=2, w_range=(1.0, 2.0))
    d = DynamicSSSP(g, 0, fallback_frac=1.0)  # never fall back
    tree = next(
        (int(p), int(v))
        for v, p in enumerate(d.parent)
        if p >= 0 and p != v
    )
    stats = d.increase_weight(tree[0], tree[1], 80.0)
    assert stats.mode == "repair"
    assert stats.dirty >= 1 and stats.seeds >= 1
    d.verify()


def test_fallback_threshold_forces_rebuild():
    g = grid_graph(6, 6, seed=2, w_range=(1.0, 2.0))
    d = DynamicSSSP(g, 0, fallback_frac=0.0)
    tree = next(
        (int(p), int(v)) for v, p in enumerate(d.parent) if p >= 0 and p != v
    )
    stats = d.increase_weight(tree[0], tree[1], 80.0)
    assert stats.mode == "rebuild"
    assert stats.est_arcs > stats.threshold_arcs
    assert d.rebuilds == 1
    d.verify()


def test_decrease_and_insert_always_repair():
    g = erdos_renyi(40, 0.1, seed=7, w_range=(2.0, 4.0))
    d = DynamicSSSP(g, 0, fallback_frac=0.0)  # would force rebuild if orphaning
    u, v = int(g.edge_u[0]), int(g.edge_v[0])
    s1 = d.decrease_weight(u, v, 0.5)
    assert s1.mode == "repair"
    missing = next(
        (a, b)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if not d.graph.has_edge(a, b)
    )
    s2 = d.insert_edge(*missing, 0.25)
    assert s2.mode == "repair"
    d.verify()
    assert d.rebuilds == 0


def test_update_on_disconnected_component_is_inert():
    # vertices {4,5} form an island the source never reaches
    from repro.graphs.build import from_edges

    g = from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
    d = DynamicSSSP(g, 0)
    assert not np.isfinite(d.dist[4]) and not np.isfinite(d.dist[5])
    s = d.set_weight(4, 5, 0.5)  # decrease between two unreached vertices
    assert s.mode == "noop"
    s = d.set_weight(4, 5, 9.0)  # increase on an unreached tree-less edge
    assert s.mode == "noop"
    d.verify()
    assert np.isfinite(d.dist[:4]).all()


def test_charged_work_accounting_splits_by_mode():
    g = grid_graph(7, 7, seed=5, w_range=(1.0, 3.0))
    d = DynamicSSSP(g, 0, fallback_frac=1.0)
    for op in _mixed_ops(g, 20, seed=3):
        d.apply(op)
    assert d.repairs > 0
    assert d.repair_work > 0
    assert d.updates == 20
    # the initial build is charged as rebuild work
    assert d.rebuild_work > 0


def test_env_default_and_validation():
    """The threshold defaults to the module constant; bad inputs raise."""
    assert DEFAULT_FALLBACK_FRAC == 0.25
    g = grid_graph(3, 3, seed=1, w_range=(1.0, 2.0))
    assert DynamicSSSP(g, 0).fallback_frac == DEFAULT_FALLBACK_FRAC
    with pytest.raises(VertexError):
        DynamicSSSP(g, -1)
    with pytest.raises(InvalidGraphError):
        DynamicSSSP(g, 0, fallback_frac=-0.1)
    d = DynamicSSSP(g, 0)
    with pytest.raises(InvalidGraphError):
        d.set_weight(0, 8, 1.0)  # not a live edge
    with pytest.raises(InvalidGraphError):
        d.apply(("teleport", 0, 1))


def _repair_over_rebuild(g, rate, steps=8, seed=4202):
    """Charged work of ``rate`` reweights per step, repaired vs rebuilt per step.

    The rebuild side answers the same per-step question with one full
    Bellman–Ford; the repaired tree must equal it bit-exactly every step.
    """
    rng = np.random.default_rng(seed)
    weights = {
        (int(u), int(v)): float(w) for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)
    }
    pairs = list(weights)
    repair = DynamicSSSP(g, 0)
    baseline = DynamicGraph(g)
    rebuild = PRAM()
    boot = repair.pram.cost.work  # the initial build is not a repair
    for _ in range(steps):
        for _ in range(rate):
            u, v = pairs[int(rng.integers(0, len(pairs)))]
            weights[u, v] *= float(rng.uniform(0.5, 2.0))
            baseline.set_weight(u, v, weights[u, v])
            repair.apply(("update", u, v, weights[u, v]))
        snap = baseline.snapshot()
        full = bellman_ford(PRAM(cost=rebuild.cost), snap, 0, hops=snap.n - 1)
        assert np.array_equal(repair.dist, full.dist)
    return (repair.pram.cost.work - boot) / rebuild.cost.work


def test_sparse_updates_repair_for_a_fraction_of_rebuild_work():
    """One reweight per step costs a tenth of the per-step rebuilds at most,
    and the advantage shrinks as batches grow (32 updates per step).

    The repair reads about 0.02 here; a fallback that tripped on every
    orphaning update (``fallback_frac=0``) would read about 0.4.
    """
    g = road_network(12, 12, seed=4201, w_range=(1.0, 3.0))
    sparse = _repair_over_rebuild(g, rate=1)
    assert sparse <= 0.1
    assert _repair_over_rebuild(g, rate=32) > sparse
