"""Hopset-backed distance oracle."""

import numpy as np
import pytest

from repro.graphs.distances import dijkstra
from repro.graphs.errors import VertexError
from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.cost import CostHook
from repro.pram.primitives import PUSH_ARC_COST, PUSH_FIXED_COST
from repro.sssp.oracle import HopsetDistanceOracle


@pytest.fixture(scope="module")
def setup():
    g = erdos_renyi(36, 0.12, seed=401, w_range=(1.0, 3.0))
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


def test_queries_within_epsilon(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H)
    for s in (0, 5):
        exact = dijkstra(g, s)
        for t in range(g.n):
            if t == s:
                assert oracle.query(s, t) == 0.0
                continue
            approx = oracle.query(s, t)
            assert exact[t] - 1e-9 <= approx <= 1.25 * exact[t] + 1e-9


def test_symmetric_query_uses_cache(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H)
    oracle.query(3, 7)
    before = oracle.explorations
    # reversed query answered from the cached side
    oracle.query(9, 3)
    assert oracle.explorations == before
    assert oracle.hits >= 1


def test_lru_eviction(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H, cache_size=2)
    oracle.distances_from(0)
    oracle.distances_from(1)
    oracle.distances_from(2)  # evicts 0
    assert oracle.cache_info()["cached_sources"] == 2
    before = oracle.explorations
    oracle.distances_from(0)  # must recompute
    assert oracle.explorations == before + 1


def test_batch_matches_single(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H)
    mat = oracle.batch(np.array([0, 4, 9]))
    assert mat.shape == (3, g.n)
    assert np.array_equal(mat[1], oracle.distances_from(4))


def test_cache_outcomes_feed_metrics_and_traffic(setup):
    from repro.obs.metrics import MetricsRegistry
    from repro.pram.machine import PRAM

    g, H = setup
    pram = PRAM()
    registry = MetricsRegistry.attach(pram.cost)
    oracle = HopsetDistanceOracle(g, H, pram=pram, metrics=registry)
    oracle.query(0, 5)   # miss (explore 0)
    oracle.query(5, 0)   # hit  (cached side)
    oracle.query(0, 9)   # hit  (source 0 cached)
    registry.detach(pram.cost)
    assert registry.counter("oracle.cache.hit").value == 2
    assert registry.counter("oracle.cache.miss").value == 1
    # the same outcomes also rode the cost-model traffic stream
    assert registry.counter("primitive.oracle.cache.hit.calls").value == 2
    assert registry.counter("primitive.oracle.cache.miss.calls").value == 1
    # and a metrics-less oracle still works (traffic no-ops unsubscribed)
    bare = HopsetDistanceOracle(g, H)
    assert bare.query(0, 5) == oracle.query(0, 5)


def test_validation(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H)
    with pytest.raises(VertexError):
        oracle.query(0, g.n)
    with pytest.raises(VertexError):
        oracle.distances_from(-1)
    with pytest.raises(VertexError):
        HopsetDistanceOracle(g, H, cache_size=0)
    from repro.hopsets.hopset import Hopset

    with pytest.raises(VertexError):
        HopsetDistanceOracle(g, Hopset(n=g.n + 1))


# -- serving-PR edge cases (cache_size=1, either-endpoint pairs, counters) ---


def test_cache_size_one_eviction_order(setup):
    """cache_size=1: every new source evicts the previous one, LRU-exact."""
    g, H = setup
    oracle = HopsetDistanceOracle(g, H, cache_size=1)
    oracle.distances_from(0)
    assert oracle.is_cached(0)
    oracle.distances_from(1)  # evicts 0 immediately
    assert oracle.is_cached(1) and not oracle.is_cached(0)
    assert oracle.cache_info()["cached_sources"] == 1
    before = oracle.explorations
    oracle.distances_from(1)  # resident: no new exploration
    assert oracle.explorations == before
    oracle.distances_from(0)  # evicted: must re-explore, evicts 1
    assert oracle.explorations == before + 1
    assert oracle.is_cached(0) and not oracle.is_cached(1)


def test_pair_query_served_from_either_cached_endpoint(setup):
    """query(u, v) swaps to whichever endpoint is resident (and only then)."""
    g, H = setup
    oracle = HopsetDistanceOracle(g, H, cache_size=4)
    oracle.distances_from(7)  # cache source 7 only
    before = oracle.explorations
    got = oracle.query(2, 7)  # u not cached, v cached: answered from 7's side
    assert oracle.explorations == before
    assert got == float(oracle.distances_from(7)[2])
    # when *both* endpoints are cached, the first-named one wins
    oracle.distances_from(2)
    assert oracle.query(2, 7) == float(oracle.distances_from(2)[7])
    # when neither is cached, u is explored (no swap target)
    oracle2 = HopsetDistanceOracle(g, H, cache_size=4)
    oracle2.query(3, 9)
    assert oracle2.is_cached(3) and not oracle2.is_cached(9)


def test_hit_miss_counters_consistent_with_cache_info(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H, cache_size=2)
    for s in (0, 1, 0, 2, 0, 1):  # mix of misses, hits, and re-explorations
        oracle.distances_from(s)
    info = oracle.cache_info()
    assert info["hits"] == oracle.hits
    assert info["misses"] == oracle.misses
    assert info["explorations"] == oracle.explorations
    assert info["misses"] == info["explorations"]  # every miss explores
    assert info["hits"] + info["misses"] == 6  # one outcome per lookup
    assert info["cached_sources"] == 2


def test_is_cached_does_not_touch_lru(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H, cache_size=2)
    oracle.distances_from(0)
    oracle.distances_from(1)
    hits = oracle.hits
    assert oracle.is_cached(0) and oracle.is_cached(1)
    assert oracle.hits == hits  # probes count nothing
    oracle.distances_from(2)  # evicts 0 (probing 0 above must not refresh it)
    assert not oracle.is_cached(0)


def test_path_walks_union_tree_and_matches_query(setup):
    g, H = setup
    from repro.sssp.oracle import tree_path

    oracle = HopsetDistanceOracle(g, H)
    walk = oracle.path(0, 9)
    assert walk is not None and walk[0] == 0 and walk[-1] == 9
    dist, parent = oracle.vectors_from(0)
    assert walk == tree_path(parent, 0, 9, g.n)
    assert oracle.path(4, 4) == [4]
    # reversed pair from the cached side: the reversed walk
    rev = oracle.path(9, 0)
    assert rev == walk[::-1]
    with pytest.raises(VertexError):
        oracle.path(0, g.n)


def test_tree_path_detects_broken_trees():
    import numpy as np

    from repro.sssp.oracle import tree_path

    parent = np.array([-1, 0, 1, -1], dtype=np.int64)
    assert tree_path(parent, 0, 2, 4) == [0, 1, 2]
    assert tree_path(parent, 0, 3, 4) is None  # 3 has no parent
    cyclic = np.array([1, 0, 2, 2], dtype=np.int64)
    assert tree_path(cyclic, 3, 0, 4) is None  # walk exceeds n steps


class _DirectionLog(CostHook):
    """Sums the matrix engine's direction traffic by label."""

    __slots__ = ("totals",)

    def __init__(self):
        self.totals = {}

    def on_traffic(self, label, calls, elements, reads, writes):
        if label in ("mssp.push_round", "mssp.pull_round"):
            c, e = self.totals.get(label, (0, 0))
            self.totals[label] = (c + calls, e + elements)


def test_round_directions_are_counted_and_reported():
    """32 sources of an ER union push some rounds and pull others; the
    rounds and the arcs they relaxed are reported on the machine's cost
    model and tallied in ``cache_info``."""
    g = erdos_renyi(240, 0.05, seed=402, w_range=(1.0, 3.0))
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    oracle = HopsetDistanceOracle(g, H, cache_size=64)
    log = oracle.pram.cost.subscribe(_DirectionLog())
    oracle.explore_many(range(32))
    info = oracle.cache_info()
    assert info["push_rounds"] >= 1 and info["pull_rounds"] >= 1
    pushes, push_arcs = log.totals["mssp.push_round"]
    pulls, pull_arcs = log.totals["mssp.pull_round"]
    assert (pushes, pulls) == (info["push_rounds"], info["pull_rounds"])
    m = int(oracle.union.indices.size)
    assert pull_arcs % m == 0 and pulls * m <= pull_arcs <= pulls * 32 * m
    # every push passed the rule: PUSH_ARC_COST * T + PUSH_FIXED_COST <= a * m
    assert PUSH_ARC_COST * push_arcs + PUSH_FIXED_COST * pushes <= pushes * 32 * m


def test_one_row_blocks_below_the_fixed_cost_never_push(setup):
    g, H = setup
    oracle = HopsetDistanceOracle(g, H, mssp_block=1)
    assert oracle.union.indices.size <= PUSH_FIXED_COST
    oracle.explore_many(range(8))
    info = oracle.cache_info()
    assert info["push_rounds"] == 0 and info["pull_rounds"] > 0
