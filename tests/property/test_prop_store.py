"""Derandomized Hypothesis properties for the warm hopset store.

The store's contract (``docs/hopset_store.md``) is property-shaped:

* the content key is a pure function of ``(graph, params, variant)`` —
  re-serializing the graph through an archive round-trip, or rebuilding
  it from a permuted edge list, must not change the key;
* *any* perturbation — one endpoint, one weight, one extra edge, one
  parameter field, the variant — must change the key;
* a corrupted or truncated artifact is a miss (``store.miss`` traffic),
  never an exception, and a warm hit returns a hopset bit-identical to a
  fresh deterministic build.

The profile is derandomized (fixed example stream), matching the other
conformance properties in this directory.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.build import from_edges
from repro.graphs.generators import layered_hop_graph
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.hopsets.path_reporting import build_path_reporting_hopset
from repro.hopsets.store import (
    HopsetStore,
    build_variant,
    graph_fingerprint,
    store_key,
)
from repro.obs.metrics import MetricsRegistry
from repro.pram.cost import CostModel
from repro.serialize import load_graph, save_graph

store_settings = settings(max_examples=25, deadline=None, derandomize=True)

_PARAMS = HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=8)


@st.composite
def connected_graph(draw, max_n=12):
    """Spanning tree + extras; integer weights keep everything exact."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, float(draw(st.integers(1, 6)))))
    for _ in range(draw(st.integers(0, n // 2))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, float(draw(st.integers(1, 6)))))
    return n, edges


def _edge_key(e):
    return (e.u, e.v, e.weight, e.scale, e.phase, e.kind, e.path)


@given(gspec=connected_graph(), data=st.data())
@store_settings
def test_key_invariant_under_reserialization_and_permutation(tmp_path_factory, gspec, data):
    n, edges = gspec
    g = from_edges(n, edges)
    key = store_key(g, _PARAMS)
    # archive round-trip: same canonical arrays, same key
    path = tmp_path_factory.mktemp("store") / "g.npz"
    save_graph(path, g)
    assert store_key(load_graph(path), _PARAMS) == key
    # edge-list permutation: the Graph constructor canonicalizes, same key
    perm = data.draw(st.permutations(edges))
    assert store_key(from_edges(n, perm), _PARAMS) == key
    # and the fingerprint alone is permutation-invariant too
    assert graph_fingerprint(from_edges(n, perm)) == graph_fingerprint(g)


@given(connected_graph(), st.data())
@store_settings
def test_any_graph_perturbation_changes_the_key(gspec, data):
    n, edges = gspec
    g = from_edges(n, edges)
    key = store_key(g, _PARAMS)
    kind = data.draw(st.sampled_from(["weight", "drop", "add", "grow"]))
    if kind == "weight":
        i = data.draw(st.integers(0, len(edges) - 1))
        u, v, w = edges[i]
        mutated = list(edges)
        mutated[i] = (u, v, w + 1.0)
        g2 = from_edges(n, mutated)
    elif kind == "drop" and len(edges) > n - 1:
        i = data.draw(st.integers(n - 1, len(edges) - 1))  # keep the tree
        g2 = from_edges(n, edges[:i] + edges[i + 1:])
    elif kind == "add":
        g2 = from_edges(n + 1, edges + [(0, n, 1.0)])
    else:
        g2 = from_edges(n + 1, edges)  # one extra isolated vertex
    if g2.n == g.n and g2.num_edges == g.num_edges and np.array_equal(
        g2.edge_w, g.edge_w
    ) and np.array_equal(g2.edge_u, g.edge_u) and np.array_equal(g2.edge_v, g.edge_v):
        return  # mutation collapsed to the same graph (duplicate edge dropped)
    assert store_key(g2, _PARAMS) != key


@given(st.data())
@store_settings
def test_any_params_or_variant_perturbation_changes_the_key(data):
    g = from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    key = store_key(g, _PARAMS, "plain")
    field = data.draw(
        st.sampled_from(
            ["epsilon", "kappa", "rho", "beta", "tight_weights", "scale_epsilon",
             "variant"]
        )
    )
    if field == "variant":
        other = data.draw(st.sampled_from(["paths", "reduce", "reduce-paths"]))
        assert store_key(g, _PARAMS, other) != key
        return
    mutations = {
        "epsilon": HopsetParams(epsilon=0.3, kappa=2, rho=0.4, beta=8),
        "kappa": HopsetParams(epsilon=0.25, kappa=3, rho=0.4, beta=8),
        "rho": HopsetParams(epsilon=0.25, kappa=2, rho=0.45, beta=8),
        "beta": HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=9),
        "tight_weights": HopsetParams(
            epsilon=0.25, kappa=2, rho=0.4, beta=8, tight_weights=False
        ),
        "scale_epsilon": HopsetParams(
            epsilon=0.25, kappa=2, rho=0.4, beta=8, scale_epsilon=True
        ),
    }
    assert store_key(g, mutations[field], "plain") != key


@given(
    gspec=connected_graph(max_n=8),
    damage=st.sampled_from(["truncate", "garbage", "empty"]),
)
@store_settings
def test_corrupt_artifact_is_a_miss_not_an_exception(tmp_path_factory, gspec, damage):
    n, edges = gspec
    g = from_edges(n, edges)
    root = tmp_path_factory.mktemp("store")
    store = HopsetStore(root)
    hopset, _ = build_hopset(g, _PARAMS)
    path = store.save(g, _PARAMS, hopset)
    raw = path.read_bytes()
    if damage == "truncate":
        path.write_bytes(raw[: max(len(raw) // 3, 1)])
    elif damage == "garbage":
        path.write_bytes(b"\x00" * len(raw))
    else:
        path.write_bytes(b"")
    cost = CostModel()
    registry = MetricsRegistry.attach(cost)
    try:
        assert store.load(g, _PARAMS, cost=cost) is None
        assert registry.counter("primitive.store.miss.calls").value == 1
        assert registry.counter("primitive.store.miss.corrupt.calls").value == 1
        # rewrite and the hit comes back, bit-identical to the fresh build
        store.save(g, _PARAMS, hopset)
        warm = store.load(g, _PARAMS, cost=cost)
        assert registry.counter("primitive.store.hit.calls").value == 1
    finally:
        registry.detach(cost)
    assert warm is not None
    assert sorted(map(_edge_key, warm.edges)) == sorted(map(_edge_key, hopset.edges))


def test_store_traffic_events(tmp_path):
    """hit/miss traffic: absent -> miss.absent, present -> hit."""
    g = from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    store = HopsetStore(tmp_path)
    cost = CostModel()
    registry = MetricsRegistry.attach(cost)
    try:
        assert store.load(g, _PARAMS, cost=cost) is None
        hopset, _ = build_hopset(g, _PARAMS)
        store.save(g, _PARAMS, hopset)
        assert store.load(g, _PARAMS, cost=cost) is not None
    finally:
        registry.detach(cost)
    labels = set(registry.primitive_labels())
    assert "store.miss" in labels and "store.miss.absent" in labels
    assert "store.hit" in labels


def test_build_variant_slugs():
    assert build_variant() == "plain"
    assert build_variant(paths=True) == "paths"
    assert build_variant(reduce=True) == "reduce"
    assert build_variant(paths=True, reduce=True) == "reduce-paths"


def test_warm_hit_keeps_edge_order_and_provenance(tmp_path):
    """A warm load returns the saved edge list itself: same order, same paths."""
    g = layered_hop_graph(16, 4, seed=2403)
    store = HopsetStore(tmp_path)
    for variant, build in (("plain", build_hopset),
                           ("paths", build_path_reporting_hopset)):
        built, _ = build(g, _PARAMS)
        store.save(g, _PARAMS, built, variant)
        warm = store.load(g, _PARAMS, variant)
        assert warm is not None
        assert list(map(_edge_key, warm.edges)) == list(map(_edge_key, built.edges))
    assert any(e.path is not None for e in warm.edges)
