"""DynamicHopset: cover-aware kills, per-scale refresh, safety invariants.

The load-bearing invariant throughout: β-hop distances over G ∪ (live H)
must **never under-estimate** the exact distances, no matter how decayed
the hopset is, and maintenance only restores accuracy — never breaks
safety.
"""

import numpy as np
import pytest

from repro.dynamic import DynamicGraph, DynamicHopset
from repro.graphs.errors import InvalidGraphError
from repro.graphs.generators import erdos_renyi
from repro.hopsets.errors import PathReportingError
from repro.hopsets.hopset import Hopset, HopsetEdge
from repro.hopsets.params import HopsetParams
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford


PARAMS = HopsetParams(epsilon=0.5)


@pytest.fixture()
def dyn():
    g = erdos_renyi(60, 0.1, seed=9, w_range=(1.0, 4.0))
    dg = DynamicGraph(g)
    return dg, DynamicHopset(dg, params=PARAMS)


def _assert_never_under(dg, dh, sources=(0, 7, 31)):
    # 1e-9 is the repo-wide slack for the w_min normalize/rescale float
    # round-trip of the build (cf. tests/hopsets/)
    union = dh.union_graph()
    snap = dg.snapshot()
    budget = 2 * dh.beta + 1
    for s in sources:
        exact = bellman_ford(PRAM(), snap, s, hops=snap.n - 1).dist
        approx = bellman_ford(PRAM(), union, s, hops=budget).dist
        fin = np.isfinite(exact)
        assert np.all(approx[fin] >= exact[fin] - 1e-9), "hopset under-estimated"
        assert not np.isfinite(approx[~fin]).any()


def test_fresh_hopset_is_fully_live(dyn):
    dg, dh = dyn
    assert dh.live_fraction == 1.0
    assert dh.num_records() == dh.live_records() > 0
    assert dh.scales() == sorted(dh.scales())
    _assert_never_under(dg, dh)


def _unconditional_closure(dh, pair):
    """The unconditional kill set: every transitive dependent."""
    stack, seen, doomed = [pair], set(), set()
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        for idx in dh._dependents.get(p, ()):
            if idx not in doomed:
                doomed.add(idx)
                e = dh.records[idx]
                stack.append((e.u, e.v) if e.u < e.v else (e.v, e.u))
    return doomed


def test_cover_aware_kill_refines_unconditional_closure(dyn):
    dg, dh = dyn
    for i, (u, v) in enumerate(list(zip(dg.edge_u, dg.edge_v))[:20]):
        u, v = int(u), int(v)
        pair = (u, v) if u < v else (v, u)
        doomed = _unconditional_closure(dh, pair)
        alive_before = set(np.flatnonzero(dh._alive))
        old = dg.edge_weight(u, v)
        factor = 1.02 if i % 2 == 0 else 4.0
        dg.set_weight(u, v, old * factor)
        dh.on_weight_increase(u, v, old, old * factor)
        killed = alive_before - set(np.flatnonzero(dh._alive))
        # soundness boundary: we never kill outside the unconditional closure
        assert killed <= doomed
    _assert_never_under(dg, dh)


def _shadowed_pair_setup():
    """A heavy edge shadowed by a cheap record, with a dependent above it.

    Graph: 0—1—2 cheap, heavy direct (0,2), tail (2,3).  ``r_low``
    (scale 3) certifies (0,2) at 2.0 via [0,1,2]; ``r_high`` (scale 4)
    steps *through* pair (0,2) relying on ``r_low``'s support.
    """
    from repro.graphs.build import from_edges

    g = from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0), (2, 3, 1.0)]
    )
    hs = Hopset(n=4, beta=4, epsilon=0.5, meta={"k0": 3, "lambda": 4})
    hs.add(
        [
            HopsetEdge(
                u=0, v=2, weight=2.0, scale=3, phase=0, kind="popular",
                path=(0, 1, 2),
            ),
            HopsetEdge(
                u=0, v=3, weight=3.0, scale=4, phase=0, kind="popular",
                path=(0, 2, 3),
            ),
        ]
    )
    dg = DynamicGraph(g)
    return dg, DynamicHopset(dg, hs, PARAMS)


def test_shadowed_step_spares_dependent():
    # worsening the heavy edge leaves its pair's support (the cheap
    # lower-scale record) intact — the dependent survives, where the
    # unconditional rule would have killed it
    dg, dh = _shadowed_pair_setup()
    assert 1 in _unconditional_closure(dh, (0, 2))  # the unconditional rule kills r_high
    old = dg.edge_weight(0, 2)
    dg.set_weight(0, 2, 20.0)
    assert dh.on_weight_increase(0, 2, old, 20.0) == []
    assert dh.live_fraction == 1.0  # both records still certified


def test_support_collapse_cascades_upward():
    # deleting (0,1) uncertifies r_low (its path used the edge), which
    # was the only sub-scale-4 support of step (0,2) after the heavy
    # edge worsened — so r_high must die too, transitively
    dg, dh = _shadowed_pair_setup()
    dg.set_weight(0, 2, 20.0)
    dh.on_weight_increase(0, 2, 10.0, 20.0)
    old = dg.delete_edge(0, 1)
    risen = dh.on_delete(0, 1, old)
    assert dh.live_records() == 0
    assert (0, 1) in risen and (0, 2) in risen and (0, 3) in risen
    _assert_never_under(dg, dh, sources=(0, 3))


def test_delete_kills_dependents_and_propagates(dyn):
    dg, dh = dyn
    kills_before = dh.kills
    fraction = dh.live_fraction
    # delete until something actually dies
    for u, v in list(zip(dg.edge_u, dg.edge_v)):
        u, v = int(u), int(v)
        if not dg.has_edge(u, v):
            continue
        old = dg.delete_edge(u, v)
        dh.on_delete(u, v, old)
        if dh.kills > kills_before:
            break
    assert dh.kills > kills_before
    assert dh.live_fraction < fraction
    _assert_never_under(dg, dh)


def test_delete_last_graph_edge_on_multi_record_pair(dyn):
    """A pair can be spanned by several records *and* a graph edge.

    Deleting the graph edge must not orphan the pair: surviving records
    keep covering it in the union, surviving dependents of the pair must
    still be supported at no worse than the old graph weight by the
    remaining lower-scale records, and safety holds throughout.
    """
    dg, dh = dyn
    pair = next(
        (
            p
            for p, idxs in dh._records_on_pair.items()
            if len(idxs) >= 2 and dg.has_edge(*p)
        ),
        None,
    )
    assert pair is not None, "fixture has no multi-record pair with an edge"
    u, v = pair
    idxs = list(dh._records_on_pair[pair])
    old = dg.delete_edge(u, v)
    dh.on_delete(u, v, old)
    assert not dg.has_edge(u, v)
    # a dependent that survived the deletion is one whose support did not
    # rise: the pair's remaining sub-scale records certify its step at no
    # worse than the vanished graph weight
    for j in dh._dependents.get(pair, ()):
        if dh._alive[j] and j not in idxs:
            assert dh._rec_below(pair, int(dh._scale_of[j])) <= old + 1e-9
    alive_on_pair = [i for i in idxs if dh._alive[i]]
    if alive_on_pair:
        best = min(float(dh._rec_w[i]) for i in alive_on_pair)
        assert dh.cover(u, v) == best
        # the union still spans the pair through the surviving records
        d = bellman_ford(PRAM(), dh.union_graph(), u, hops=2 * dh.beta + 1)
        assert d.dist[v] <= best + 1e-9
    else:
        assert dh.record_cover(u, v) == float("inf")
    _assert_never_under(dg, dh)


def _decay(dg, dh, frac, seed=3):
    """Worsen a deterministic slice of edges until decay bites."""
    rng = np.random.default_rng(seed)
    edges = list(zip(dg.edge_u, dg.edge_v))
    for u, v in edges[:: max(1, int(1 / frac))]:
        u, v = int(u), int(v)
        if not dg.has_edge(u, v):
            continue
        old = dg.edge_weight(u, v)
        new = old * float(rng.uniform(3.0, 8.0))
        dg.set_weight(u, v, new)
        dh.on_weight_increase(u, v, old, new)


def test_scale_refresh_restores_liveness(dyn):
    dg, dh = dyn
    dh.refresh_below = 0.999  # any decay at all triggers a refresh
    dh.rebuild_below = 0.0  # and never the full rebuild
    _decay(dg, dh, frac=0.5)
    assert dh.live_fraction < 1.0
    before = dh.live_fraction
    report = dh.maintain()
    assert report.action == "refresh"
    assert report.scales_refreshed == sorted(report.scales_refreshed)
    assert dh.scale_refreshes == len(report.scales_refreshed) > 0
    assert report.live_before == pytest.approx(before)
    assert dh.live_fraction == report.live_after > before
    _assert_never_under(dg, dh)


def test_scale_list_is_rebound_by_a_refresh(dyn):
    """``scales()`` is computed when the records are reindexed.  A refresh
    rebinds it, so the list ``maintain()`` iterates never changes under
    it, and the new list matches the new records."""
    dg, dh = dyn
    dh.refresh_below = 0.999
    dh.rebuild_below = 0.0
    held = dh.scales()
    copy = list(held)
    _decay(dg, dh, frac=0.5)
    assert dh.maintain().action == "refresh"
    assert held == copy
    assert dh.scales() == sorted({e.scale for e in dh.records})


def test_full_rebuild_when_too_far_gone(dyn):
    dg, dh = dyn
    dh.rebuild_below = dh.refresh_below = 1.0  # any decay → below threshold
    _decay(dg, dh, frac=1.0)
    assert dh.live_fraction < 1.0
    report = dh.maintain()
    assert report.action == "rebuild"
    assert dh.full_rebuilds == 1
    assert dh.live_fraction == 1.0
    _assert_never_under(dg, dh)


def test_healthy_hopset_maintains_to_none(dyn):
    dg, dh = dyn
    report = dh.maintain()
    assert report.action == "none"
    assert report.scales_refreshed == []
    assert report.work == 0


def test_maintenance_emits_traffic(dyn):
    dg, dh = dyn
    from repro.pram.cost import CostHook

    seen = []

    class Hook(CostHook):
        def on_traffic(self, label, calls, elements, reads, writes):
            seen.append(label)

    dh.pram.cost.subscribe(Hook())
    dh.refresh_below = 0.999
    dh.rebuild_below = 0.0
    _decay(dg, dh, frac=0.5)
    dh.maintain()
    assert "dynamic.rebuild.scale" in seen


def test_prebuilt_hopset_must_report_paths():
    g = erdos_renyi(30, 0.15, seed=1, w_range=(1.0, 2.0))
    bald = Hopset(n=g.n, beta=4, epsilon=0.5)
    bald.add([HopsetEdge(u=0, v=5, weight=3.0, scale=2, phase=0, kind="popular")])
    with pytest.raises(PathReportingError):
        DynamicHopset(DynamicGraph(g), bald, PARAMS)


def test_threshold_validation():
    g = erdos_renyi(20, 0.2, seed=2, w_range=(1.0, 2.0))
    dg = DynamicGraph(g)
    with pytest.raises(InvalidGraphError):
        DynamicHopset(dg, params=PARAMS, rebuild_below=1.5)
    with pytest.raises(InvalidGraphError):
        DynamicHopset(dg, params=PARAMS, refresh_below=0.2, rebuild_below=0.4)


def test_refreshes_leave_no_scale_graph_alive():
    """Each scale refresh explores a fresh union graph.  The long-lived
    machine must not keep it: over rounds of perturb, ``maintain()`` and
    restore, the workspace's cached-graph count and the number of live
    graphs stay flat."""
    import gc

    from repro.graphs.csr import Graph
    from repro.graphs.generators import road_network

    dg = DynamicGraph(road_network(12, 12, seed=5))
    dh = DynamicHopset(dg, params=PARAMS, refresh_below=0.999, rebuild_below=0.0)
    ws = dh.pram.workspace
    edges = [(int(u), int(v)) for u, v in zip(dg.edge_u, dg.edge_v)]

    def live_graphs():
        gc.collect()
        return sum(isinstance(o, Graph) for o in gc.get_objects())

    counts = []
    for r in range(12):
        u, v = edges[(37 * r) % len(edges)]
        old = dg.edge_weight(u, v)
        dg.set_weight(u, v, 6.0 * old)
        dh.on_weight_increase(u, v, old, 6.0 * old)
        dh.maintain()
        dg.set_weight(u, v, old)  # improvements need no notification
        counts.append((len(ws._plans), live_graphs()))
    assert dh.scale_refreshes >= 6
    assert counts[-1] == counts[0], counts
