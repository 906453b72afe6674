"""Build-conformance differential matrix: hopset construction.

The build kernels (``pprune_entries`` / ``paggregate_entries``, grouped
staged minima standing in for Algorithm 3's multi-key sorts; the literal
sort programs they must match are diffed case by case in
``repro conformance``) and the build-phase backend seam
(``ExecutionBackend.entry_segmin``) promise that a build is
*observationally identical* wherever it runs — bit-identical hopset
edges (memory paths included), bit-identical charged work/depth/phase
totals — differing only in wall-clock.  This matrix pins that promise
over backend (serial, sharded W ∈ {1, 2}) × graph families × parameter
points, each case for a plain build and a path-recording one (the
prune's last tie key is the row position; path tables add it to the
aggregation too).  The reference is a serial build; the build under
test runs with hostile twists:

* a **poisoned** buffer pool, so a kernel that reads a pooled cell
  before writing it produces loudly wrong output;
* a **strict** :class:`ShadowCREW` (on the reference too), so every round
  of the build must stay CREW-legal;
* the sharded backends run with ``min_arcs=1`` / ``min_entry_rows=1``,
  forcing every relaxation and every entry reduction through the worker
  pool and its fixed-shard-order combines.

A second matrix diffs every reference build against the same build run
on the test-side full-propagation schedule
(``tests/hopsets/full_propagation.py``), which expands every table row in
every round where ``_propagate`` expands only the rows that changed.

The strict shadow on every leg above makes every scale run, so a third
matrix covers the builds that replay saturated scales
(docs/algorithms.md, "Saturated scales"): each one against the same
build with the rule disabled, on road, ER and smoke graphs, plain and
path-recording, serial and ``sharded:2``.  Negative pins fix graphs
where the rule must wait: a scale that repeats its predecessor while
still cutting candidates.
"""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.conformance.shadow import ShadowCREW
from repro.graphs.generators import erdos_renyi, road_network
from repro.hopsets import multi_scale
from repro.hopsets.cluster_graph import ExplorePlan
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.backends.sharded import ShardedBackend
from repro.pram.cost import BACKEND_TRAFFIC_PREFIX, CostHook, CostModel
from repro.pram.machine import PRAM
from repro.pram.primitives import build_relax_plan, build_relax_plan_from_csr
from repro.pram.workspace import Workspace

_N = 24
_SEED = 7

#: Parameter points: kappa=2 drives the x == 1 prune path, kappa=3 the
#: x > 1 rank-selection path (and the aggregation keeps x sources).
_POINTS = {
    "k2": HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=8),
    "k3": HopsetParams(epsilon=0.25, kappa=3, rho=0.45, beta=8),
}

_FAMILIES = sorted(SMOKE_FAMILIES)


def _edge_key(e):
    return (e.u, e.v, e.weight, e.scale, e.phase, e.kind, e.path)


def _build(graph, params, record_paths, backend=None, poison=True):
    pram = PRAM(workspace=Workspace(poison=poison), backend=backend)
    shadow = ShadowCREW.attach(pram.cost, strict=True, mode="record")
    try:
        hopset, report = build_hopset(graph, params, pram=pram, record_paths=record_paths)
    finally:
        shadow.detach(pram.cost)
    return hopset, report, pram.cost, shadow


@pytest.fixture(scope="module")
def sharded_pools():
    """Worker pools shared by the whole matrix (spawning one per case
    would dominate the runtime); every round is forced through them."""
    pools = {
        w: ShardedBackend(workers=w, min_arcs=1, min_entry_rows=1)
        for w in (1, 2)
    }
    yield pools
    for be in pools.values():
        be.close()


_BASELINES: dict = {}


def _baseline(family, point, record_paths):
    key = (family, point, record_paths)
    if key not in _BASELINES:
        g = SMOKE_FAMILIES[family](_N, _SEED)
        _BASELINES[key] = (g, _build(g, _POINTS[point], record_paths, poison=False))
    return _BASELINES[key]


@pytest.mark.parametrize("backend_spec", ["serial", "sharded:1", "sharded:2"])
@pytest.mark.parametrize("point", sorted(_POINTS))
@pytest.mark.parametrize("family", _FAMILIES)
def test_build_fused_matches_unfused_bit_exactly(
    family, point, backend_spec, sharded_pools
):
    """A hostile build on each backend reproduces the serial reference
    build bit for bit, plain and path-recording."""
    backend = (
        None
        if backend_spec == "serial"
        else sharded_pools[int(backend_spec.split(":")[1])]
    )
    for record_paths in (False, True):
        g, (h0, r0, c0, s0) = _baseline(family, point, record_paths)
        h1, r1, c1, s1 = _build(g, _POINTS[point], record_paths, backend=backend)
        mode = "path-recording" if record_paths else "plain"
        assert list(map(_edge_key, h1.edges)) == list(map(_edge_key, h0.edges)), mode
        assert all((e.path is not None) == record_paths for e in h1.edges), mode
        assert (c1.work, c1.depth) == (c0.work, c0.depth), mode
        assert dict(c1.phase_totals) == dict(c0.phase_totals), mode
        assert (r1.scales, r1.per_scale_edges) == (r0.scales, r0.per_scale_edges), mode
        assert s0.clean, [f.kind for f in s0.findings]
        assert s1.clean, [f.kind for f in s1.findings]
        if backend is not None:
            assert not backend.failed, backend.failure_reason


def test_sharded_entry_rounds_actually_engage(sharded_pools):
    """The forced-engagement pools must route entry reductions through
    the workers — otherwise the matrix silently tests serial twice."""
    be = sharded_pools[2]
    g = SMOKE_FAMILIES["er"](_N, _SEED)
    for record_paths in (False, True):
        before = be.sharded_entry_rounds
        _build(g, _POINTS["k3"], record_paths, backend=be)
        assert be.sharded_entry_rounds > before, record_paths
        assert not be.failed


def test_path_recording_build_runs_entry_kernels(monkeypatch):
    """Every table runs the grouped entry kernels.  The prune always ends
    its tie keys with the row position, which names the winning rows (and
    so the fresh rows of the delta schedule); the aggregation appends it
    only for path-recording tables (a path-reporting build also explores
    some plain tables)."""
    from repro.hopsets.path_reporting import build_path_reporting_hopset
    from repro.pram import primitives

    keys_seen: dict[str, set[int]] = {"prune": set(), "aggregate": set()}

    def spy(kind, kernel):
        def run(cost, group, src, dist, ties, x, **kw):
            keys_seen[kind].add(len(ties))
            return kernel(cost, group, src, dist, ties, x, **kw)

        return run

    monkeypatch.setattr(
        primitives, "pprune_entries", spy("prune", primitives.pprune_entries)
    )
    monkeypatch.setattr(
        primitives, "paggregate_entries", spy("aggregate", primitives.paggregate_entries)
    )
    g = SMOKE_FAMILIES["grid"](_N, _SEED)
    build_hopset(g, _POINTS["k3"], pram=PRAM())
    # plain tables: seed + position; member + seed
    assert keys_seen == {"prune": {2}, "aggregate": {2}}
    h, _ = build_path_reporting_hopset(g, _POINTS["k3"], PRAM())
    assert keys_seen == {"prune": {2}, "aggregate": {2, 3}}
    paths = [e.path for e in h.edges]
    assert paths and all(p is not None for p in paths)


@pytest.mark.parametrize("point", sorted(_POINTS))
@pytest.mark.parametrize("family", _FAMILIES)
def test_build_matches_full_propagation_schedule(family, point, monkeypatch):
    """The delta schedule (expand only the rows that changed last round)
    builds the hopset that expanding every row builds: ordered edges with
    memory paths, plain and path-recording.  Only the charged cost may
    differ."""
    from repro.hopsets import cluster_graph
    from tests.hopsets.full_propagation import full_propagate

    for record_paths in (False, True):
        g, (h0, r0, _, _) = _baseline(family, point, record_paths)
        with monkeypatch.context() as m:
            m.setattr(cluster_graph, "_propagate", full_propagate)
            h1, r1, c1, s1 = _build(g, _POINTS[point], record_paths, poison=False)
        mode = "path-recording" if record_paths else "plain"
        assert list(map(_edge_key, h1.edges)) == list(map(_edge_key, h0.edges)), mode
        assert (r1.scales, r1.per_scale_edges) == (r0.scales, r0.per_scale_edges), mode
        assert c1.work > r0.work, mode  # full expansion re-expands unchanged rows
        assert s1.clean, [f.kind for f in s1.findings]


@pytest.mark.parametrize("family", _FAMILIES)
def test_csr_plan_matches_argsort_plan(family):
    """The sort-free CSR plan derivation is array-for-array equal to the
    stable-argsort builder (the per-scale plan cache relies on it)."""
    g = SMOKE_FAMILIES[family](_N, _SEED)
    tails, heads, weights = g.arcs()
    p0 = build_relax_plan(tails, heads, weights, n_cells=g.n)
    p1 = build_relax_plan_from_csr(g)
    assert (p0.n_arcs, p0.n_cells) == (p1.n_arcs, p1.n_cells)
    for name in ("tails_s", "heads_s", "weights_s", "cells", "seg_start", "seg_id"):
        assert np.array_equal(getattr(p0, name), getattr(p1, name)), name


# ---------------------------------------------------------------------------
# saturated scales: replayed builds against full builds
# ---------------------------------------------------------------------------

_REPLAY_GRAPHS = {
    "road16": lambda: road_network(16, 16, seed=_SEED),
    "road24": lambda: road_network(24, 24, seed=_SEED),
    "road32": lambda: road_network(32, 32, seed=_SEED),
    "er200": lambda: erdos_renyi(200, 0.03, seed=_SEED),
    **{f: (lambda f=f: SMOKE_FAMILIES[f](64, _SEED)) for f in _FAMILIES},
}


class _EventLog(CostHook):
    """Every event a subscriber sees, in order."""

    def __init__(self):
        self.events = []

    def on_charge(self, work, depth, label):
        self.events.append(("charge", work, depth, label))

    def on_traffic(self, label, calls, elements, reads, writes):
        self.events.append(("traffic", label, calls, elements, reads, writes))

    def on_phase_enter(self, name):
        self.events.append(("enter", name))

    def on_phase_exit(self, name):
        self.events.append(("exit", name))


def _observed_build(graph, params, record_paths, backend=None):
    """A build with steps recorded and an event log attached: its replayed
    scales, and everything a caller or subscriber can observe of it."""
    pram = PRAM(cost=CostModel(record_steps=True), backend=backend)
    log = pram.cost.subscribe(_EventLog())
    hopset, report = build_hopset(graph, params, pram=pram, record_paths=record_paths)
    cost = pram.cost
    return report.replayed_scales, {
        "records": list(map(_edge_key, hopset.edges)),
        "meta": hopset.meta,
        "report": (
            report.scales, report.per_scale_stats, report.per_scale_edges,
            report.work, report.depth,
        ),
        "work/depth": (cost.work, cost.depth),
        "phase_totals": dict(cost.phase_totals),
        "phase_self_totals": dict(cost.phase_self_totals),
        "steps": list(cost.steps),
        "events": log.events,
    }


def _never_saturated(plan, edges, prev):
    return False


def _model_events(events):
    """``events`` without an execution backend's reports of the rounds it
    ran, which a serial build has none of."""
    return [
        e for e in events
        if not (e[0] == "traffic" and e[1].startswith(BACKEND_TRAFFIC_PREFIX))
    ]


_FULL_BUILDS: dict = {}


def _full_build(graph, g, record_paths, monkeypatch):
    """The serial build of every scale (the rule disabled), observed."""
    key = (graph, record_paths)
    if key not in _FULL_BUILDS:
        with monkeypatch.context() as m:
            m.setattr(multi_scale, "_saturated", _never_saturated)
            replayed, observed = _observed_build(g, _POINTS["k2"], record_paths)
        assert replayed == []
        _FULL_BUILDS[key] = observed
    return _FULL_BUILDS[key]


@pytest.fixture(scope="module")
def sharded2():
    be = ShardedBackend(workers=2)
    yield be
    be.close()


@pytest.mark.parametrize("backend_spec", ["serial", "sharded:2"])
@pytest.mark.parametrize("graph", sorted(_REPLAY_GRAPHS))
def test_replayed_scales_match_the_full_build(graph, backend_spec, sharded2, monkeypatch):
    """A build that replays saturated scales is indistinguishable from the
    serial build of every scale: records, meta, report with every
    PhaseStats, work/depth, both phase views, recorded steps and the event
    stream a subscriber sees — plain and path-recording, on each backend.
    The sharded backend's own reports of the rounds it ran are the only
    events left out."""
    g = _REPLAY_GRAPHS[graph]()
    backend = sharded2 if backend_spec == "sharded:2" else None
    for record_paths in (False, True):
        mode = "path-recording" if record_paths else "plain"
        want = _full_build(graph, g, record_paths, monkeypatch)
        replayed, got = _observed_build(g, _POINTS["k2"], record_paths, backend)
        if backend is not None:
            assert got["events"] != _model_events(got["events"]), mode  # it engaged
            got["events"] = _model_events(got["events"])
            assert not backend.failed, backend.failure_reason
        for key in want:
            assert got[key] == want[key], (key, mode)
        if graph.startswith(("road", "er")):
            assert replayed, mode  # the leg must exercise a replay


def _spied_build(graph, params, monkeypatch):
    """Build with the scales' explore plans spied on: the hopset, the
    report and the candidates each built scale cut."""
    plans = []

    class Spy(ExplorePlan):
        def __init__(self, g):
            super().__init__(g)
            plans.append(self)

    with monkeypatch.context() as m:
        m.setattr(multi_scale, "ExplorePlan", Spy)
        hopset, report = build_hopset(graph, params, pram=PRAM())
    built = [k for k in report.scales if k not in report.replayed_scales]
    return hopset, report, dict(zip(built, (p.cut for p in plans)))


def _records_of(hopset, k):
    """Scale ``k``'s records without their scale field."""
    return [(e.u, e.v, e.weight, e.phase, e.kind, e.path) for e in hopset.of_scale(k)]


_RULE = multi_scale._saturated


class _NoCut:
    cut = 0


def _records_only(plan, edges, prev):
    """The rule without its cut test, which these pins show is unsound."""
    return _RULE(_NoCut(), edges, prev)


@pytest.mark.parametrize("point", sorted(_POINTS))
def test_rule_waits_while_a_repeating_scale_still_cuts(point, monkeypatch):
    """wide(32): scale 10 repeats scale 9's 30 records while cutting 143
    candidates, and scale 11 then emits 31.  The rule fires only after
    scale 12, the first scale that cuts nothing; a records-only rule
    would copy scale 10 and drop one record from each of scales 11-15."""
    g = SMOKE_FAMILIES["wide"](32, 7)
    params = _POINTS[point]
    h, report, cuts = _spied_build(g, params, monkeypatch)
    assert report.per_scale_edges[10] == 30
    assert _records_of(h, 10) == _records_of(h, 9)
    assert cuts[10] == 143 and cuts[11] > 0 and cuts[12] == 0
    assert report.per_scale_edges[11] == 31
    assert report.replayed_scales == [13, 14, 15]

    monkeypatch.setattr(multi_scale, "_saturated", _never_saturated)
    h_full, r_full = build_hopset(g, params, pram=PRAM())
    assert list(map(_edge_key, h.edges)) == list(map(_edge_key, h_full.edges))
    assert (report.work, report.depth) == (r_full.work, r_full.depth)

    monkeypatch.setattr(multi_scale, "_saturated", _records_only)
    _, r_unsound = build_hopset(g, params, pram=PRAM())
    assert r_unsound.replayed_scales == [11, 12, 13, 14, 15]
    for k in r_unsound.replayed_scales:
        assert r_unsound.per_scale_edges[k] == r_full.per_scale_edges[k] - 1


def test_rule_waits_for_a_scale_that_cuts_one_candidate(monkeypatch):
    """wide(16) at kappa=3: scale 11 repeats scale 10 while cutting exactly
    one candidate, so the rule waits until scale 12 cuts none."""
    g = SMOKE_FAMILIES["wide"](16, 7)
    params = _POINTS["k3"]
    h, report, cuts = _spied_build(g, params, monkeypatch)
    assert _records_of(h, 11) == _records_of(h, 10)
    assert cuts[11] == 1 and cuts[12] == 0
    assert report.replayed_scales == [13, 14]

    monkeypatch.setattr(multi_scale, "_saturated", _never_saturated)
    h_full, r_full = build_hopset(g, params, pram=PRAM())
    assert list(map(_edge_key, h.edges)) == list(map(_edge_key, h_full.edges))
    assert (report.work, report.depth) == (r_full.work, r_full.depth)
