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
"""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.conformance.shadow import ShadowCREW
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.backends.sharded import ShardedBackend
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


def test_workspace_degree_cache_is_identity_keyed():
    g1 = SMOKE_FAMILIES["er"](_N, _SEED)
    g2 = SMOKE_FAMILIES["er"](_N, _SEED + 1)
    ws = Workspace()
    d1 = ws.csr_degrees(g1)
    assert ws.csr_degrees(g1) is d1  # cached
    assert np.array_equal(d1, np.diff(g1.indptr))
    assert not np.array_equal(ws.csr_degrees(g2), d1) or g1.num_edges == g2.num_edges
    ws.clear()
    assert ws.csr_degrees(g1) is not d1
