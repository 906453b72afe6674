"""The matrix engine's load-bearing contract: batching is invisible.

``explore_batch`` promises that row r of an (S × V) sweep — ``dist[r]``,
``parent[r]``, ``rounds_used[r]``, and the *charge stream* of
``costs[r]`` (work, depth, phase totals) — is bit-identical to an
independent single-source ``bellman_ford(..., engine="dense")`` run, at
every batch width and on every execution backend.  The differential
matrix here pins that promise over the conformance smoke families ×
S ∈ {1, 2, 8, 32} × {serial, sharded:2}, with the batch side running on
a **poisoned** buffer pool so any kernel that reads scratch before
writing it produces loudly wrong output.

Also pinned: shadowed rows (a strict CREW race detector attached to one
row's cost model) transparently delegate to the solo kernel and stay
clean; ``approximate_mssd`` at every block width produces the result
matrix and the composed charges of per-source dense ``bellman_ford``
runs; block widths below 1 are rejected; and the registered
``relax_arcs_batch`` conformance runner passes strict.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES, run_primitive_diffs
from repro.conformance.shadow import ShadowCREW
from repro.graphs.csr import Graph
from repro.graphs.errors import VertexError
from repro.pram import primitives
from repro.pram.backends import ShardedBackend
from repro.pram.cost import CostModel
from repro.pram.errors import InvalidStepError
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK, explore_batch

_N = 24
_SEED = 13
_BETA = 8
_WIDTHS = (1, 2, 8, 32)


@pytest.fixture(scope="module")
def sharded():
    backend = ShardedBackend(workers=2, min_arcs=1)
    yield backend
    backend.close()


@lru_cache(maxsize=None)
def _graph(family: str):
    if family == "int-ties":
        er = SMOKE_FAMILIES["er"](_N, _SEED)
        weights = np.random.default_rng(_SEED).integers(1, 3, size=er.num_edges)
        return Graph(er.n, er.edge_u, er.edge_v, weights.astype(np.float64))
    return SMOKE_FAMILIES[family](_N, _SEED)


@lru_cache(maxsize=None)
def _solo(family: str, source: int):
    """The solo dense reference a matrix row must replay bit-exactly."""
    g = _graph(family)
    pram = PRAM(CostModel())
    res = bellman_ford(pram, g, source, _BETA, engine="dense")
    return (
        res.dist, res.parent, res.rounds_used,
        pram.cost.work, pram.cost.depth, dict(pram.cost.phase_totals),
    )


def _sources(n: int, s: int) -> np.ndarray:
    # wraps past n (S=32 > N=24), so wide blocks carry duplicate sources:
    # rows must stay independent even when two compute the same exploration
    return (np.arange(s, dtype=np.int64) * 5 + 3) % n


def _assert_rows_match_solo(res, family, src):
    g = _graph(family)
    s = int(src.size)
    assert res.dist.shape == (s, g.n) and res.parent.shape == (s, g.n)
    for r in range(s):
        dist, parent, rounds, work, depth, phases = _solo(family, int(src[r]))
        assert np.array_equal(res.dist[r], dist), (family, r)
        assert np.array_equal(res.parent[r], parent), (family, r)
        assert res.rounds_used[r] == rounds, (family, r)
        # the charged cost stream, not just the outputs: bit-equal totals
        assert (res.costs[r].work, res.costs[r].depth) == (work, depth), (family, r)
        assert dict(res.costs[r].phase_totals) == phases, (family, r)


@pytest.mark.parametrize("width", ["serial", "sharded:2"])
@pytest.mark.parametrize("s", _WIDTHS, ids=lambda s: f"S{s}")
@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_matrix_rows_match_solo_runs_bit_exactly(family, s, width, sharded):
    g = _graph(family)
    src = _sources(g.n, s)
    backend = sharded if width == "sharded:2" else None
    res = explore_batch(
        g, src, _BETA, workspace=Workspace(poison=True), backend=backend
    )
    _assert_rows_match_solo(res, family, src)


def test_batch_width_is_invisible_to_every_row():
    """The same row charged identically whether batched with 0 or 31 others."""
    g = _graph("er")
    narrow = explore_batch(g, np.array([3]), _BETA)
    wide = explore_batch(g, _sources(g.n, 32), _BETA)
    r = int(np.flatnonzero(wide.sources == 3)[0])
    assert np.array_equal(narrow.dist[0], wide.dist[r])
    assert np.array_equal(narrow.parent[0], wide.parent[r])
    assert (narrow.costs[0].work, narrow.costs[0].depth) == (
        wide.costs[r].work, wide.costs[r].depth
    )


def test_shadowed_row_delegates_to_solo_and_stays_crew_clean():
    """A row under a strict shadow detector takes the solo path, unchanged.

    Attaching :class:`ShadowCREW` flips the row's ``wants_footprints``,
    which the batch kernel answers by delegating that row to the solo
    ``prelax_arcs`` — its write-footprints stream out and are validated
    while every other row still rides the matrix.  Outputs and charges
    must not move.
    """
    g = _graph("layered")
    src = _sources(g.n, 8)
    costs = [CostModel() for _ in src]
    shadow = ShadowCREW.attach(costs[3], strict=True, mode="record")
    res = explore_batch(g, src, _BETA, costs=costs, workspace=Workspace(poison=True))
    shadow.detach(costs[3])
    assert shadow.clean, [f.kind for f in shadow.findings]
    for r in range(src.size):
        dist, parent, rounds, work, depth, _ = _solo("layered", int(src[r]))
        assert np.array_equal(res.dist[r], dist), r
        assert np.array_equal(res.parent[r], parent), r
        assert (res.costs[r].work, res.costs[r].depth) == (work, depth), r


def test_zero_hop_budget_is_the_init_only_run():
    g = _graph("path")
    res = explore_batch(g, np.array([0, 5]), 0)
    base = [
        bellman_ford(PRAM(CostModel()), g, s, 0, engine="dense")
        for s in (0, 5)
    ]
    for r in range(2):
        assert np.array_equal(res.dist[r], base[r].dist)
        assert np.array_equal(res.parent[r], base[r].parent)
        assert res.rounds_used[r] == 0


def test_out_matrices_are_filled_in_place():
    g = _graph("grid")
    dist = np.full((2, g.n), -7.0)
    parent = np.full((2, g.n), -7, dtype=np.int64)
    res = explore_batch(g, np.array([1, 2]), _BETA, out=(dist, parent))
    assert res.dist is dist and res.parent is parent
    assert np.isfinite(dist[0, 1]) and dist[0, 1] == 0.0


def test_explore_batch_input_validation():
    g = _graph("er")
    with pytest.raises(VertexError):
        explore_batch(g, np.array([0]), -1)
    with pytest.raises(VertexError):
        explore_batch(g, np.zeros(0, dtype=np.int64), _BETA)
    with pytest.raises(VertexError):
        explore_batch(g, np.array([g.n]), _BETA)
    with pytest.raises(VertexError):
        explore_batch(g, np.array([0, 1]), _BETA, costs=[CostModel()])


# -- direction per round ------------------------------------------------------

#: The direction rule's constants (arc cost, fixed cost) pinned to one
#: direction: push whenever every frontier is known, or never push.
_DIRECTIONS = {"push": (0, 0), "pull": (0, float("inf"))}


def _pin_direction(monkeypatch, direction):
    arc_cost, fixed_cost = _DIRECTIONS[direction]
    monkeypatch.setattr(primitives, "PUSH_ARC_COST", arc_cost)
    monkeypatch.setattr(primitives, "PUSH_FIXED_COST", fixed_cost)


@pytest.mark.parametrize("direction", sorted(_DIRECTIONS))
@pytest.mark.parametrize("width", ["serial", "sharded:2"])
@pytest.mark.parametrize("s", _WIDTHS, ids=lambda s: f"S{s}")
@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES) + ["int-ties"])
def test_pinned_direction_rows_match_solo_runs(
    family, s, width, direction, sharded, monkeypatch
):
    """Every round pushed, or every round pulled: rows still replay solo.

    ``int-ties`` carries integer weights, so many cells are reached by
    several equal-length candidates and the payload tie rule decides.
    """
    _pin_direction(monkeypatch, direction)
    g = _graph(family)
    src = _sources(g.n, s)
    backend = sharded if width == "sharded:2" else None
    res = explore_batch(
        g, src, _BETA, workspace=Workspace(poison=True), backend=backend
    )
    _assert_rows_match_solo(res, family, src)
    if direction == "push":
        assert res.push_rounds > 0 and res.pull_rounds == 0
    else:
        assert res.push_rounds == 0 and res.pull_rounds > 0


def _arc_multiset(tails, heads, weights) -> np.ndarray:
    arcs = np.stack([tails, heads, weights.view(np.int64)], axis=1)
    return arcs[np.lexsort(arcs.T[::-1])]


def _mutate(dg) -> None:
    """Reweights, deletes and an insert over a tombstone: every in-place
    mutation of a DynamicGraph, none structural."""
    rng = np.random.default_rng(5)
    picks = rng.choice(dg.num_edge_records, size=12, replace=False)
    ends = [(int(dg.edge_u[e]), int(dg.edge_v[e])) for e in picks]
    for (u, v), e in zip(ends[:6], picks[:6]):
        dg.set_weight(u, v, float(dg.edge_w[e]) * 1.5)
    for u, v in ends[6:]:
        dg.delete_edge(u, v)
    dg.insert_edge(*ends[6], 1.0)
    assert dg.recompactions == 0


def _dynamic_union():
    from repro.dynamic.graph import DynamicGraph

    g, H = _layered_hopset()
    return DynamicGraph(H.union_graph(g))


def test_push_layout_is_the_pull_plan_reversed():
    """On symmetric CSR graphs, vertex v's out-arcs (CSR row v) are the
    pull plan's arcs: equal multisets of (tail, head, weight bits)."""
    g, H = _layered_hopset()
    mutated = _dynamic_union()
    _mutate(mutated)
    graphs = [_graph(f) for f in sorted(SMOKE_FAMILIES)]
    graphs += [H.union_graph(g), mutated]
    for graph in graphs:
        plan = Workspace().relax_plan(graph)
        deg = np.diff(plan.indptr)
        out_tails = np.repeat(np.arange(plan.n_cells, dtype=np.int64), deg)
        assert np.array_equal(
            _arc_multiset(out_tails, plan.tails_s, plan.weights_s),
            _arc_multiset(plan.tails_s, plan.heads_s, plan.weights_s),
        )
    # arc-list plans keep no out-arc layout, so they never push
    tails, heads, weights = graphs[0].arcs()
    plan = primitives.build_relax_plan(tails, heads, weights, graphs[0].n)
    assert plan.indptr is None


def test_dynamic_union_push_equals_pull_after_mutations(monkeypatch):
    """A plan cached before reweights, deletes and a resurrecting insert
    aliases the mutated weights, so it needs no rebuild: after them,
    forced push equals forced pull, and both equal solo dense runs."""
    dg = _dynamic_union()
    src = _sources(dg.n, 8)
    pools = {d: Workspace(poison=True) for d in _DIRECTIONS}
    for pool in pools.values():
        explore_batch(dg, src, _BETA, workspace=pool)  # caches the plan
    _mutate(dg)
    runs = {}
    for direction, pool in sorted(pools.items()):
        _pin_direction(monkeypatch, direction)
        runs[direction] = explore_batch(dg, src, _BETA, workspace=pool)
    push, pull = runs["push"], runs["pull"]
    assert push.push_rounds > 0 and pull.push_rounds == 0
    assert np.array_equal(push.dist.view(np.int64), pull.dist.view(np.int64))
    assert np.array_equal(push.parent, pull.parent)
    assert np.array_equal(push.rounds_used, pull.rounds_used)
    for r, s in enumerate(map(int, src)):
        pram = PRAM(CostModel())
        solo = bellman_ford(pram, dg, s, _BETA, engine="dense")
        assert np.array_equal(push.dist[r], solo.dist), r
        assert np.array_equal(push.parent[r], solo.parent), r
        for res in (push, pull):
            assert (res.costs[r].work, res.costs[r].depth) == (
                pram.cost.work, pram.cost.depth
            ), r


# -- the block width ---------------------------------------------------------


def test_mssp_block_default_unset_is_default():
    """Every call site that is not given a width uses DEFAULT_MSSP_BLOCK."""
    import inspect

    from repro.cli import build_parser
    from repro.serve.server import OracleServer
    from repro.sssp.multi_source import approximate_mssd
    from repro.sssp.oracle import HopsetDistanceOracle

    assert DEFAULT_MSSP_BLOCK == 32
    for fn, name in ((approximate_mssd, "block"),
                     (HopsetDistanceOracle, "mssp_block"),
                     (OracleServer, "mssp_block")):
        assert inspect.signature(fn).parameters[name].default == DEFAULT_MSSP_BLOCK
    args = build_parser().parse_args(["oracle", "g.npz", "h.npz"])
    assert args.mssp_block == DEFAULT_MSSP_BLOCK


@pytest.mark.parametrize("raw", [0, -3, 3.5, "junk"])
def test_mssp_block_default_rejects_garbage(raw):
    """A block width must be an integer S >= 1; 0 is rejected like -3."""
    from repro.sssp.multi_source import approximate_mssd
    from repro.sssp.oracle import HopsetDistanceOracle

    g, H = _layered_hopset()
    with pytest.raises(InvalidStepError):
        approximate_mssd(g, H, np.arange(3), block=raw)
    with pytest.raises(InvalidStepError):
        HopsetDistanceOracle(g, H, mssp_block=raw)


# -- call-site equivalence ----------------------------------------------------


@lru_cache(maxsize=None)
def _layered_hopset():
    from repro.hopsets.multi_scale import build_hopset
    from repro.hopsets.params import HopsetParams

    g = _graph("layered")
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


def _mssd(block):
    from repro.sssp.multi_source import approximate_mssd

    g, H = _layered_hopset()
    pram = PRAM()
    res = approximate_mssd(g, H, np.arange(10), pram=pram, block=block)
    return res, pram.cost


def _per_source(engine):
    """One ``bellman_ford`` per source, composed the way aMSSD composes
    them: sum of work, max of depth, charged once under an ``mssd`` phase
    of the outer machine."""
    g, H = _layered_hopset()
    union = H.union_graph(g)
    budget = min(2 * H.beta + 1, max(g.n - 1, 1))
    outer = PRAM()
    dist = np.empty((10, g.n))
    parent = np.empty((10, g.n), dtype=np.int64)
    work = depth = 0
    for row in range(10):
        local = PRAM(CostModel(), workspace=outer.workspace)
        bf = bellman_ford(local, union, row, budget, engine=engine)
        dist[row], parent[row] = bf.dist, bf.parent
        work += local.cost.work
        depth = max(depth, local.cost.depth)
    with outer.phase("mssd"):
        outer.charge(work=work, depth=depth, label="mssd")
    return dist, parent, work, depth, outer.cost


@pytest.mark.parametrize("block", [1, 4, 32], ids=lambda b: f"block{b}")
def test_mssd_matrix_equals_loop_bit_exactly(block):
    # every matrix row replays a solo dense run, so charges — not just
    # outputs — must equal per-source dense bellman_ford runs
    dist, parent, work, depth, loop_cost = _per_source("dense")
    mat, mat_cost = _mssd(block)
    assert np.array_equal(dist, mat.dist)
    assert np.array_equal(parent, mat.parent)
    assert (mat.work, mat.depth) == (work, depth)
    assert (mat_cost.work, mat_cost.depth) == (loop_cost.work, loop_cost.depth)
    assert dict(mat_cost.phase_totals) == dict(loop_cost.phase_totals)


def test_mssd_auto_engine_keeps_outputs_exact():
    """Per-source runs under the default auto engine charge differently
    (the matrix replays the dense schedule — documented in docs/mssp.md),
    but the distance/parent matrices are bit-identical."""
    dist, parent, *_ = _per_source("auto")
    mat, _ = _mssd(8)
    assert np.array_equal(dist, mat.dist)
    assert np.array_equal(parent, mat.parent)


# -- the registered conformance runner ----------------------------------------


def test_conformance_runner_strict_clean():
    outs = run_primitive_diffs(
        seed=3, strict=True, primitives_subset=("relax_arcs_batch",)
    )
    assert outs, "relax_arcs_batch runner not registered"
    for o in outs:
        assert o.ok, (o.case, o.detail, o.races)
