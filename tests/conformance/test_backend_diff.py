"""Differential matrix: sharded backend vs serial, bit-for-bit.

The execution-backend contract (docs/backends.md) is that a backend may
change **only wall-clock**: distances, parents, round counts, and the
entire charged cost stream must be bit-identical to the serial path.
This matrix pins that over the conformance smoke families × single/multi
sources × early-exit, for worker counts W ∈ {1, 2, 4} (W=1 exercises the
IPC plumbing with no combine; W>1 exercises straddling-segment combines).
``min_arcs=1`` forces every dense round through the pool — the smoke
graphs are far below the production threshold.

A second block checks the shadowed path: when write footprints are
wanted (a race detector is attached), rounds run in-process by design,
still bit-exactly and with zero findings.
"""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.conformance.shadow import ShadowCREW
from repro.pram.backends import SerialBackend, ShardedBackend
from repro.pram.cost import CostModel
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford

_N = 24
_SEED = 7
_BETA = 8
_WIDTHS = (1, 2, 4)


@pytest.fixture(scope="module")
def pools():
    """One pool per width for the whole module — spawn cost paid once."""
    backends = {w: ShardedBackend(workers=w, min_arcs=1) for w in _WIDTHS}
    yield backends
    for be in backends.values():
        be.close()


def _run(graph, sources, hops, early_exit, engine, backend):
    pram = PRAM(CostModel(), workspace=Workspace(), backend=backend)
    res = bellman_ford(pram, graph, sources, hops, early_exit=early_exit, engine=engine)
    return res, pram.cost


@pytest.mark.parametrize("engine", ["dense", "auto"])
@pytest.mark.parametrize(
    "early_exit", [True, False], ids=["early-exit", "fixed-budget"]
)
@pytest.mark.parametrize(
    "multi", [False, True], ids=["single-source", "multi-source"]
)
@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_sharded_matches_serial_bit_exactly(pools, family, multi, early_exit, engine):
    g = SMOKE_FAMILIES[family](_N, _SEED)
    sources = np.array([0, g.n // 2, g.n - 1], dtype=np.int64) if multi else 0
    base, base_cost = _run(g, sources, _BETA, early_exit, engine, SerialBackend())
    for w in _WIDTHS:
        be = pools[w]
        res, cost = _run(g, sources, _BETA, early_exit, engine, be)
        assert not be.failed, be.failure_reason
        assert np.array_equal(base.dist, res.dist), w
        assert np.array_equal(base.parent, res.parent), w
        assert base.rounds_used == res.rounds_used, w
        # the charged stream is backend-invariant, bit-equal not just close
        assert (cost.work, cost.depth) == (base_cost.work, base_cost.depth), w
        assert dict(cost.phase_totals) == dict(base_cost.phase_totals), w


@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_sharded_under_shadow_runs_clean(pools, family):
    """Footprint-wanting rounds run in-process — same bits, zero findings."""
    g = SMOKE_FAMILIES[family](_N, _SEED)
    base, base_cost = _run(g, 0, _BETA, True, "auto", SerialBackend())
    be = pools[2]
    before = be.sharded_rounds
    pram = PRAM(CostModel(), workspace=Workspace(), backend=be)
    shadow = ShadowCREW.attach(pram.cost, strict=True, mode="record")
    res = bellman_ford(pram, g, 0, _BETA, engine="auto")
    shadow.detach(pram.cost)
    assert be.sharded_rounds == before  # shadowed rounds stayed in-process
    assert np.array_equal(base.dist, res.dist)
    assert np.array_equal(base.parent, res.parent)
    assert (pram.cost.work, pram.cost.depth) == (base_cost.work, base_cost.depth)
    assert shadow.clean, [f.kind for f in shadow.findings]


def test_sharded_full_query_pipeline_matches(pools):
    """Hopset build + SSSP with a sharded machine: bit-equal end to end."""
    from repro.hopsets.params import HopsetParams
    from repro.sssp.sssp import approximate_sssp

    g = SMOKE_FAMILIES["layered"](_N, _SEED)
    params = HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=8)
    outs = {}
    for label, backend in (("serial", SerialBackend()), ("sharded", pools[2])):
        pram = PRAM(backend=backend)
        r = approximate_sssp(g, 0, params, pram)
        outs[label] = (r.dist, r.parent, r.rounds_used, pram.cost.work, pram.cost.depth)
    assert np.array_equal(outs["serial"][0], outs["sharded"][0])
    assert np.array_equal(outs["serial"][1], outs["sharded"][1])
    assert outs["serial"][2:] == outs["sharded"][2:]
