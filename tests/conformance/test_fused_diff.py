"""Differential matrix: the fused relaxation kernels under hostile conditions.

Every relaxation round runs through the fused kernels (``prelax_arcs`` /
``pgather_csr``), which promise to be *observationally identical* to the
literal CREW programs in :mod:`repro.pram.reference` — bit-exact
``dist``/``parent``/``rounds_used`` — and to be charged exactly like the
primitive sequences they stand for (the step-stream tests in
``tests/pram/test_primitives.py`` pin the charges kernel by kernel).
This matrix pins the whole exploration over the same adversarial surface
as the frontier matrix (graph families × single/multi sources ×
early-exit × hop budgets × engines), running each case twice — plainly,
and with two hostile twists:

* a **poisoned** buffer pool (every ``take`` pre-fills its view with
  NaN / INT_POISON / True), so any kernel that reads a pooled cell
  before writing it produces loudly wrong output instead of silently
  reusing last round's value;
* a **strict** :class:`ShadowCREW` with write footprints on, so the
  declared write-sets must be CREW-legal.

The two runs must agree on outputs, rounds, work, depth and phase
totals; single-source distances are also diffed against the literal
:func:`~repro.pram.reference.crew_bellman_ford`.
"""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.conformance.shadow import ShadowCREW
from repro.pram.cost import CostModel
from repro.pram.machine import PRAM
from repro.pram.reference import crew_bellman_ford
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford

_N = 24
_SEED = 7
_BETA = 8


def _run(graph, sources, hops, early_exit, engine, hostile):
    pram = PRAM(CostModel(), workspace=Workspace(poison=hostile))
    shadow = ShadowCREW.attach(pram.cost, strict=hostile, mode="record")
    res = bellman_ford(pram, graph, sources, hops, early_exit=early_exit, engine=engine)
    shadow.detach(pram.cost)
    return res, pram.cost, shadow


@pytest.mark.parametrize("engine", ["dense", "sparse", "auto"])
@pytest.mark.parametrize("hops", [0, 1, _BETA], ids=lambda h: f"hops{h}")
@pytest.mark.parametrize(
    "early_exit", [True, False], ids=["early-exit", "fixed-budget"]
)
@pytest.mark.parametrize(
    "multi", [False, True], ids=["single-source", "multi-source"]
)
@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_fused_matches_unfused_bit_exactly(family, multi, early_exit, hops, engine):
    """The hostile run equals the plain run, and single-source distances
    equal the literal CREW Bellman–Ford's."""
    g = SMOKE_FAMILIES[family](_N, _SEED)
    sources = np.array([0, g.n // 2, g.n - 1], dtype=np.int64) if multi else 0
    base, base_cost, _ = _run(g, sources, hops, early_exit, engine, hostile=False)
    res, cost, shadow = _run(g, sources, hops, early_exit, engine, hostile=True)
    assert np.array_equal(base.dist, res.dist)
    assert np.array_equal(base.parent, res.parent)
    assert base.rounds_used == res.rounds_used
    # charged totals must be bit-equal, not just close
    assert (cost.work, cost.depth) == (base_cost.work, base_cost.depth)
    assert dict(cost.phase_totals) == dict(base_cost.phase_totals)
    assert shadow.clean, [f.kind for f in shadow.findings]
    if not multi:
        lit, _ = crew_bellman_ford(g, 0, hops)
        assert np.array_equal(res.dist, np.asarray(lit))


@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_fused_pool_reuse_across_explorations_is_clean(family):
    """One poisoned Workspace shared across runs must never leak state."""
    g = SMOKE_FAMILIES[family](_N, _SEED)
    ws = Workspace(poison=True)
    base, _, _ = _run(g, 0, _BETA, True, "auto", hostile=False)
    for trial in range(3):
        pram = PRAM(CostModel(), workspace=ws)
        res = bellman_ford(pram, g, 0, _BETA, engine="auto")
        assert np.array_equal(base.dist, res.dist), trial
        assert np.array_equal(base.parent, res.parent), trial
