"""Differential matrix: sparse-frontier vs dense Bellman–Ford.

The frontier engine (``repro.pram.frontier``) promises bit-exact
``dist``/``parent``/``rounds_used`` agreement with the dense schedule on
every input — this matrix pins that promise over the adversarial graph
families of the conformance harness, crossed with single/multi sources,
early-exit on/off, and hop budgets 0/1/β.  The sparse and auto runs
execute under a strict :class:`ShadowCREW`, so any CREW-illegal write of
the gather/select/relax pipeline fails the matrix too; the forced-sparse
engine must additionally never charge more work than dense.
"""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.conformance.shadow import ShadowCREW
from repro.graphs.generators import path_graph
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford

_N = 24
_SEED = 7
_BETA = 8  # the smoke-params hop budget (HopsetParams(beta=8))


def _run(graph, sources, hops, early_exit, engine, strict=False):
    pram = PRAM()
    shadow = ShadowCREW.attach(pram.cost, strict=strict, mode="record")
    res = bellman_ford(
        pram, graph, sources, hops, early_exit=early_exit, engine=engine
    )
    shadow.detach(pram.cost)
    return res, pram.cost, shadow


@pytest.mark.parametrize("hops", [0, 1, _BETA], ids=lambda h: f"hops{h}")
@pytest.mark.parametrize(
    "early_exit", [True, False], ids=["early-exit", "fixed-budget"]
)
@pytest.mark.parametrize(
    "multi", [False, True], ids=["single-source", "multi-source"]
)
@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_sparse_matches_dense_bit_exactly(family, multi, early_exit, hops):
    g = SMOKE_FAMILIES[family](_N, _SEED)
    sources = np.array([0, g.n // 2, g.n - 1], dtype=np.int64) if multi else 0
    dense, dense_cost, _ = _run(g, sources, hops, early_exit, "dense")
    for engine in ("sparse", "auto"):
        res, cost, shadow = _run(g, sources, hops, early_exit, engine, strict=True)
        assert np.array_equal(dense.dist, res.dist), engine
        assert np.array_equal(dense.parent, res.parent), engine
        assert dense.rounds_used == res.rounds_used, engine
        assert shadow.clean, (engine, [f.kind for f in shadow.findings])
        if engine == "sparse":
            assert cost.work <= dense_cost.work


@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_full_budget_sparse_saves_work(family):
    """With the full n−1 budget and no early exit, the savings are large."""
    g = SMOKE_FAMILIES[family](_N, _SEED)
    dense, dense_cost, _ = _run(g, 0, g.n - 1, False, "dense")
    res, cost, _ = _run(g, 0, g.n - 1, False, "sparse")
    assert np.array_equal(dense.dist, res.dist)
    assert dense.rounds_used == res.rounds_used == g.n - 1
    assert 2 * cost.work <= dense_cost.work


def test_long_path_sparse_charges_a_quarter_of_dense():
    """A 512-vertex path is dense's worst case: n−1 rounds, one-vertex frontiers."""
    g = path_graph(512, seed=2107, w_range=(1.0, 3.0))
    dense, dense_cost, _ = _run(g, 0, g.n - 1, True, "dense")
    res, cost, _ = _run(g, 0, g.n - 1, True, "sparse")
    assert np.array_equal(dense.dist, res.dist)
    assert 4 * cost.work <= dense_cost.work
