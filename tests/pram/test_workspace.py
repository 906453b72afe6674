"""Workspace buffer pool: reuse, growth, poisoning, plan cache, env toggles."""

import numpy as np
import pytest

from repro.graphs.generators import path_graph
from repro.pram.workspace import INT_POISON, Workspace, poison_default


def test_take_reuses_the_same_buffer():
    ws = Workspace(poison=False)
    a = ws.take("x", 10, np.float64)
    a.fill(7.0)
    b = ws.take("x", 10, np.float64)
    assert np.shares_memory(a, b)


def test_take_grows_geometrically_and_shrinks_views():
    ws = Workspace(poison=False)
    ws.take("x", 10, np.int64)
    big = ws.take("x", 11, np.int64)  # forces growth to >= 2*10
    assert big.size == 11
    small = ws.take("x", 3, np.int64)
    assert small.size == 3
    assert np.shares_memory(big, small)  # still the same retained buffer


def test_distinct_names_never_alias():
    ws = Workspace(poison=False)
    a = ws.take("a", 8, np.float64)
    b = ws.take("b", 8, np.float64)
    assert not np.shares_memory(a, b)


def test_dtype_change_reallocates():
    ws = Workspace(poison=False)
    ws.take("x", 8, np.float64)
    b = ws.take("x", 8, np.int64)
    assert b.dtype == np.int64


def test_poison_fills_sentinels_per_dtype():
    ws = Workspace(poison=True)
    f = ws.take("f", 5, np.float64)
    assert np.isnan(f).all()
    i = ws.take("i", 5, np.int64)
    assert (i == INT_POISON).all()
    b = ws.take("b", 5, np.bool_)
    assert b.all()


def test_poison_overwrites_previous_round():
    ws = Workspace(poison=True)
    a = ws.take("x", 4, np.float64)
    a.fill(1.0)
    b = ws.take("x", 4, np.float64)
    assert np.isnan(b).all()  # stale values from round 1 are gone


def test_relax_plan_is_cached_per_graph():
    ws = Workspace(poison=False)
    g = path_graph(6, seed=1)
    p1 = ws.relax_plan(g)
    p2 = ws.relax_plan(g)
    assert p1 is p2
    g2 = path_graph(6, seed=2)
    assert ws.relax_plan(g2) is not p1


def test_clear_drops_buffers_and_plans():
    ws = Workspace(poison=False)
    a = ws.take("x", 4, np.float64)
    g = path_graph(4, seed=1)
    p = ws.relax_plan(g)
    ws.clear()
    assert not np.shares_memory(a, ws.take("x", 4, np.float64))
    assert ws.relax_plan(g) is not p


def test_poison_default_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_POOL_POISON", raising=False)
    assert poison_default() is False
    monkeypatch.setenv("REPRO_POOL_POISON", "1")
    assert poison_default() is True
    assert Workspace().poison is True


def test_take_rejects_nothing_but_is_exact_length():
    ws = Workspace(poison=False)
    assert ws.take("x", 0, np.float64).size == 0


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
def test_take_view_is_writable_and_contiguous(dtype):
    ws = Workspace(poison=True)
    v = ws.take("x", 7, dtype)
    v[:] = np.zeros(7, dtype=dtype)
    assert v.flags["C_CONTIGUOUS"]
