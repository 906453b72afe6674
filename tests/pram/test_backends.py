"""Unit tests for the execution-backend subsystem (docs/backends.md).

Covers spec parsing and singleton resolution, shard partitioning, the
deterministic shard combine against a straight ``reduceat`` reference
(including straddling segments, value ties, and multi-row blocks whose
rows tie differently), the ``min_arcs`` in-process guard and the default
threshold's routing, and the graceful-degradation path: a worker killed
mid-computation must trip permanent serial fallback and still produce
bit-correct distances.
"""

import os
import signal

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi
from repro.pram.backends import (
    ExecutionBackend,
    SerialBackend,
    ShardedBackend,
    parse_backend_spec,
    resolve_backend,
    serial_gather_csr,
    shard_bounds,
    shard_min_combine,
)
from repro.pram.backends.base import _SINGLETONS, serial_entry_segmin
from repro.obs.metrics import MetricsRegistry
from repro.pram.backends.sharded import DEFAULT_MIN_ARCS, _entry_partial
from repro.pram.cost import CostModel
from repro.pram.errors import InvalidStepError
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford

_INT64_MAX = np.iinfo(np.int64).max


# -- spec parsing / resolution -----------------------------------------------


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("", ("serial", None)),
        ("serial", ("serial", None)),
        ("SERIAL", ("serial", None)),
        ("sharded", ("sharded", None)),
        ("sharded:1", ("sharded", 1)),
        ("sharded:8", ("sharded", 8)),
        (" sharded:2 ", ("sharded", 2)),
    ],
)
def test_parse_backend_spec_accepts(spec, expected):
    assert parse_backend_spec(spec) == expected


@pytest.mark.parametrize("spec", ["gpu", "sharded:", "sharded:zero", "sharded:0", "sharded:-2"])
def test_parse_backend_spec_rejects(spec):
    with pytest.raises(InvalidStepError):
        parse_backend_spec(spec)


def test_resolve_backend_passthrough_and_singletons(monkeypatch):
    be = SerialBackend()
    assert resolve_backend(be) is be  # instances pass through untouched
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None).name == "serial"
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    assert resolve_backend(None) is resolve_backend("serial")  # one singleton
    with pytest.raises(InvalidStepError):
        resolve_backend("warp-drive")


def test_resolve_backend_env_sharded(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "sharded:2")
    try:
        be = resolve_backend(None)
        assert isinstance(be, ShardedBackend)
        assert be.workers == 2
        assert be is resolve_backend("sharded:2")
        assert be is not resolve_backend("sharded:3")
    finally:
        for key in ("sharded:2", "sharded:3"):
            cached = _SINGLETONS.pop(key, None)
            if cached is not None:
                cached.close()


def test_invalid_worker_count_rejected():
    with pytest.raises(InvalidStepError):
        ShardedBackend(workers=0)


def test_describe_mentions_state():
    assert SerialBackend().describe() == "serial"
    be = ShardedBackend(workers=2)
    assert "workers=2" in be.describe() and "ok" in be.describe()
    be.close()


# -- shard partitioning ------------------------------------------------------


def test_shard_bounds_cover_and_balance():
    for n, shards in [(10, 3), (4096, 4), (7, 7), (5, 9), (1, 4)]:
        bounds = shard_bounds(n, shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(lo < hi for lo, hi in bounds)  # non-empty
        assert all(b[0] == a[1] for a, b in zip(bounds, bounds[1:]))  # contiguous
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1  # arc-balanced
        assert len(bounds) == min(n, shards)
    assert shard_bounds(0, 4) == []


# -- the shard combine vs reduceat reference ---------------------------------


def _shard_partials(cand, tails, seg_start, bounds):
    """Emulate the per-worker computation on each contiguous arc range,
    over every row of the (rows × arcs) candidate block at once."""
    parts = []
    for lo, hi in bounds:
        seg_lo = int(np.searchsorted(seg_start, lo, side="right")) - 1
        seg_hi = int(np.searchsorted(seg_start, hi, side="left"))
        local_starts = np.maximum(seg_start[seg_lo:seg_hi], lo) - lo
        c = cand[:, lo:hi]
        mn = np.minimum.reduceat(c, local_starts, axis=1)
        seg_len = np.diff(np.concatenate((local_starts, [hi - lo])))
        rep = np.repeat(mn, seg_len, axis=1)
        maskpay = np.where(c == rep, tails[lo:hi], _INT64_MAX)
        py = np.minimum.reduceat(maskpay, local_starts, axis=1)
        parts.append((seg_lo, mn, (py,)))
    return parts


@pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_min_combine_matches_reduceat(shards, seed):
    """Relaxation partials of a row block combine to the serial answer.

    Small integer-valued candidates force plenty of exact ties, random
    segment cuts put boundaries inside segments (straddling), and the
    rows of one block are drawn independently, so they tie differently at
    each straddling cell: some rows keep the left shard's cell on a value
    tie, others must take the right shard's smaller tail.  The one-row
    block is the single-source round.
    """
    rng = np.random.default_rng(seed)
    n = 200
    tails = rng.integers(0, 50, size=n).astype(np.int64)
    k = 17
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    seg_start = np.concatenate(([0], cuts)).astype(np.int64)
    seg_len = np.diff(np.concatenate((seg_start, [n])))
    for rows in (1, 6):
        cand = rng.integers(0, 5, size=(rows, n)).astype(np.float64)
        ref_mn = np.minimum.reduceat(cand, seg_start, axis=1)
        ref_mask = np.where(
            cand == np.repeat(ref_mn, seg_len, axis=1), tails, _INT64_MAX
        )
        ref_py = np.minimum.reduceat(ref_mask, seg_start, axis=1)

        parts = _shard_partials(cand, tails, seg_start, shard_bounds(n, shards))
        lo, mn, (py,) = shard_min_combine(parts)
        assert lo == 0
        assert np.array_equal(mn, ref_mn), rows
        assert np.array_equal(py, ref_py), rows


@pytest.mark.parametrize("nkeys", [1, 2, 3])
@pytest.mark.parametrize("shards", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_entry_tree_combine_matches_serial_stages(nkeys, shards, seed):
    """Per-shard staged entry minima + the shard combine equal the serial
    staged reduction for any tuple of tie keys — including a unique last
    key (the row position path tables append), under heavy ties and
    segments straddling the shard cuts."""
    rng = np.random.default_rng(seed)
    n = 200
    dist = rng.integers(0, 3, size=n).astype(np.float64)
    keys = [rng.integers(0, 3, size=n).astype(np.int64) for _ in range(nkeys - 1)]
    keys.append(rng.permutation(n).astype(np.int64))
    cuts = np.sort(rng.choice(np.arange(1, n), size=16, replace=False))
    seg_start = np.concatenate(([0], cuts)).astype(np.int64)
    seg_id = np.repeat(np.arange(seg_start.size), np.diff(np.append(seg_start, n)))
    take = lambda name, size, dtype: np.empty(size, dtype=dtype)  # noqa: E731
    ref_d, ref_mins = serial_entry_segmin(dist, tuple(keys), seg_start, seg_id, take)

    parts = []
    for lo, hi in shard_bounds(n, shards):
        seg_lo = int(np.searchsorted(seg_start, lo, side="right")) - 1
        seg_hi = int(np.searchsorted(seg_start, hi, side="left"))
        local_starts = np.maximum(seg_start[seg_lo:seg_hi], lo) - lo
        gd, mins = _entry_partial(dist[lo:hi], tuple(k[lo:hi] for k in keys), local_starts)
        parts.append((seg_lo, gd, mins))
    lo, gd, mins = shard_min_combine(parts)
    assert lo == 0
    assert np.array_equal(gd, ref_d)
    assert len(mins) == nkeys
    for got, want in zip(mins, ref_mins):
        assert np.array_equal(got, want)


def test_tree_min_combine_single_part_copies():
    mn = np.array([[1.0, 2.0]])
    py = np.array([[3, 4]], dtype=np.int64)
    _, out_mn, (out_py,) = shard_min_combine([(0, mn, (py,))])
    assert not np.shares_memory(out_mn, mn) and not np.shares_memory(out_py, py)
    assert np.array_equal(out_mn, mn) and np.array_equal(out_py, py)


def test_tree_min_combine_rejects_gaps():
    a = (0, np.array([1.0]), (np.array([0], dtype=np.int64),))
    b = (5, np.array([1.0]), (np.array([0], dtype=np.int64),))
    with pytest.raises(InvalidStepError):
        shard_min_combine([a, b])
    with pytest.raises(InvalidStepError):
        shard_min_combine([])


# -- backend behaviour on a live machine -------------------------------------


def _graph():
    return erdos_renyi(120, 0.08, seed=11)


def _serial_reference(g):
    pram = PRAM(backend=SerialBackend())
    res = bellman_ford(pram, g, 0, g.n - 1)
    return res, pram.cost.snapshot()


def test_min_arcs_guard_keeps_small_rounds_in_process():
    g = _graph()
    ref, _ = _serial_reference(g)
    be = ShardedBackend(workers=2, min_arcs=10**9)
    try:
        res = bellman_ford(PRAM(backend=be), g, 0, g.n - 1)
        assert np.array_equal(ref.dist, res.dist)
        assert be.sharded_rounds == 0 and be.serial_rounds > 0
        assert not be._procs  # the pool was never spawned
    finally:
        be.close()


def test_default_min_arcs_routes_by_candidate_count():
    """At the default threshold a batched round's route follows rows × arcs.

    A block one row short of ``DEFAULT_MIN_ARCS`` candidates runs
    in-process, is reported as ``min-arcs`` and spawns no worker; a block
    at the threshold runs on the pool and is bit-equal to serial.
    """
    g = _graph()
    ws = Workspace(poison=False)
    plan = ws.relax_plan(g)
    rows = -(-DEFAULT_MIN_ARCS // plan.n_arcs)  # fewest rows at the threshold
    assert (rows - 1) * plan.n_arcs < DEFAULT_MIN_ARCS <= rows * plan.n_arcs
    block = np.random.default_rng(5).uniform(0.0, 10.0, (rows, g.n))
    serial = SerialBackend()
    cost = CostModel()
    registry = MetricsRegistry.attach(cost)
    be = ShardedBackend(workers=2)
    try:
        ref = [a.copy() for a in serial.relax_segmin_batch(plan, block[:-1], ws.take)]
        short = be.relax_segmin_batch(plan, block[:-1], ws.take, cost)
        assert all(np.array_equal(x, y) for x, y in zip(short, ref))
        assert (be.serial_rounds, be.sharded_rounds) == (1, 0)
        reason = registry.counters["primitive.backend.serial_round.min-arcs.elements"]
        assert reason.value == 1
        assert not be._procs  # the pool was never spawned

        ref = [a.copy() for a in serial.relax_segmin_batch(plan, block, ws.take)]
        at = be.relax_segmin_batch(plan, block, ws.take, cost)
        assert (be.serial_rounds, be.sharded_rounds) == (1, 1) and not be.failed
        assert all(np.array_equal(x, y) for x, y in zip(at, ref))
    finally:
        be.close()


def test_sharded_rounds_engage_and_match():
    g = _graph()
    ref, ref_cost = _serial_reference(g)
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        pram = PRAM(backend=be)
        res = bellman_ford(pram, g, 0, g.n - 1)
        assert np.array_equal(ref.dist, res.dist)
        assert np.array_equal(ref.parent, res.parent)
        assert (pram.cost.work, pram.cost.depth) == (ref_cost.work, ref_cost.depth)
        assert be.sharded_rounds > 0 and not be.failed
    finally:
        be.close()


def test_worker_death_degrades_to_serial_with_correct_answer():
    """SIGKILL a pool worker mid-run: permanent fallback, bit-correct output."""
    g = _graph()
    ref, _ = _serial_reference(g)
    be = ShardedBackend(workers=2, min_arcs=1, round_timeout=10.0)
    try:
        pram = PRAM(backend=be)
        warm = bellman_ford(pram, g, 0, 2, early_exit=False)  # spin up the pool
        assert be.sharded_rounds > 0 and be._procs
        victim = be._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not victim.is_alive()

        res = bellman_ford(PRAM(backend=be), g, 0, g.n - 1)
        assert be.failed and be.failure_reason
        assert "failed" in be.describe()
        assert np.array_equal(ref.dist, res.dist)
        assert np.array_equal(ref.parent, res.parent)
        assert not be._procs  # pool torn down

        # and the backend stays serviceable (serial) afterwards
        again = bellman_ford(PRAM(backend=be), g, 0, g.n - 1)
        assert np.array_equal(ref.dist, again.dist)
        assert np.array_equal(warm.dist[: g.n], warm.dist[: g.n])  # warm-up sanity
    finally:
        be.close()


def test_two_graphs_register_two_plans():
    g1 = _graph()
    g2 = erdos_renyi(90, 0.1, seed=23)
    be = ShardedBackend(workers=2, min_arcs=1)
    try:
        r1 = bellman_ford(PRAM(backend=be), g1, 0, g1.n - 1)
        r2 = bellman_ford(PRAM(backend=be), g2, 0, g2.n - 1)
        assert len(be._plans) >= 2
        ref1, _ = _serial_reference(g1)
        pram = PRAM(backend=SerialBackend())
        ref2 = bellman_ford(pram, g2, 0, g2.n - 1)
        assert np.array_equal(ref1.dist, r1.dist)
        assert np.array_equal(ref2.dist, r2.dist)
    finally:
        be.close()


def test_close_is_idempotent():
    be = ShardedBackend(workers=1, min_arcs=1)
    g = erdos_renyi(60, 0.1, seed=5)
    bellman_ford(PRAM(backend=be), g, 0, g.n - 1)
    be.close()
    be.close()
    assert not be._procs and not be._plans


def test_base_backend_contract():
    """The base class is the serial semantics; SerialBackend only renames."""
    base = ExecutionBackend()
    indptr = np.array([0, 2, 3, 3], dtype=np.int64)
    frontier = np.array([0, 1], dtype=np.int64)
    slots, arcs = serial_gather_csr(indptr, frontier)
    assert np.array_equal(slots, [0, 0, 1])
    assert np.array_equal(arcs, [0, 1, 2])
    base.close()  # no-op
    assert base.describe() == "base"
