"""Sharded multi-process execution backend.

The simulator's dense relaxation round — per head segment, the minimum
candidate ``dist[tail] + w`` and the minimum value-achieving tail — is a
flat ``reduceat`` over the arc array, which the GIL pins to one core.
This backend distributes it over a persistent pool of **worker
processes** in the partition-then-combine style of the distributed
SSSP lines of work (Cao–Fineman–Russell, Forster–Nanongkai).  Every
round is a *row block*: the active rows of the S×V matrix engine, or a
block of one row for a single-source round.

* **Shared-memory plan registration.**  On first use of a
  :class:`~repro.pram.primitives.RelaxPlan`, the head-sorted arc arrays
  (``tails_s``, ``weights_s``) are placed in
  ``multiprocessing.shared_memory`` blocks; the arc array is cut into
  ``W`` contiguous, arc-balanced shards, and each worker attaches the
  blocks once and keeps per-shard segment layout (local ``reduceat``
  offsets) for the plan's lifetime.  A (rows × cells) distance block and
  its (rows × shard-cells) output blocks are grown geometrically on
  demand.  Per round, the parent copies the row block into shared memory
  and posts one ``round`` message per worker.

* **Per-shard segmin in the workers.**  Each worker runs the same two
  ``minimum.reduceat`` passes the serial kernel runs, over its arc range
  and every row of the block, writing its partial ``(segmin, winpay)``
  into its own column slice of the shared output block (exclusive writes
  — the sharding is itself CREW).

* **One deterministic fixed-shard-order combine.**  A head segment that
  straddles a shard boundary has partial minima in two shards; the
  parent merges the shard results in fixed shard order with
  :func:`shard_min_combine`, once per round over the whole row block.
  The rule per straddling cell is the lexicographic minimum of
  ``(value, *keys)`` — for relaxation partials ``(min value, min tail
  among value-achievers)``, for entry partials the staged tie keys.  It
  is exact and associative over float64/int64, so the result is
  **bit-equal** to the serial kernel for any shard count.  See
  ``docs/backends.md`` for the argument.

The charged cost stream is untouched: `prelax_arcs` charges work/depth/
traffic/footprints identically for every backend — only wall-clock
changes.  When a race detector wants write footprints, the per-arc
arrays must be materialized centrally anyway, so shadowed rounds run the
in-process kernel (charged the same; see docs).

**Graceful degradation.**  Rounds with fewer than ``min_arcs`` candidates
(arcs × active rows) never leave the process: below the crossover
measured in ``docs/backends.md``, IPC costs more than the work it
splits.  A worker death, round timeout, or registration failure
permanently trips the backend: the pool is torn down, the event is
logged and reported as ``backend.fallback`` traffic, and every
subsequent round runs the serial kernel — same answers, serial
wall-clock.  The fault-injection test kills a worker mid-run and
asserts the final distances are still bit-correct.

Observability: each sharded relaxation round reports ``backend.round``
(candidates: rows × arcs), ``backend.batch_rows`` (rows in the block),
``backend.shard`` (per-shard candidates — the metrics registry's size
histogram records the shard balance), ``backend.worker_wall_ns``
(per-worker compute nanoseconds, measured inside the worker), and
``backend.combine`` (cells combined, bytes moved) traffic events.

**Cross-process worker telemetry**: each worker also writes a per-round
stats row — shard candidates plus its wall nanoseconds split into
*gather* (candidate gather + add), *segmin* (the value ``reduceat``),
and *serialize* (payload masking + writing results into the shared
output block) — into a preallocated ``multiprocessing.shared_memory``
stats block, one row per worker, no IPC beyond the existing round ack.
While cost-model subscribers are attached (``SpanTracer`` /
``MetricsRegistry``), the parent merges the rows after every sharded
round **in fixed shard order** into them as
``backend.worker.<i>.{wall_ns,gather_ns,segmin_ns,serialize_ns,arcs}``
traffic, plus derived health metrics:

* ``backend.round_wall_ns``    — parent-measured wall of the whole round
  (IPC included), so per-worker compute can be compared against it;
* ``backend.imbalance_milli``  — 1000 × max/mean worker wall (shard
  imbalance ratio; mean over rounds = elements / calls);
* ``backend.ipc_ns``           — round wall minus the slowest worker's
  compute (the IPC + combine overhead share);
* ``backend.combine_depth``    — ⌈log₂ shards⌉, the depth of the combine
  as an all-reduce;
* ``backend.timeout_near_miss`` — rounds that consumed more than 80 % of
  ``round_timeout`` without tripping it.

The parent also keeps a bounded :attr:`ShardedBackend.round_log` (one
entry per telemetered round, with the parent-clock start timestamp) that
the Chrome-trace exporter renders as one lane per worker — see
:func:`repro.obs.export.chrome_trace_events`.  The merge never touches
the numeric path: outputs and charged costs are bit-identical with or
without subscribers.  Serial degradations carry a structured reason:
``backend.fallback.<reason>`` with ``reason`` ∈ {``worker-death``,
``timeout``, ``registration``, ``pool-start``}, and per-round serial
routing reports ``backend.serial_round.<reason>`` with ``reason`` ∈
{``min-arcs``, ``fallback``}.  Entry rounds (the hopset-build prune and
aggregate) report ``backend.entry_round`` / ``backend.entry_shard`` when
sharded and ``backend.serial_entry.<reason>`` when not.
"""

from __future__ import annotations

import atexit
import logging
import os
import time

import numpy as np

from repro.pram.backends.base import ExecutionBackend, serial_entry_segmin
from repro.pram.errors import InvalidStepError

__all__ = [
    "ShardedBackend",
    "shard_bounds",
    "shard_min_combine",
]

log = logging.getLogger("repro.backends")

_INT64_MAX = np.iinfo(np.int64).max

#: Rounds with fewer candidates (arcs × active rows) than this run
#: in-process: the smallest count at which ``sharded:2`` beat the
#: in-process round on a 2-vCPU AMD EPYC (py3.11.7, numpy 2.4.6), median
#: of three ``scripts/measure_crossover.py`` runs (``docs/backends.md``).
DEFAULT_MIN_ARCS = 231_072

#: Entry-segmin rounds with fewer rows than this run in-process.  Entry
#: rows are transient (fresh grouping every call, nothing to register in
#: shared memory once), so the whole row slice ships through the pipe —
#: the amortization threshold is accordingly much higher than for the
#: registered relaxation plans.
DEFAULT_MIN_ENTRY_ROWS = 65536

#: Seconds the parent waits for one worker's round before tripping fallback.
DEFAULT_ROUND_TIMEOUT = 30.0

#: Fields of one worker's shared-memory stats row (all int64):
#: round id, shard candidates, gather ns, segmin ns, serialize ns, total ns.
STATS_FIELDS = 6

#: Rounds recorded in :attr:`ShardedBackend.round_log` before dropping
#: (each entry is a small dict; the cap bounds memory on week-long runs).
ROUND_LOG_CAP = 16384

#: Fraction of ``round_timeout`` past which a round counts as a near-miss.
NEAR_MISS_FRACTION = 0.8


def shard_bounds(n_arcs: int, shards: int) -> list[tuple[int, int]]:
    """Cut ``[0, n_arcs)`` into up to ``shards`` non-empty balanced ranges."""
    if n_arcs <= 0:
        return []
    shards = max(1, min(int(shards), n_arcs))
    cuts = [round(i * n_arcs / shards) for i in range(shards + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(shards) if cuts[i] < cuts[i + 1]]


def _shard_layout(seg_start, n: int, shards: int):
    """Per shard of ``[0, n)``: ``(lo, hi, seg_lo, local_starts)``.

    ``seg_lo`` is the first global segment the shard touches and
    ``local_starts`` its shard-local ``reduceat`` offsets (a segment cut
    by the shard's left edge starts at 0).
    """
    layout = []
    for lo, hi in shard_bounds(n, shards):
        seg_lo = int(np.searchsorted(seg_start, lo, side="right")) - 1
        seg_hi = int(np.searchsorted(seg_start, hi, side="left"))
        local_starts = np.maximum(seg_start[seg_lo:seg_hi], lo) - lo
        layout.append((lo, hi, seg_lo, local_starts.astype(np.int64)))
    return layout


def shard_min_combine(parts):
    """Fixed-shard-order combine of per-shard partial minima.

    ``parts`` is the ascending shard-order list of ``(seg_lo, value,
    keys)`` partials over contiguous runs of global segments: ``value``
    holds one float per segment along its last axis (leading axes are
    rows), and ``keys`` is a tuple of same-shaped int arrays — the
    payload of a relaxation partial, the tie keys of an entry partial.
    Each part starts where the previous one ends, or one segment earlier
    when that segment straddles the shard cut; the straddling cell keeps
    the lexicographically smaller ``(value, *keys)`` tuple, the earlier
    shard's on a full tie.  Each partial cell is already the lexicographic
    minimum over its shard's slice, so the result is the segment's global
    minimum — exact and associative, hence bit-equal to the in-process
    kernel for any shard count, in every row of the block at once.

    Returns ``(seg_lo, value, keys)`` covering the union, as fresh arrays
    (never views of the inputs, which may live in shared memory).
    """
    if not parts:
        raise InvalidStepError("shard_min_combine: no shard results")
    lo0, v0, k0 = parts[0]
    hi = lo0
    for lo, v, _ in parts:
        if lo != hi and lo != hi - 1:
            raise InvalidStepError(
                f"non-adjacent shard results: [{lo0},{hi}) then {lo}"
            )
        hi = lo + v.shape[-1]
    value = np.empty(v0.shape[:-1] + (hi - lo0,), dtype=v0.dtype)
    keys = tuple(np.empty(value.shape, dtype=k.dtype) for k in k0)
    end = 0  # columns of the output written so far
    for lo, v, ks in parts:
        at = lo - lo0
        if at < end:  # the straddling cell: lexicographic min, in every row
            cur, new = value[..., at], v[..., 0]
            take = new < cur
            tie = new == cur
            for out, k in zip(keys, ks):
                take = take | (tie & (k[..., 0] < out[..., at]))
                tie = tie & (k[..., 0] == out[..., at])
            value[..., at] = np.where(take, new, cur)
            for out, k in zip(keys, ks):
                out[..., at] = np.where(take, k[..., 0], out[..., at])
            v, ks, at = v[..., 1:], tuple(k[..., 1:] for k in ks), at + 1
        end = at + v.shape[-1]
        value[..., at:end] = v
        for out, k in zip(keys, ks):
            out[..., at:end] = k
    return lo0, value, keys


def _entry_partial(dist, keys, local_starts):
    """One shard's staged entry minima (the worker-side compute).

    :func:`~repro.pram.backends.base.serial_entry_segmin` on a row slice,
    with segments given by the shard-local ``reduceat`` offsets: each cell
    is the lexicographic min of the shard's rows — exactly what
    :func:`shard_min_combine` needs.
    """
    seg_len = np.diff(np.concatenate((local_starts, [dist.size])))
    seg_id = np.repeat(np.arange(local_starts.size, dtype=np.int64), seg_len)
    return serial_entry_segmin(
        dist, keys, local_starts, seg_id,
        lambda name, size, dtype: np.empty(size, dtype=dtype),
    )


def _attach_shm(name: str):
    """Attach an existing shared-memory block created by the parent.

    Workers share the parent's resource-tracker process (the pool fork
    happens after :func:`ensure_running`), where registration is a set —
    the worker-side duplicate register is a no-op and the creating parent
    alone unregisters on unlink, so the tracker never double-frees.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


class _WorkerShard:
    """Worker-side state for one registered plan shard."""

    def __init__(self, spec: dict) -> None:
        self.shms = [_attach_shm(spec[k]) for k in ("tails", "weights")]
        tails = np.ndarray(spec["n_arcs"], dtype=np.int64, buffer=self.shms[0].buf)
        weights = np.ndarray(spec["n_arcs"], dtype=np.float64, buffer=self.shms[1].buf)
        lo, hi = spec["lo"], spec["hi"]
        self.tails = tails[lo:hi]
        self.weights = weights[lo:hi]
        self.local_starts = spec["local_starts"]
        seg_len = np.diff(np.concatenate((self.local_starts, [hi - lo])))
        self.local_seg_id = np.repeat(
            np.arange(self.local_starts.size, dtype=np.int64), seg_len
        )
        self.k = int(self.local_starts.size)
        self.out_off = int(spec["out_off"])
        self.out_total = int(spec["out_total"])
        self.n_cells = int(spec["n_cells"])
        self.b_shms: list = []
        self.b_dist = self.b_segmin = self.b_winpay = None

    def attach(self, spec: dict) -> None:
        """Attach (or re-attach, after row-capacity growth) the row block.

        The round's shared memory is one (rows_cap × n_cells) dist block
        plus (rows_cap × out_total) output blocks shared by every shard of
        the plan — each worker writes only its own column slice of each
        row, so the sharding stays exclusive-write per row.
        """
        self.close_block()
        shms = [_attach_shm(spec[k]) for k in ("dist", "segmin", "winpay")]
        rows_cap = int(spec["rows_cap"])
        self.b_shms = shms
        self.b_dist = np.ndarray(
            (rows_cap, self.n_cells), dtype=np.float64, buffer=shms[0].buf
        )
        self.b_segmin = np.ndarray(
            (rows_cap, self.out_total), dtype=np.float64, buffer=shms[1].buf
        )
        self.b_winpay = np.ndarray(
            (rows_cap, self.out_total), dtype=np.int64, buffer=shms[2].buf
        )

    def compute(self, rows: int) -> tuple[int, int, int]:
        """One round over ``rows`` active rows; returns ``(gather_ns,
        segmin_ns, serialize_ns)``.

        The telemetry split: *gather* is the candidate gather + add,
        *segmin* the value ``reduceat``, *serialize* the payload masking
        pass that writes the results into the shared output block.
        """
        off, k = self.out_off, self.k
        t0 = time.perf_counter_ns()
        cand = np.take(self.b_dist[:rows], self.tails, axis=1)
        cand += self.weights
        t1 = time.perf_counter_ns()
        segmin = self.b_segmin[:rows, off:off + k]
        np.minimum.reduceat(cand, self.local_starts, axis=1, out=segmin)
        t2 = time.perf_counter_ns()
        minrep = segmin.take(self.local_seg_id, axis=1)
        maskpay = np.where(cand == minrep, self.tails, _INT64_MAX)
        np.minimum.reduceat(
            maskpay, self.local_starts, axis=1,
            out=self.b_winpay[:rows, off:off + k],
        )
        t3 = time.perf_counter_ns()
        return t1 - t0, t2 - t1, t3 - t2

    def close_block(self) -> None:
        self.b_dist = self.b_segmin = self.b_winpay = None
        for shm in self.b_shms:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self.b_shms = []

    def close(self) -> None:
        # drop array views before closing their backing shared memory
        self.close_block()
        self.tails = self.weights = None
        for shm in self.shms:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self.shms = []


def _worker_main(conn, stats_spec) -> None:  # pragma: no cover - subprocess
    """Worker loop: attach registered plans, compute rounds on request.

    ``stats_spec`` (``{"name", "row", "workers"}``) names the parent's
    shared-memory stats block and this worker's row in it; every round
    writes its telemetry row *before* sending the ack, so the parent reads
    a consistent row after the ack arrives.
    """
    shards: dict[int, _WorkerShard] = {}
    stats_shm = None
    stats_row = None
    try:
        stats_shm = _attach_shm(stats_spec["name"])
        stats_row = np.ndarray(
            (stats_spec["workers"], STATS_FIELDS),
            dtype=np.int64,
            buffer=stats_shm.buf,
        )[stats_spec["row"]]
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "exit":
                break
            if op == "register":
                spec = msg[1]
                shards[spec["key"]] = _WorkerShard(spec)
                conn.send(("ok", spec["key"]))
            elif op == "attach":
                _, key, spec = msg
                shards[key].attach(spec)
                conn.send(("attached", key))
            elif op == "drop":
                _, key = msg
                shard = shards.pop(key, None)
                if shard is not None:
                    shard.close()
                conn.send(("dropped", key))
            elif op == "round":
                _, key, rid, rows = msg
                shard = shards[key]
                t0 = time.perf_counter_ns()
                gather_ns, segmin_ns, serialize_ns = shard.compute(rows)
                total_ns = time.perf_counter_ns() - t0
                stats_row[:] = (
                    rid, shard.tails.size * rows,
                    gather_ns, segmin_ns, serialize_ns, total_ns,
                )
                conn.send(("done", rid, total_ns))
            elif op == "entry":
                _, rid, payload = msg
                t0 = time.perf_counter_ns()
                part = _entry_partial(
                    payload["dist"], payload["keys"], payload["local_starts"]
                )
                total_ns = time.perf_counter_ns() - t0
                conn.send(("edone", rid, part, total_ns))
            else:
                conn.send(("err", f"unknown op {op!r}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        for shard in shards.values():
            shard.close()
        if stats_shm is not None:
            stats_row = None
            try:
                stats_shm.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


class _ShardMeta:
    """Parent-side layout of one shard of a registered plan."""

    __slots__ = ("worker", "lo", "hi", "seg_lo", "out_off", "out_len")

    def __init__(self, worker, lo, hi, seg_lo, out_off, out_len):
        self.worker = worker
        self.lo = lo
        self.hi = hi
        self.seg_lo = seg_lo
        self.out_off = out_off
        self.out_len = out_len


class _SharedPlan:
    """Parent-side shared-memory image of one registered RelaxPlan."""

    def __init__(self, key, plan, shms, out_total, shards):
        self.key = key
        self.plan = plan  # keeps the plan (and its graph) alive
        self.shms = shms
        self.out_total = out_total  # output cells over all shards
        self.shards = shards  # list[_ShardMeta], fixed shard order
        # lazily-created row block (grown geometrically on demand)
        self.block_shms: list = []
        self.b_dist = self.b_segmin = self.b_winpay = None
        self.rows_cap = 0

    def close_block(self) -> None:
        self.b_dist = self.b_segmin = self.b_winpay = None
        self.rows_cap = 0
        for shm in self.block_shms:
            for fn in (shm.close, shm.unlink):
                try:
                    fn()
                except Exception:  # pragma: no cover - teardown best-effort
                    pass
        self.block_shms = []

    def close(self) -> None:
        self.close_block()
        for shm in self.shms:
            for fn in (shm.close, shm.unlink):
                try:
                    fn()
                except Exception:  # pragma: no cover - teardown best-effort
                    pass
        self.shms = []


class ShardedBackend(ExecutionBackend):
    """Dense relaxation rounds on a pool of shared-memory worker processes.

    Parameters
    ----------
    workers:
        Worker process count ``W`` (default: ``min(4, cpu_count)``).
    min_arcs:
        Rounds with fewer candidates (arcs × active rows) run in-process;
        the default is the crossover measured on the reference host.
    round_timeout:
        Seconds to wait for a worker's round before degrading to serial.

    The backend is lazy — no process is spawned until the first eligible
    round — and fail-safe: any worker fault trips :attr:`failed`, tears
    the pool down, and routes every later round through the serial
    kernel (bit-identical results, serial wall-clock).
    """

    name = "sharded"

    def __init__(
        self,
        workers: int | None = None,
        min_arcs: int = DEFAULT_MIN_ARCS,
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
        min_entry_rows: int = DEFAULT_MIN_ENTRY_ROWS,
    ) -> None:
        if workers is not None and workers < 1:
            raise InvalidStepError(f"worker count must be >= 1, got {workers}")
        self.workers = workers if workers is not None else max(
            1, min(4, os.cpu_count() or 1)
        )
        self.min_arcs = int(min_arcs)
        self.round_timeout = float(round_timeout)
        self.min_entry_rows = int(min_entry_rows)
        self.failed = False
        self.failure_reason: str | None = None
        self.failure_kind: str | None = None
        #: Callables ``(kind, reason)`` invoked synchronously from
        #: :meth:`_fail`, i.e. mid-round, before the serial retry runs —
        #: layers above the cost stream (the serving layer) use this to
        #: report the degradation under their own traffic labels.
        self._failure_listeners: list = []
        self.sharded_rounds = 0
        self.serial_rounds = 0
        self.sharded_entry_rounds = 0
        self.serial_entry_rounds = 0
        #: Per-round telemetry entries (parent-clock ``t0`` + per-worker
        #: splits), capped at ROUND_LOG_CAP; the Chrome-trace exporter
        #: renders these as one lane per worker.
        self.round_log: list[dict] = []
        self.rounds_dropped = 0
        self._procs: list = []
        self._conns: list = []
        self._plans: dict[int, _SharedPlan] = {}
        self._stats_shm = None
        self._stats_view: np.ndarray | None = None
        self._next_key = 0
        self._round_id = 0
        self._atexit_registered = False

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self, cost=None) -> bool:
        if self._procs:
            return True
        import multiprocessing as mp
        from multiprocessing import resource_tracker, shared_memory

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        try:
            # Start the shared-memory resource tracker *before* forking so
            # every worker inherits the same tracker process; a worker that
            # lazily spawned its own would unlink our blocks when it exits.
            resource_tracker.ensure_running()
            if self._stats_shm is None:
                self._stats_shm = shared_memory.SharedMemory(
                    create=True, size=8 * self.workers * STATS_FIELDS
                )
                self._stats_view = np.ndarray(
                    (self.workers, STATS_FIELDS),
                    dtype=np.int64,
                    buffer=self._stats_shm.buf,
                )
                self._stats_view.fill(0)
            for widx in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                stats_spec = {
                    "name": self._stats_shm.name,
                    "row": widx,
                    "workers": self.workers,
                }
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, stats_spec), daemon=True
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except Exception as exc:  # pragma: no cover - host-dependent
            self._fail(f"worker pool start failed: {exc!r}", cost=cost,
                       kind="pool-start")
            return False
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True
        return True

    def close(self) -> None:
        """Tear down workers and release every shared-memory block."""
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs = []
        self._conns = []
        for sp in self._plans.values():
            sp.close()
        self._plans = {}
        if self._stats_shm is not None:
            self._stats_view = None
            for fn in (self._stats_shm.close, self._stats_shm.unlink):
                try:
                    fn()
                except Exception:  # pragma: no cover - teardown best-effort
                    pass
            self._stats_shm = None

    def evict_plan(self, plan) -> bool:
        """Drop one registered plan: worker shards and shared memory.

        The dynamic subsystem's seam: when a graph mutates structurally
        its plan object dies, but the workers still hold shared-memory
        copies keyed by ``id(plan)`` — this sends each worker a ``drop``
        for the key and then releases the parent-side blocks.  Returns
        ``True`` when a registration was actually evicted.  Best-effort:
        a worker that fails to ack trips the usual serial fallback.
        """
        sp = self._plans.pop(id(plan), None)
        if sp is None:
            return False
        if not self.failed and self._conns:
            try:
                deadline = time.monotonic() + self.round_timeout
                for conn in self._conns:
                    conn.send(("drop", sp.key))
                for conn in self._conns:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not conn.poll(remaining):
                        raise TimeoutError("drop ack timeout")
                    kind, got = conn.recv()
                    if kind != "dropped" or got != sp.key:
                        raise RuntimeError(f"unexpected drop ack {kind!r}")
            except Exception as exc:  # pragma: no cover - worker trouble
                self._fail(f"plan eviction failed: {exc!r}")
        sp.close()
        return True

    def add_failure_listener(self, listener) -> None:
        """Subscribe ``listener(kind, reason)`` to serial-fallback trips.

        Listeners fire synchronously inside :meth:`_fail` — that is,
        *during* the round that degraded, before its serial retry — so a
        subscriber sees the event in causal order with the answers it
        serves.  A backend that already failed notifies the new listener
        immediately (late subscribers still learn the state).
        """
        self._failure_listeners.append(listener)
        if self.failed:
            listener(self.failure_kind, self.failure_reason)

    def _fail(self, reason: str, cost=None, kind: str = "worker-death") -> None:
        """Trip permanent serial fallback: log, tear down, remember why.

        ``kind`` is the structured reason slug reported as
        ``backend.fallback.<kind>`` traffic (``worker-death`` / ``timeout``
        / ``registration`` / ``pool-start``) so the degradation is visible
        in trace summaries and metrics, not only in logs.
        """
        self.failed = True
        self.failure_reason = reason
        self.failure_kind = kind
        log.warning("sharded backend degrading to serial (%s): %s", kind, reason)
        if cost is not None:
            cost.traffic("backend.fallback", elements=1)
            cost.traffic(f"backend.fallback.{kind}", elements=1)
        for listener in self._failure_listeners:
            try:
                listener(kind, reason)
            except Exception:  # pragma: no cover - observers must not kill math
                log.exception("backend failure listener raised")
        for proc in self._procs:
            try:
                proc.terminate()
            except Exception:
                pass
        self.close()

    # -- plan registration ---------------------------------------------------

    def _register(self, plan, cost=None):
        """Place ``plan`` into shared memory and hand shards to workers."""
        from multiprocessing import shared_memory

        n = int(plan.n_arcs)
        layout = _shard_layout(plan.seg_start, n, self.workers)
        out_total = sum(starts.size for *_, starts in layout)

        shms = []

        def _create(nbytes):
            shm = shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
            shms.append(shm)
            return shm

        try:
            tails_shm = _create(8 * n)
            weights_shm = _create(8 * n)
            np.ndarray(n, dtype=np.int64, buffer=tails_shm.buf)[:] = plan.tails_s
            np.ndarray(n, dtype=np.float64, buffer=weights_shm.buf)[:] = plan.weights_s

            key = self._next_key
            self._next_key += 1
            metas = []
            off = 0
            deadline = time.monotonic() + self.round_timeout
            for widx, (lo, hi, seg_lo, local_starts) in enumerate(layout):
                self._conns[widx].send(
                    (
                        "register",
                        {
                            "key": key,
                            "tails": tails_shm.name,
                            "weights": weights_shm.name,
                            "n_arcs": n,
                            "n_cells": int(plan.n_cells),
                            "lo": lo,
                            "hi": hi,
                            "local_starts": local_starts,
                            "out_off": off,
                            "out_total": out_total,
                        },
                    )
                )
                metas.append(
                    _ShardMeta(widx, lo, hi, seg_lo, off, local_starts.size)
                )
                off += local_starts.size
            for widx in range(len(layout)):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._conns[widx].poll(remaining):
                    raise TimeoutError(f"worker {widx} registration timed out")
                ack = self._conns[widx].recv()
                if ack != ("ok", key):
                    raise RuntimeError(f"worker {widx} registration failed: {ack!r}")
        except Exception as exc:
            for shm in shms:
                for fn in (shm.close, shm.unlink):
                    try:
                        fn()
                    except Exception:
                        pass
            self._fail(f"plan registration failed: {exc!r}", cost=cost,
                       kind="registration")
            return None
        sp = _SharedPlan(key, plan, shms, out_total, metas)
        self._plans[id(plan)] = sp
        return sp

    # -- the round -----------------------------------------------------------

    def relax_segmin_batch(self, plan, dist_block, take, cost=None):
        """One round's (A × n_cells) ``(segmin, winpay)`` — sharded when big.

        Eligibility counts candidates — ``rows × n_arcs`` against the
        ``min_arcs`` floor, so a one-row round counts its arcs — since one
        IPC round serves every row of the block.  The row block is
        broadcast to the shards through a lazily-grown shared-memory
        block; each worker computes its arc shard for all rows in one
        rectangular pass, and the parent runs one fixed-shard-order
        combine over the whole block — bit-identical to the serial kernel.
        Any fault degrades to the in-process kernel.
        """
        rows = int(dist_block.shape[0])
        out = None
        eligible = rows * int(plan.n_arcs) >= self.min_arcs
        if not self.failed and eligible and self._ensure_pool(cost):
            out = self._sharded_round(plan, dist_block, cost)
        if out is None:
            self.serial_rounds += 1
            if cost is not None:
                reason = "fallback" if self.failed else "min-arcs"
                cost.traffic(f"backend.serial_round.{reason}", elements=1)
            return super().relax_segmin_batch(plan, dist_block, take, cost=cost)
        self.sharded_rounds += 1
        return out

    def entry_segmin(self, dist_s, keys, seg_start, seg_id, take, cost=None):
        """Staged entry minima of one prune/aggregate round — sharded when big.

        Entry rows are transient, so eligible rounds ship their row slices
        through the worker pipes (no shared-memory registration); each
        worker returns its staged per-segment partials in the ack and the
        parent runs the fixed-shard-order lexicographic combine.
        Smaller rounds — and every round after a fault — run the serial
        kernel, reported as ``backend.serial_entry.{min-rows,fallback}``.
        """
        out = None
        eligible = int(dist_s.size) >= self.min_entry_rows and seg_start.size > 0
        if not self.failed and eligible and self._ensure_pool(cost):
            out = self._entry_round(dist_s, keys, seg_start, cost)
        if out is None:
            self.serial_entry_rounds += 1
            if cost is not None:
                reason = "fallback" if self.failed else "min-rows"
                cost.traffic(f"backend.serial_entry.{reason}", elements=1)
            return super().entry_segmin(
                dist_s, keys, seg_start, seg_id, take, cost=cost
            )
        self.sharded_entry_rounds += 1
        return out

    def _entry_round(self, dist_s, keys, seg_start, cost):
        n = int(dist_s.size)
        shard_specs = _shard_layout(seg_start, n, self.workers)
        self._round_id += 1
        rid = self._round_id
        try:
            for widx, (lo, hi, _seg_lo, local_starts) in enumerate(shard_specs):
                self._conns[widx].send(
                    (
                        "entry",
                        rid,
                        {
                            "dist": dist_s[lo:hi],
                            "keys": tuple(key[lo:hi] for key in keys),
                            "local_starts": local_starts,
                        },
                    )
                )
            parts = []
            deadline = time.monotonic() + self.round_timeout
            for widx, (lo, hi, seg_lo, _ls) in enumerate(shard_specs):
                conn = self._conns[widx]
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(max(remaining, 0.0)):
                    raise TimeoutError(f"worker {widx} entry round timed out")
                msg = conn.recv()
                if msg[0] != "edone" or msg[1] != rid:
                    raise RuntimeError(f"worker {widx} answered {msg!r}")
                gd, mins = msg[2]
                parts.append((seg_lo, gd, mins))
        except TimeoutError as exc:
            self._fail(f"entry round {rid} failed: {exc!r}", cost=cost,
                       kind="timeout")
            return None
        except (EOFError, OSError, RuntimeError) as exc:
            self._fail(f"entry round {rid} failed: {exc!r}", cost=cost,
                       kind="worker-death")
            return None
        _, gmin_d, mins = shard_min_combine(parts)
        if cost is not None:
            cost.traffic("backend.entry_round", elements=n)
            for lo, hi, _seg_lo, _ls in shard_specs:
                cost.traffic("backend.entry_shard", elements=hi - lo)
        return gmin_d, mins

    def _ensure_block(self, sp, rows: int, cost) -> bool:
        """Grow ``sp``'s shared row block to hold ``rows`` rows.

        Creates fresh (rows_cap × n_cells) dist and (rows_cap × out_total)
        output blocks, re-attaches every shard's workers to them, then
        releases the outgrown blocks.  Registration faults trip the same
        permanent fallback as plan registration.
        """
        if sp.rows_cap >= rows and sp.b_dist is not None:
            return True
        from multiprocessing import shared_memory

        rows_cap = max(rows, 2 * sp.rows_cap, 4)
        n_cells = int(sp.plan.n_cells)
        out_total = int(sp.out_total)
        shms = []

        def _create(nbytes):
            shm = shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
            shms.append(shm)
            return shm

        try:
            dist_shm = _create(8 * rows_cap * n_cells)
            segmin_shm = _create(8 * rows_cap * out_total)
            winpay_shm = _create(8 * rows_cap * out_total)
            spec = {
                "dist": dist_shm.name,
                "segmin": segmin_shm.name,
                "winpay": winpay_shm.name,
                "rows_cap": rows_cap,
            }
            deadline = time.monotonic() + self.round_timeout
            for meta in sp.shards:
                self._conns[meta.worker].send(("attach", sp.key, spec))
            for meta in sp.shards:
                conn = self._conns[meta.worker]
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(max(remaining, 0.0)):
                    raise TimeoutError(f"worker {meta.worker} block attach timed out")
                ack = conn.recv()
                if ack != ("attached", sp.key):
                    raise RuntimeError(f"worker {meta.worker} block attach: {ack!r}")
        except Exception as exc:
            for shm in shms:
                for fn in (shm.close, shm.unlink):
                    try:
                        fn()
                    except Exception:
                        pass
            self._fail(f"row block attach failed: {exc!r}", cost=cost,
                       kind="registration")
            return False
        sp.close_block()  # workers have moved off the old block already
        sp.block_shms = shms
        sp.b_dist = np.ndarray(
            (rows_cap, n_cells), dtype=np.float64, buffer=dist_shm.buf
        )
        sp.b_segmin = np.ndarray(
            (rows_cap, out_total), dtype=np.float64, buffer=segmin_shm.buf
        )
        sp.b_winpay = np.ndarray(
            (rows_cap, out_total), dtype=np.int64, buffer=winpay_shm.buf
        )
        sp.rows_cap = rows_cap
        return True

    def _sharded_round(self, plan, dist_block, cost):
        sp = self._plans.get(id(plan))
        if sp is None or sp.plan is not plan:
            sp = self._register(plan, cost=cost)
            if sp is None:
                return None
        rows = int(dist_block.shape[0])
        if not self._ensure_block(sp, rows, cost):
            return None
        np.copyto(sp.b_dist[:rows], dist_block)
        self._round_id += 1
        rid = self._round_id
        walls = []
        wall_t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns()
        try:
            for meta in sp.shards:
                self._conns[meta.worker].send(("round", sp.key, rid, rows))
            deadline = time.monotonic() + self.round_timeout
            for meta in sp.shards:
                conn = self._conns[meta.worker]
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(max(remaining, 0.0)):
                    raise TimeoutError(f"worker {meta.worker} round timed out")
                msg = conn.recv()
                if msg[0] != "done" or msg[1] != rid:
                    raise RuntimeError(f"worker {meta.worker} answered {msg!r}")
                walls.append(int(msg[2]))
        except TimeoutError as exc:
            self._fail(f"round {rid} failed: {exc!r}", cost=cost, kind="timeout")
            return None
        except (EOFError, OSError, RuntimeError) as exc:
            self._fail(f"round {rid} failed: {exc!r}", cost=cost,
                       kind="worker-death")
            return None
        # one fixed-shard-order combine over the whole row block; the
        # payload is the one tie key of a relaxation partial
        _, segmin, (winpay,) = shard_min_combine([
            (
                meta.seg_lo,
                sp.b_segmin[:rows, meta.out_off:meta.out_off + meta.out_len],
                (sp.b_winpay[:rows, meta.out_off:meta.out_off + meta.out_len],),
            )
            for meta in sp.shards
        ])
        round_wall_ns = time.perf_counter_ns() - t0_ns
        candidates = int(plan.n_arcs) * rows
        if cost is not None:
            cost.traffic("backend.round", elements=candidates)
            cost.traffic("backend.batch_rows", elements=rows)
            for meta, wall_ns in zip(sp.shards, walls):
                cost.traffic("backend.shard", elements=(meta.hi - meta.lo) * rows)
                cost.traffic("backend.worker_wall_ns", elements=wall_ns)
            combined = sum(meta.out_len for meta in sp.shards) * rows
            cost.traffic(
                "backend.combine",
                elements=int(segmin.size),
                reads=combined,
                writes=16 * combined,
            )
            if cost.has_subscribers:
                self._merge_worker_stats(
                    sp, rid, wall_t0, round_wall_ns, candidates, cost
                )
        return segmin, winpay

    def _merge_worker_stats(
        self, sp, rid, wall_t0, round_wall_ns, candidates, cost
    ) -> None:
        """Fold this round's shared-memory stats rows into the cost hooks.

        Rows are read in fixed shard order (deterministic merge) after all
        acks arrived, so each participating worker's row is consistent and
        tagged with this round id.  Derived health figures (imbalance,
        IPC share, combine depth, near-misses) ride along, and one bounded
        :attr:`round_log` entry records the lane data for the exporter.
        """
        stats = self._stats_view
        worker_entries = []
        totals = []
        for meta in sp.shards:
            row = stats[meta.worker]
            if int(row[0]) != rid:  # defensive: row not from this round
                continue
            arcs, gather, segmin_ns, serialize, total = (int(v) for v in row[1:])
            prefix = f"backend.worker.{meta.worker}"
            cost.traffic(f"{prefix}.wall_ns", elements=total)
            cost.traffic(f"{prefix}.gather_ns", elements=gather)
            cost.traffic(f"{prefix}.segmin_ns", elements=segmin_ns)
            cost.traffic(f"{prefix}.serialize_ns", elements=serialize)
            cost.traffic(f"{prefix}.arcs", elements=arcs)
            worker_entries.append(
                {
                    "worker": meta.worker,
                    "arcs": arcs,
                    "gather_ns": gather,
                    "segmin_ns": segmin_ns,
                    "serialize_ns": serialize,
                    "wall_ns": total,
                }
            )
            totals.append(total)
        cost.traffic("backend.round_wall_ns", elements=int(round_wall_ns))
        cost.traffic(
            "backend.combine_depth",
            elements=max(len(sp.shards) - 1, 0).bit_length(),
        )
        if totals:
            imbalance = max(totals) / (sum(totals) / len(totals) or 1)
            cost.traffic("backend.imbalance_milli", elements=int(1000 * imbalance))
            cost.traffic(
                "backend.ipc_ns", elements=max(int(round_wall_ns) - max(totals), 0)
            )
        if round_wall_ns > NEAR_MISS_FRACTION * self.round_timeout * 1e9:
            cost.traffic("backend.timeout_near_miss", elements=1)
        if len(self.round_log) < ROUND_LOG_CAP:
            self.round_log.append(
                {
                    "round": rid,
                    "t0": wall_t0,
                    "wall_ns": int(round_wall_ns),
                    "arcs": candidates,
                    "workers": worker_entries,
                }
            )
        else:
            self.rounds_dropped += 1

    def describe(self) -> str:
        state = f"failed: {self.failure_reason}" if self.failed else "ok"
        return (
            f"sharded(workers={self.workers}, min_arcs={self.min_arcs}, "
            f"min_entry_rows={self.min_entry_rows}, {state})"
        )
