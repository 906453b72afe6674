"""Execution backends: where the simulator's numeric kernels actually run.

The cost model charges *model* resources (work, depth, CREW traffic);
an :class:`ExecutionBackend` decides which host resources execute the
underlying NumPy kernels.  Two backends ship:

* :class:`SerialBackend` — today's path: every kernel runs in-process on
  one core.  This is the reference implementation the primitives in
  :mod:`repro.pram.primitives` delegate to.
* :class:`~repro.pram.backends.sharded.ShardedBackend` — a persistent
  pool of worker processes holding ``multiprocessing.shared_memory``
  views of the graph's relaxation plan; each dense relaxation round — a
  block of distance rows, one row for a single source — runs per-shard
  ``reduceat`` segment minima in the workers and one fixed-shard-order
  min-combine in the parent (``docs/backends.md``).

The backend contract is strict: **a backend may only change wall-clock.**
The charged cost stream (labels, work, depth, write footprints) is
emitted by the primitives themselves, identically for every backend, and
outputs must be bit-equal — min over float64 is exact and associative,
which is what makes the sharded combine legal.  The differential matrix
in ``tests/conformance/test_backend_diff.py`` pins this.

Backends are selected per :class:`~repro.pram.machine.PRAM` via its
``backend=`` argument, defaulting to the ``REPRO_BACKEND`` environment
variable (``serial`` | ``sharded`` | ``sharded:W``); named specs resolve
to process-wide singletons so every machine shares one worker pool.
"""

from __future__ import annotations

import os

import numpy as np

from repro.pram.errors import InvalidStepError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "parse_backend_spec",
    "resolve_backend",
    "backend_default",
    "serial_gather_csr",
    "serial_segmin_batch",
    "serial_push_min",
    "serial_entry_segmin",
]

_INT64_MAX = np.iinfo(np.int64).max  # "no achieving tail" payload sentinel


def serial_gather_csr(
    indptr: np.ndarray, frontier: np.ndarray, deg_all: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Numeric core of :func:`repro.pram.primitives.pgather_csr`.

    Returns ``(slots, arcs)`` for the flattened out-arc list of the
    (validated, non-empty) ``frontier``; cost charging stays with the
    calling primitive.  ``deg_all`` is the optional precomputed per-vertex
    degree array (a hopset scale's ``ExplorePlan.deg``) — supplying it
    replaces the second row-pointer gather + subtract with one degree
    gather.
    """
    starts = np.asarray(indptr[frontier], dtype=np.int64)
    if deg_all is not None:
        deg = np.asarray(deg_all[frontier], dtype=np.int64)
    else:
        deg = np.asarray(indptr[frontier + 1], dtype=np.int64) - starts
    total = int(deg.sum())
    slots = np.repeat(np.arange(frontier.size, dtype=np.int64), deg)
    run_start = np.concatenate(([0], np.cumsum(deg)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - run_start[slots]
    arcs = starts[slots] + offsets
    return slots, arcs


def serial_segmin_batch(
    dist_block: np.ndarray,
    tails_s: np.ndarray,
    weights_s: np.ndarray,
    seg_start: np.ndarray,
    seg_id: np.ndarray,
    take,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-head-segment (min candidate, min achieving tail) of a row block.

    The numeric core of every dense relaxation round, in process.
    ``dist_block`` is an (A, n) block of distance rows — the active rows
    of the S×V matrix, or one row for a single-source round.  Per row:
    candidates ``dist[tails_s] + weights_s``, one ``minimum.reduceat`` per
    head segment for the winning value, and a second masked ``reduceat``
    for the deterministic payload (the minimum tail among value-achieving
    arcs).  Every step runs along ``axis=1``, so each row's result is
    independent of the others — which is what lets the matrix engine
    replay the per-source charge stream unchanged.  Scratch comes from
    ``take(name, size, dtype)`` (flat pooled views, reshaped here).
    Returns ``(cand, segmin, winpay, achieving)``: the (A, n_cells)
    results plus the (A, n_arcs) candidate and achiever arrays that the
    write-footprint declarations of ``prelax_arcs`` consume.
    """
    rows = int(dist_block.shape[0])
    n = int(tails_s.size)
    k = int(seg_start.size)
    cand = take("relax.cand", rows * n, np.float64).reshape(rows, n)
    np.take(dist_block, tails_s, axis=1, out=cand)
    cand += weights_s
    segmin = take("relax.segmin", rows * k, np.float64).reshape(rows, k)
    np.minimum.reduceat(cand, seg_start, axis=1, out=segmin)
    minrep = take("relax.minrep", rows * n, np.float64).reshape(rows, n)
    segmin.take(seg_id, axis=1, out=minrep)
    achieving = take("relax.achieving", rows * n, bool).reshape(rows, n)
    np.equal(cand, minrep, out=achieving)
    maskpay = take("relax.maskpay", rows * n, np.int64).reshape(rows, n)
    maskpay.fill(_INT64_MAX)
    np.copyto(maskpay, tails_s, where=achieving)
    winpay = take("relax.winpay", rows * k, np.int64).reshape(rows, k)
    np.minimum.reduceat(maskpay, seg_start, axis=1, out=winpay)
    return cand, segmin, winpay, achieving


def serial_push_min(
    dist_block: np.ndarray,
    frontier_rows: np.ndarray,
    frontier: np.ndarray,
    starts: np.ndarray,
    deg: np.ndarray,
    heads_csr: np.ndarray,
    weights_csr: np.ndarray,
    take,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The improved cells of a push round over a row block — in process.

    The numeric core of a push relaxation round (``docs/mssp.md``,
    "Direction per round"): only the out-arcs of each row's frontier are
    relaxed.  ``frontier`` lists the frontier vertices of every row back to
    back and ``frontier_rows`` the block row of each; vertex ``v``'s
    out-arcs are the CSR slots ``starts[i] .. starts[i] + deg[i]`` of
    ``heads_csr``/``weights_csr``.  Candidates ``dist_block[r, v] + w``
    come from the round-start block, as in a pull round.  Per (row, head)
    the minimum candidate wins when strictly below the incumbent, and the
    payload is the minimum tail among the improving arcs achieving it —
    the pull round's rule, so both directions improve the same cells to
    the same values and payloads.  Cost charging stays with the caller;
    scratch comes from ``take(name, size, dtype)``, and every scratch cell
    the round reads it has written first (``push.pay`` only at the
    improved cells), so a poisoned pool stays invisible.

    Returns ``(cells, vals, pays)``: the improved cells as ascending flat
    indices ``row * n + head`` into the block, their values and payloads.
    """
    n = int(dist_block.shape[1])
    flat = dist_block.reshape(-1)
    total = int(deg.sum())
    # the CSR slots of every frontier vertex's out-arcs, back to back
    ends = np.cumsum(deg)
    arcs = np.arange(total, dtype=np.int64)
    arcs += np.repeat(starts - (ends - deg), deg)
    keys = np.repeat(frontier_rows * n, deg)  # row offsets, then + head
    tails = np.repeat(frontier, deg)
    cand = flat[keys + tails]
    cand += weights_csr[arcs]
    keys += heads_csr[arcs]
    del arcs
    # only arcs strictly below their incumbent can change a cell (one
    # filter at a time, so at most one extra arc-sized array is live)
    improving = cand < flat[keys]
    keys = keys[improving]
    cand = cand[improving]
    tails = tails[improving]
    best = take("push.best", flat.size, np.float64)
    np.copyto(best, flat)
    np.minimum.at(best, keys, cand)
    cells = np.flatnonzero(best < flat)
    achieving = cand == best[keys]
    pay = take("push.pay", flat.size, np.int64)
    pay[cells] = _INT64_MAX
    np.minimum.at(pay, keys[achieving], tails[achieving])
    return cells, best[cells], pay[cells]


def serial_entry_segmin(
    dist_s: np.ndarray,
    keys: tuple[np.ndarray, ...],
    seg_start: np.ndarray,
    seg_id: np.ndarray,
    take,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per-segment staged lexicographic minimum of entry rows — in process.

    The numeric core of the hopset-build prune/aggregate kernels: rows
    are grouped into contiguous segments (``seg_start`` offsets into the
    row arrays, ``seg_id`` the per-row segment index) and each segment
    reduces to the lexicographic minimum of its ``(dist, *keys)`` row
    tuples, computed by staged value minima — per segment the minimum
    ``dist``, then the minimum of the first tie key among dist-achieving
    rows, then the minimum of the next key among rows achieving all
    earlier stages, and so on.  Staged minima equal the lexicographic
    minimum and are permutation-independent, which is what makes the
    kernels match the literal sort programs and makes sharded execution
    legal (the combine is associative).  A caller that appends each row's
    input position as the last key gets the winning rows back: that key
    is unique, so its staged minimum names exactly one row per segment —
    the first row a stable sort would place.

    Returns ``(gmin_d, mins)`` with one ``mins`` entry per tie key.
    Scratch comes from ``take(name, size, dtype)``; the returned arrays
    are pooled views valid until the pool's next round — callers copy out
    whatever survives.
    """
    n = int(dist_s.size)
    k = int(seg_start.size)
    gmin_d = take("entry.gmin_d", k, np.float64)
    np.minimum.reduceat(dist_s, seg_start, out=gmin_d)
    rep = take("entry.rep", n, np.float64)
    gmin_d.take(seg_id, out=rep)
    achieving = take("entry.achieving", n, bool)
    np.equal(dist_s, rep, out=achieving)
    masked = take("entry.masked", n, np.int64)
    mins: list[np.ndarray] = []
    for i, key in enumerate(keys):
        if i:
            irep = take("entry.irep", n, np.int64)
            mins[-1].take(seg_id, out=irep)
            also = take("entry.also", n, bool)
            np.equal(keys[i - 1], irep, out=also)
            achieving &= also
        masked.fill(_INT64_MAX)
        np.copyto(masked, key, where=achieving)
        gmin = take(f"entry.gmin_{i}", k, np.int64)
        np.minimum.reduceat(masked, seg_start, out=gmin)
        mins.append(gmin)
    return gmin_d, tuple(mins)


class ExecutionBackend:
    """Where the numeric kernels of the simulated machine execute.

    The base class *is* the serial semantics: subclasses may override
    :meth:`relax_segmin_batch` / :meth:`entry_segmin` with a faster
    execution of the same math, but must return bit-identical arrays.
    Backends never charge the cost model — the ``cost`` handle they
    receive is for observability traffic only (worker wall times, shard
    sizes).
    """

    #: Human-readable backend kind (``"serial"`` / ``"sharded"``).
    name = "base"
    #: Host workers the backend executes on (1 for in-process).
    workers = 1

    def relax_segmin_batch(
        self, plan, dist_block: np.ndarray, take, cost=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment ``(segmin, winpay)`` of one dense relaxation round.

        ``plan`` is a :class:`~repro.pram.primitives.RelaxPlan` and
        ``dist_block`` an (A, n) block of distance rows — a single-source
        round passes a block of one row.  Returns (A, n_cells) arrays, one
        entry per ``plan.cells`` segment; row ``r`` depends on
        ``dist_block[r]`` alone, which keeps each row's charge stream
        equal to an independent run.
        """
        _, segmin, winpay, _ = serial_segmin_batch(
            dist_block, plan.tails_s, plan.weights_s, plan.seg_start, plan.seg_id, take
        )
        return segmin, winpay

    def entry_segmin(
        self,
        dist_s: np.ndarray,
        keys: tuple[np.ndarray, ...],
        seg_start: np.ndarray,
        seg_id: np.ndarray,
        take,
        cost=None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Per-segment staged lexicographic min of grouped entry rows.

        The grouped-reduction core of the hopset-build prune and
        aggregate kernels (``pprune_entries`` / ``paggregate_entries``);
        see :func:`serial_entry_segmin` for the exact semantics.
        """
        return serial_entry_segmin(dist_s, keys, seg_start, seg_id, take)

    def evict_plan(self, plan) -> bool:
        """Release any backend-held state derived from ``plan``.

        In-process backends hold none (plans alias the caller's arrays),
        so the base implementation is a no-op returning ``False``.  The
        sharded backend overrides this to tear down the shared-memory
        *copies* its workers registered for the plan — the dynamic
        subsystem calls it whenever a graph mutates structurally, paired
        with :meth:`~repro.pram.workspace.Workspace.drop_plan`.
        """
        return False

    def close(self) -> None:
        """Release any host resources (worker processes, shared memory)."""

    def describe(self) -> str:
        return self.name


class SerialBackend(ExecutionBackend):
    """The in-process NumPy path — today's execution, behind the interface."""

    name = "serial"


def parse_backend_spec(spec: str) -> tuple[str, int | None]:
    """Parse a ``REPRO_BACKEND`` value into ``(kind, workers)``.

    Accepted: ``serial`` (or empty), ``sharded``, ``sharded:W`` with
    ``W >= 1``.  Raises :class:`InvalidStepError` otherwise.
    """
    s = (spec or "").strip().lower()
    if s in ("", "serial"):
        return "serial", None
    if s == "sharded":
        return "sharded", None
    if s.startswith("sharded:"):
        raw = s.split(":", 1)[1]
        try:
            w = int(raw)
        except ValueError:
            raise InvalidStepError(f"invalid sharded worker count {raw!r}") from None
        if w < 1:
            raise InvalidStepError(f"sharded worker count must be >= 1, got {w}")
        return "sharded", w
    raise InvalidStepError(
        f"unknown backend spec {spec!r}; expected serial | sharded[:W]"
    )


_SINGLETONS: dict[str, ExecutionBackend] = {}


def resolve_backend(spec=None) -> ExecutionBackend:
    """Resolve a backend argument to a live :class:`ExecutionBackend`.

    ``spec`` may be an instance (returned as-is), a spec string, or
    ``None`` — which reads ``REPRO_BACKEND`` (default ``serial``).
    String specs resolve to process-wide singletons, so every ``PRAM()``
    under ``REPRO_BACKEND=sharded:4`` shares one worker pool.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_BACKEND", "serial")
    kind, w = parse_backend_spec(spec)
    key = kind if w is None else f"{kind}:{w}"
    hit = _SINGLETONS.get(key)
    if hit is not None:
        return hit
    if kind == "serial":
        backend: ExecutionBackend = SerialBackend()
    else:
        from repro.pram.backends.sharded import ShardedBackend

        backend = ShardedBackend(workers=w)
    _SINGLETONS[key] = backend
    return backend


def backend_default() -> ExecutionBackend:
    """The environment-selected backend (``REPRO_BACKEND``, default serial)."""
    return resolve_backend(None)
