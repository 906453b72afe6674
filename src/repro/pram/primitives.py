"""Core data-parallel primitives, executed vectorized and cost-metered.

Each primitive performs the operation with NumPy (so the simulation is fast
and bit-exact) and charges the :class:`~repro.pram.cost.CostModel` the work
and depth that the operation costs on a CREW PRAM:

==============================  ======================  =====================
primitive                       work                    depth
==============================  ======================  =====================
``elementwise`` over n items    O(n)                    O(1)
``preduce`` over n items        O(n)                    O(log n)   (tree)
``pbroadcast`` to n cells       O(n)                    O(1)       (CREW read)
``scatter_min`` of n updates    O(n)                    O(log n)   (combine)
``pselect`` / ``pwhere``        O(n)                    O(1)
==============================  ======================  =====================

``scatter_min`` deserves a note: on CREW, concurrent updates to one cell are
not allowed, so colliding updates are combined by a balanced min-tree per
cell — hence the O(log n) depth charge.  This is exactly how the paper's
Algorithm 2 merges exploration entries arriving at one vertex.

Besides charging work/depth, every primitive reports its model-level CREW
memory traffic (cells read/written under the charging convention above)
through :meth:`CostModel.traffic` — a no-op unless an observability
subscriber (``repro.obs``) is attached.

When a race detector is attached (:class:`repro.conformance.ShadowCREW`,
flagged by ``cost.wants_footprints``), every primitive additionally
*declares* its per-round write-set through :meth:`CostModel.footprint` and
closes each synchronous round with :meth:`CostModel.commit_round`.  The
declarations carry the CREW legality rule the writes claim (``exclusive``,
``common`` tie-set, or ``combine`` tree — see ``WRITE_RULES`` in
``pram/cost.py``), which is what the shadow checker enforces.  Footprint
construction is skipped entirely when no detector is attached.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.pram.backends.base import (
    serial_entry_segmin,
    serial_gather_csr,
    serial_segmin_batch,
)
from repro.pram.cost import CostModel
from repro.pram.errors import InvalidStepError
from repro.pram.workspace import INT_POISON

_INT64_MAX = np.iinfo(np.int64).max  # "no achieving tail" sentinel, hoisted

__all__ = [
    "ceil_log2",
    "elementwise",
    "preduce",
    "pbroadcast",
    "pscatter",
    "scatter_min",
    "scatter_min_arg",
    "pselect",
    "pcompact",
    "pgather_csr",
    "pgather_add",
    "RelaxPlan",
    "build_relax_plan",
    "build_relax_plan_from_csr",
    "prelax_arcs",
    "prelax_arcs_batch",
    "pprune_entries",
    "paggregate_entries",
]


def ceil_log2(n: int) -> int:
    """``ceil(log2(n))`` for n >= 1; 0 for n in {0, 1}."""
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))


def elementwise(
    cost: CostModel, fn: Callable[..., np.ndarray], *arrays: np.ndarray, label: str = "map"
) -> np.ndarray:
    """Apply a vectorized function elementwise; one round, linear work."""
    out = fn(*arrays)
    n = max((int(np.size(a)) for a in arrays), default=0)
    if cost.wants_footprints:
        flat = np.ravel(np.asarray(out))
        cost.footprint(label, "out", np.arange(flat.size), flat, rule="exclusive")
    cost.charge(work=n, depth=1, label=label)
    cost.traffic(label, elements=n, reads=n * max(len(arrays), 1), writes=n)
    cost.commit_round(label)
    return out


def preduce(
    cost: CostModel, op: str, arr: np.ndarray, label: str = "reduce"
) -> np.generic:
    """Tree-reduce an array with ``op`` in {'min','max','sum','or','and'}."""
    reducers: dict[str, Callable[[np.ndarray], np.generic]] = {
        "min": np.min,
        "max": np.max,
        "sum": np.sum,
        "or": np.any,
        "and": np.all,
    }
    if op not in reducers:
        raise InvalidStepError(f"unknown reduction op {op!r}")
    n = int(arr.size)
    if n == 0:
        raise InvalidStepError("cannot reduce an empty array")
    out = reducers[op](arr)
    if cost.wants_footprints:
        # the combine tree's internal writes collapse to one result cell;
        # the tree itself is covered by the "combine" depth charge below
        cost.footprint(label, "out", np.zeros(1, dtype=np.int64),
                       np.asarray([out]), rule="exclusive")
    cost.charge(work=n, depth=ceil_log2(n) + 1, label=label)
    # combine tree: 2(n-1) reads, n-1 internal writes, 1 result write
    cost.traffic(label, elements=n, reads=2 * max(n - 1, 0), writes=n)
    cost.commit_round(label)
    return out


def pbroadcast(cost: CostModel, value, n: int, dtype=None, label: str = "broadcast") -> np.ndarray:
    """Broadcast one value to ``n`` cells (one concurrent-read round)."""
    if n < 0:
        raise InvalidStepError(f"broadcast size must be non-negative, got {n}")
    out = np.full(n, value, dtype=dtype)
    if cost.wants_footprints:
        cost.footprint(label, "out", np.arange(n), out, rule="exclusive")
    cost.charge(work=n, depth=1, label=label)
    cost.traffic(label, elements=n, reads=n, writes=n)
    cost.commit_round(label)
    return out


def pscatter(
    cost: CostModel,
    target: np.ndarray,
    idx: np.ndarray,
    values: np.ndarray,
    label: str = "scatter",
) -> np.ndarray:
    """Exclusive-write scatter: ``target[idx[i]] = values[i]``, in place.

    One round, linear work — but CREW-legal **only** when no two updates
    address one cell with differing values (equal-valued duplicates follow
    the COMMON rule, like :class:`~repro.pram.memory.CREWMemory`).  The
    vectorized execution uses NumPy fancy assignment, whose behavior on
    duplicate indices is "last update wins" — i.e. a conflicting update set
    silently commits *some* value.  This function does not check for
    conflicts itself; attach :class:`repro.conformance.ShadowCREW` to catch
    them, or run the literal :func:`repro.pram.reference.crew_scatter`.
    """
    if idx.shape != values.shape:
        raise InvalidStepError("pscatter: idx and values must have equal shape")
    n = int(idx.size)
    if cost.wants_footprints:
        cost.footprint(label, "target", idx, values, rule="exclusive")
    target[idx] = values
    cost.charge(work=n, depth=1, label=label)
    cost.traffic(label, elements=n, reads=2 * n, writes=n)
    cost.commit_round(label)
    return target


def scatter_min(
    cost: CostModel,
    target: np.ndarray,
    idx: np.ndarray,
    values: np.ndarray,
    label: str = "scatter_min",
) -> np.ndarray:
    """``target[idx[i]] = min(target[idx[i]], values[i])`` for all i, in place.

    Colliding updates are combined with a per-cell min tree (depth
    ``O(log n)`` in the worst case of all updates colliding).
    """
    if idx.shape != values.shape:
        raise InvalidStepError("scatter_min: idx and values must have equal shape")
    n = int(idx.size)
    if cost.wants_footprints:
        # raw colliding updates, declared legal via the charged combine tree
        cost.footprint(label, "target", idx, values, rule="combine")
    np.minimum.at(target, idx, values)
    cost.charge(work=n, depth=ceil_log2(max(n, 1)) + 1, label=label)
    cost.traffic(label, elements=n, reads=2 * n, writes=n)
    cost.commit_round(label)
    return target


def scatter_min_arg(
    cost: CostModel,
    target: np.ndarray,
    payload: np.ndarray,
    idx: np.ndarray,
    values: np.ndarray,
    value_payload: np.ndarray,
    label: str = "scatter_min_arg",
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter-min that also tracks *which* update won each cell.

    Like :func:`scatter_min`, but additionally writes ``value_payload[i]``
    into ``payload[idx[i]]`` whenever ``values[i]`` strictly improves the
    cell.

    **Tie-breaking (deterministic, lowest index wins).**  Among concurrent
    updates to one cell that tie at the minimum value, the one with the
    smallest ``value_payload`` wins the payload write — payloads are vertex
    indices everywhere this is used, so "lowest index wins".  An incumbent
    value already in ``target`` is kept unless strictly improved (its
    payload is *not* rewritten on an equal-value update).  Both rules are
    order-independent, so repeated runs produce bit-identical results (a
    requirement for the determinism experiments, E5), and the race detector
    (:class:`repro.conformance.ShadowCREW`) treats the equal-valued tie-set
    as COMMON-rule writes rather than conflicts.
    """
    if not (idx.shape == values.shape == value_payload.shape):
        raise InvalidStepError("scatter_min_arg: inputs must have equal shape")
    n = int(idx.size)
    if n == 0:
        cost.charge(work=0, depth=1, label=label)
        cost.traffic(label)
        cost.commit_round(label)
        return target, payload
    # Sort updates by (cell, value, payload); the first update per cell is
    # the deterministic winner.  Charged as one parallel sort round below.
    order = np.lexsort((value_payload, values, idx))
    idx_s = idx[order]
    first = np.ones(n, dtype=bool)
    first[1:] = idx_s[1:] != idx_s[:-1]
    win_cells = idx_s[first]
    win_vals = values[order][first]
    win_pay = value_payload[order][first]
    improve = win_vals < target[win_cells]
    if cost.wants_footprints:
        # target: all min-achieving updates per cell — an equal-valued
        # tie-set, serialized by the combine stage (COMMON-legal even in
        # strict mode).  payload: exactly one tie-broken winner per
        # improved cell — a raw exclusive write (any duplicate here would
        # mean the tie-breaking is broken, and the shadow flags it).
        vals_s = values[order]
        run_min = win_vals[np.cumsum(first) - 1]
        achieving = vals_s == run_min
        cost.footprint(label, "target", idx_s[achieving], vals_s[achieving],
                       rule="common")
        cost.footprint(label, "payload", win_cells[improve], win_pay[improve],
                       rule="exclusive")
    target[win_cells[improve]] = win_vals[improve]
    payload[win_cells[improve]] = win_pay[improve]
    cost.charge(work=n * max(1, ceil_log2(n)), depth=ceil_log2(n) + 2, label=label)
    # sort-network traffic plus the winner read-compare-write per cell
    cost.traffic(
        label, elements=n, reads=n * max(1, ceil_log2(n)) + 2 * n, writes=2 * n
    )
    cost.commit_round(label)
    return target, payload


def pgather_csr(
    cost: CostModel,
    indptr: np.ndarray,
    frontier: np.ndarray,
    label: str = "gather_csr",
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the CSR arc ranges of the ``frontier`` vertices.

    Given a CSR row-pointer array ``indptr`` (length ``n + 1``) and a set of
    ``f`` frontier vertices, produce the flattened list of their out-arcs:

    * ``slots[j]`` — which frontier *slot* (position in ``frontier``) arc
      ``j`` belongs to, so callers recover tails as ``frontier[slots]``;
    * ``arcs[j]`` — the arc's index into the CSR ``indices``/``weights``
      arrays, so heads are ``indices[arcs]`` and weights ``weights[arcs]``.

    The PRAM schedule is: read the two row pointers of every frontier vertex
    (one concurrent-read round), exclusive-prefix-sum the degrees to assign
    each vertex a contiguous output run (the ``O(log f)`` depth term), then
    have one processor per output arc compute its ``(slot, arc)`` pair and
    write it to its own distinct cell — an EXCLUSIVE-rule round, since the
    prefix sum hands every arc a unique output slot.  Work is
    ``O(f + Σ deg)``, depth ``O(log f)``.

    The literal CREW program for this schedule is
    :func:`repro.pram.reference.crew_frontier_gather`; the differential
    executor pins this vectorized version against it bit-exactly.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    n = int(indptr.size) - 1
    f = int(frontier.size)
    if f and (frontier.min() < 0 or frontier.max() >= n):
        raise InvalidStepError("pgather_csr: frontier vertex out of range")
    if f == 0:
        slots = np.zeros(0, dtype=np.int64)
        arcs = np.zeros(0, dtype=np.int64)
        if cost.wants_footprints:
            cost.footprint(label, "slots", slots, slots, rule="exclusive")
            cost.footprint(label, "arcs", arcs, arcs, rule="exclusive")
        cost.charge(work=0, depth=1, label=label)
        cost.traffic(label)
        cost.commit_round(label)
        return slots, arcs
    slots, arcs = serial_gather_csr(indptr, frontier)
    total = int(arcs.size)
    if cost.wants_footprints:
        out_slots = np.arange(total, dtype=np.int64)
        cost.footprint(label, "slots", out_slots, slots, rule="exclusive")
        cost.footprint(label, "arcs", out_slots, arcs, rule="exclusive")
    cost.charge(work=f + total, depth=ceil_log2(f) + 1, label=label)
    # 2 row-pointer reads per frontier vertex, then each output arc reads its
    # run start + offset and writes its (slot, arc) pair
    cost.traffic(label, elements=total, reads=2 * f + 2 * total, writes=2 * total)
    cost.commit_round(label)
    return slots, arcs


def pgather_add(
    cost: CostModel,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    frontier: np.ndarray,
    base: np.ndarray,
    workspace=None,
    label: str = "gather_csr",
    add_label: str = "relax",
    deg_all: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused CSR frontier gather + per-arc candidate add.

    Performs :func:`pgather_csr` and immediately computes, for every
    gathered arc ``j``, the head vertex ``heads[j] = indices[arcs[j]]`` and
    the candidate value ``cand[j] = base[slots[j]] + weights[arcs[j]]``
    (``base`` is indexed by frontier *slot* — e.g. the per-entry distances
    of a hopset exploration table).  Charged exactly like the primitive
    sequence it stands for: the :func:`pgather_csr` charge under ``label``
    plus one ``(work=total, depth=1)`` charge under ``add_label`` for the
    adds (skipped when no arcs were gathered, matching callers that break
    before charging).  Returns ``(slots, heads, cand)``; when a
    :class:`~repro.pram.workspace.Workspace` is supplied, ``heads`` and
    ``cand`` are pooled scratch views valid until its next round.
    ``deg_all`` is the optional per-graph cached degree array
    (``Workspace.csr_degrees``) the gather core may consult — a pure
    wall-clock shortcut, bit-identical output and identical charges.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    n = int(indptr.size) - 1
    f = int(frontier.size)
    if f and (frontier.min() < 0 or frontier.max() >= n):
        raise InvalidStepError("pgather_add: frontier vertex out of range")
    if f == 0:
        empty = np.zeros(0, dtype=np.int64)
        if cost.wants_footprints:
            cost.footprint(label, "slots", empty, empty, rule="exclusive")
            cost.footprint(label, "arcs", empty, empty, rule="exclusive")
        cost.charge(work=0, depth=1, label=label)
        cost.traffic(label)
        cost.commit_round(label)
        return empty, empty, np.zeros(0)
    slots, arcs = serial_gather_csr(indptr, frontier, deg_all)
    total = int(arcs.size)
    if cost.wants_footprints:
        out_slots = np.arange(total, dtype=np.int64)
        cost.footprint(label, "slots", out_slots, slots, rule="exclusive")
        cost.footprint(label, "arcs", out_slots, arcs, rule="exclusive")
    cost.charge(work=f + total, depth=ceil_log2(f) + 1, label=label)
    cost.traffic(label, elements=total, reads=2 * f + 2 * total, writes=2 * total)
    cost.commit_round(label)
    if total == 0:
        return slots, np.zeros(0, dtype=np.int64), np.zeros(0)
    if workspace is not None:
        heads = workspace.take("gather.heads", total, np.int64)
        cand = workspace.take("gather.cand", total, np.float64)
        wbuf = workspace.take("gather.w", total, np.float64)
    else:
        heads = np.empty(total, dtype=np.int64)
        cand = np.empty(total)
        wbuf = np.empty(total)
    indices.take(arcs, out=heads)
    base.take(slots, out=cand)
    weights.take(arcs, out=wbuf)
    cand += wbuf
    cost.charge(work=total, depth=1, label=add_label)
    return slots, heads, cand


class RelaxPlan:
    """Precomputed arcs-sorted-by-head layout for :func:`prelax_arcs`.

    Built once per graph (see ``Workspace.relax_plan``); lets the fused
    dense relaxation skip the per-round sort entirely — per round it is
    one gather, one add, and two ``minimum.reduceat`` passes.  The plan
    also carries its round-scratch bundle (``scratch``, sizes are fixed by
    the arc layout), so a pooled round performs zero allocations and a
    single attribute load instead of one pool lookup per temporary.
    """

    __slots__ = (
        "n_arcs", "n_cells", "tails_s", "weights_s", "heads_s",
        "cells", "seg_start", "seg_id", "scratch",
    )

    def __init__(self, n_arcs, n_cells, tails_s, weights_s, heads_s,
                 cells, seg_start, seg_id) -> None:
        self.n_arcs = n_arcs
        self.n_cells = n_cells
        self.tails_s = tails_s
        self.weights_s = weights_s
        self.heads_s = heads_s
        self.cells = cells
        self.seg_start = seg_start
        self.seg_id = seg_id
        self.scratch: dict[str, np.ndarray] | None = None


def build_relax_plan(
    tails: np.ndarray, heads: np.ndarray, weights: np.ndarray, n_cells: int
) -> RelaxPlan:
    """Sort an arc list by head once and precompute its segment layout."""
    n = int(heads.size)
    order = np.argsort(heads, kind="stable")
    heads_s = heads[order]
    first = np.ones(n, dtype=bool)
    if n:
        first[1:] = heads_s[1:] != heads_s[:-1]
    seg_start = np.flatnonzero(first)
    return RelaxPlan(
        n_arcs=n,
        n_cells=int(n_cells),
        tails_s=tails[order],
        weights_s=weights[order],
        heads_s=heads_s,
        cells=heads_s[seg_start],
        seg_start=seg_start,
        seg_id=np.cumsum(first) - 1,
    )


def prelax_arcs(
    cost: CostModel,
    dist: np.ndarray,
    parent: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    *,
    plan: RelaxPlan | None = None,
    workspace=None,
    backend=None,
    changed: str = "frontier",
    label: str = "relax",
    changed_label: str = "converged",
    frontier_label: str = "frontier",
):
    """One fused Bellman–Ford relaxation round: gather + add + combining
    min + changed mask in a single pass.

    Semantically identical to the primitive sequence it stands for::

        cand = dist[tails] + weights                      # gather + add
        scatter_min_arg(dist, parent, heads, cand, tails) # combining min
        changed = map(!=, prev, dist); select(changed)    # changed mask

    and **charged identically** to it: one :func:`scatter_min_arg`-rate
    charge under ``label``, then (``changed="frontier"``) one map charge
    under ``changed_label`` plus one select charge under
    ``frontier_label``, or (``changed="any"``) one map + one OR-reduce
    charge both under ``changed_label``, or (``changed="skip"``) nothing —
    the exact traffic and write-footprint streams included, so shadow
    detectors and metrics see the same machine.  The payload written to
    ``parent`` is the winning arc's tail (the only payload the call sites
    use), with the same deterministic tie rule as ``scatter_min_arg``:
    per cell the minimum ``(value, tail)`` pair wins, and an incumbent is
    only replaced on strict improvement.

    Execution differs only in wall-clock: arcs are processed sorted by
    head (``np.minimum.reduceat`` per contiguous head segment), either
    re-sorted per call or via a precomputed :class:`RelaxPlan`
    (``plan=``, which also carries pre-permuted tails/weights — then
    ``tails``/``heads``/``weights`` are ignored).  Scratch arrays come
    from the optional ``workspace`` pool.  The segment-min kernel takes
    ``dist`` as a row block of one row: with a ``backend``
    (:mod:`repro.pram.backends`) a planned round runs on that backend's
    :meth:`~repro.pram.backends.base.ExecutionBackend.relax_segmin_batch`
    — e.g. sharded across worker processes — still bit-equal and charged
    identically; unplanned rounds (the sparse engine's frontier arcs) and
    rounds that must declare write footprints (an attached race detector)
    run the in-process kernel.

    Float min is order-independent, so the per-cell winning value is
    bit-equal to the lexsort-based :func:`scatter_min_arg`; the winning
    payload is the minimum tail among value-achieving updates — the same
    winner the ``(value, payload)`` lexicographic rule picks.

    Returns the changed-cell array (``changed="frontier"``: sorted unique
    vertex ids, bit-equal to ``select(prev != dist)``), a bool
    (``changed="any"``), or the changed cells uncharged (``"skip"``).
    """
    if changed not in ("frontier", "any", "skip"):
        raise InvalidStepError(f"prelax_arcs: unknown changed mode {changed!r}")
    n = int(plan.n_arcs if plan is not None else tails.size)
    n_cells = int(dist.size)
    ws = workspace

    def take(name, size, dtype):
        if ws is not None:
            return ws.take(name, size, dtype)
        return np.empty(size, dtype=dtype)

    if n == 0:
        improved_cells = np.zeros(0, dtype=np.int64)
        cost.charge(work=0, depth=1, label=label)
        cost.traffic(label)
        cost.commit_round(label)
    else:
        if plan is not None:
            tails_s = plan.tails_s
            weights_s = plan.weights_s
            heads_s = plan.heads_s
            cells = plan.cells
            seg_start = plan.seg_start
            seg_id = plan.seg_id
            if ws is not None:
                # fixed-size scratch bundle cached on the plan: zero pool
                # lookups per round (poisoned wholesale in debug mode)
                sc = plan.scratch
                if sc is None:
                    k0 = int(cells.size)
                    sc = plan.scratch = {
                        "relax.cand": np.empty(n),
                        "relax.segmin": np.empty(k0),
                        "relax.incumbent": np.empty(k0),
                        "relax.improve": np.empty(k0, dtype=bool),
                        "relax.minrep": np.empty(n),
                        "relax.achieving": np.empty(n, dtype=bool),
                        "relax.maskpay": np.empty(n, dtype=np.int64),
                        "relax.winpay": np.empty(k0, dtype=np.int64),
                        "relax.changed": np.empty(n_cells, dtype=bool),
                    }
                if ws.poison:
                    for buf in sc.values():
                        buf.fill(True if buf.dtype.kind == "b" else (
                            np.nan if buf.dtype.kind == "f" else INT_POISON))
                take = lambda name, size, dtype: sc[name]  # noqa: E731
        else:
            order = np.argsort(heads, kind="stable")
            tails_s = take("relax.tails_s", n, np.int64)
            tails.take(order, out=tails_s)
            weights_s = take("relax.weights_s", n, np.float64)
            weights.take(order, out=weights_s)
            heads_s = take("relax.heads_s", n, np.int64)
            heads.take(order, out=heads_s)
            first = take("relax.first", n, bool)
            first[0] = True
            np.not_equal(heads_s[1:], heads_s[:-1], out=first[1:])
            seg_start = np.flatnonzero(first)
            cells = heads_s[seg_start]
            seg_id = take("relax.seg_id", n, np.int64)
            np.cumsum(first, out=seg_id)
            seg_id -= 1
        k = int(cells.size)
        # The numeric kernel runs on the machine's execution backend (see
        # repro.pram.backends) as a one-row block: the serial path computes
        # the per-segment (segmin, winpay) in process, the sharded path on
        # worker shards with a fixed-order min-combine — bit-equal either
        # way.  Shadowed rounds need the per-arc cand/achieving arrays for
        # their footprint declarations, so they run the in-process kernel.
        block = dist[np.newaxis]
        if backend is not None and plan is not None and not cost.wants_footprints:
            segmin, winpay = backend.relax_segmin_batch(plan, block, take, cost=cost)
        else:
            cand, segmin, winpay, achieving = serial_segmin_batch(
                block, tails_s, weights_s, seg_start, seg_id, take
            )
            cand, achieving = cand[0], achieving[0]
        segmin, winpay = segmin[0], winpay[0]
        incumbent = take("relax.incumbent", k, np.float64)
        dist.take(cells, out=incumbent)
        improve = take("relax.improve", k, bool)
        np.less(segmin, incumbent, out=improve)
        improved_cells = cells[improve]
        win_vals = segmin[improve]
        # payload = min tail among the value-achieving updates of each cell
        win_pays = winpay[improve]
        if cost.wants_footprints:
            cost.footprint(label, "target", heads_s[achieving], cand[achieving],
                           rule="common")
            cost.footprint(label, "payload", improved_cells, win_pays,
                           rule="exclusive")
        dist[improved_cells] = win_vals
        parent[improved_cells] = win_pays
        cost.charge(work=n * max(1, ceil_log2(n)), depth=ceil_log2(n) + 2, label=label)
        cost.traffic(
            label, elements=n, reads=n * max(1, ceil_log2(n)) + 2 * n, writes=2 * n
        )
        cost.commit_round(label)

    if changed == "skip":
        return improved_cells
    # the changed mask: map(!=, prev, dist) — improved_cells IS that mask
    if cost.wants_footprints:
        changed_arr = take("relax.changed", n_cells, bool)
        changed_arr.fill(False)
        changed_arr[improved_cells] = True
        cost.footprint(changed_label, "out", np.arange(n_cells), changed_arr,
                       rule="exclusive")
    cost.charge(work=n_cells, depth=1, label=changed_label)
    cost.traffic(changed_label, elements=n_cells, reads=2 * n_cells, writes=n_cells)
    cost.commit_round(changed_label)
    if changed == "any":
        any_changed = bool(improved_cells.size)
        if cost.wants_footprints:
            cost.footprint(changed_label, "out", np.zeros(1, dtype=np.int64),
                           np.asarray([any_changed]), rule="exclusive")
        cost.charge(work=n_cells, depth=ceil_log2(n_cells) + 1, label=changed_label)
        cost.traffic(
            changed_label, elements=n_cells,
            reads=2 * max(n_cells - 1, 0), writes=n_cells,
        )
        cost.commit_round(changed_label)
        return any_changed
    if cost.wants_footprints:
        cost.footprint(frontier_label, "out",
                       np.arange(improved_cells.size), improved_cells,
                       rule="exclusive")
    cost.charge(
        work=n_cells, depth=ceil_log2(max(n_cells, 1)) + 1, label=frontier_label
    )
    cost.traffic(
        frontier_label, elements=n_cells, reads=n_cells,
        writes=int(improved_cells.size),
    )
    cost.commit_round(frontier_label)
    return improved_cells


def build_relax_plan_from_csr(graph) -> RelaxPlan:
    """A :class:`RelaxPlan` for a symmetric CSR graph, without re-sorting.

    An undirected :class:`~repro.graphs.csr.Graph` stores both arc
    directions sorted by ``(row, neighbor)``, so the arc list sorted
    stably by head — what :func:`build_relax_plan` computes with an
    O(m log m) argsort — is just the CSR read with tail/head roles
    swapped: row ``v``'s slots are exactly the in-arcs ``(u → v)`` in
    ascending-tail order, with bit-identical weights (both directions of
    an edge share one weight entry).  The plan equals
    ``build_relax_plan(*graph.arcs(), n_cells=graph.n)`` array-for-array,
    at O(n + m) cost — which is what lets the workspace hand out a fresh
    plan per hopset scale without re-deriving the CSR layout.
    """
    indptr = graph.indptr
    deg = np.diff(indptr)
    cells = np.flatnonzero(deg)
    return RelaxPlan(
        n_arcs=int(indptr[-1]),
        n_cells=int(graph.n),
        tails_s=graph.indices,
        weights_s=graph.weights,
        heads_s=np.repeat(np.arange(int(graph.n), dtype=np.int64), deg),
        cells=cells,
        seg_start=np.asarray(indptr[cells], dtype=np.int64),
        seg_id=np.repeat(np.arange(cells.size, dtype=np.int64), deg[cells]),
    )


#: Backend observability sink used when a batched round has no ``obs_cost``
#: (traffic no-ops without subscribers; backends never *charge* any cost).
_NULL_COST = CostModel()


def prelax_arcs_batch(
    costs,
    dist: np.ndarray,
    parent: np.ndarray,
    *,
    plan: RelaxPlan,
    active: np.ndarray | None = None,
    workspace=None,
    backend=None,
    obs_cost: CostModel | None = None,
    label: str = "relax",
    changed_label: str = "converged",
) -> np.ndarray:
    """One ``changed="any"`` relaxation round for S sources at once.

    ``dist``/``parent`` are the (S × V) distance/parent matrices of the
    batched multi-source engine and ``costs`` the per-source cost models;
    row ``r`` advances exactly as ``prelax_arcs(costs[r], dist[r],
    parent[r], ..., plan=plan, changed="any")`` would — bit-identical
    distances, parents, *and charge stream* (same labels, work, depth,
    traffic, committed rounds).  Execution differs only in wall-clock:
    the candidate gather, both segment ``reduceat`` reductions, and the
    payload min run once over the whole active row block
    (:func:`~repro.pram.backends.base.serial_segmin_batch`, or the
    backend's :meth:`~repro.pram.backends.base.ExecutionBackend.relax_segmin_batch`
    when one is attached), instead of once per source.

    ``active`` masks the rows still advancing — converged rows are
    skipped entirely and charge nothing, which is the matrix engine's
    per-source early exit.  Rows whose cost model wants write footprints
    (an attached race detector) always run the per-row in-process kernel,
    exactly like shadowed rounds of :func:`prelax_arcs`.

    ``obs_cost`` is where backend observability traffic (shard sizes,
    worker wall times) is reported; per-row cost models only ever see the
    model-level charge stream, so batched and looped runs stay
    charge-identical.  Returns a length-S bool array: per row, whether
    any cell improved (``False`` for inactive rows).
    """
    n_rows = int(dist.shape[0])
    n_cells = int(dist.shape[1])
    n = int(plan.n_arcs)
    ws = workspace
    obs = obs_cost if obs_cost is not None else _NULL_COST
    if active is None:
        active = np.ones(n_rows, dtype=bool)
    changed_out = np.zeros(n_rows, dtype=bool)

    def take(name, size, dtype):
        if ws is not None:
            return ws.take(name, size, dtype)
        return np.empty(size, dtype=dtype)

    # Shadowed rows declare per-round write footprints, which need the
    # per-arc candidate arrays — route them through the literal per-row
    # kernel (same rule as prelax_arcs: footprint rounds run in process).
    batch_rows = []
    for r in range(n_rows):
        if not active[r]:
            continue
        if costs[r].wants_footprints or n == 0:
            changed_out[r] = prelax_arcs(
                costs[r], dist[r], parent[r], None, None, None,
                plan=plan, workspace=ws, backend=backend, changed="any",
                label=label, changed_label=changed_label,
            )
        else:
            batch_rows.append(r)
    if not batch_rows:
        return changed_out

    rows = np.asarray(batch_rows, dtype=np.int64)
    a = int(rows.size)
    dist_block = take("relaxb.dist", a * n_cells, np.float64).reshape(a, n_cells)
    np.take(dist, rows, axis=0, out=dist_block)
    if backend is not None:
        segmin, winpay = backend.relax_segmin_batch(plan, dist_block, take, cost=obs)
    else:
        _, segmin, winpay, _ = serial_segmin_batch(
            dist_block, plan.tails_s, plan.weights_s, plan.seg_start, plan.seg_id,
            take,
        )
    cells = plan.cells
    k = int(cells.size)
    incumbent = take("relaxb.incumbent", a * k, np.float64).reshape(a, k)
    np.take(dist_block, cells, axis=1, out=incumbent)
    improve = take("relaxb.improve", a * k, bool).reshape(a, k)
    np.less(segmin, incumbent, out=improve)
    relax_work = n * max(1, ceil_log2(n))
    relax_depth = ceil_log2(n) + 2
    relax_reads = n * max(1, ceil_log2(n)) + 2 * n
    any_depth = ceil_log2(n_cells) + 1
    any_reads = 2 * max(n_cells - 1, 0)
    for i in range(a):
        r = int(rows[i])
        imp = improve[i]
        improved_cells = cells[imp]
        dist[r, improved_cells] = segmin[i][imp]
        parent[r, improved_cells] = winpay[i][imp]
        changed_out[r] = bool(improved_cells.size)
        # replay the exact per-source charge stream of prelax_arcs
        cost = costs[r]
        cost.charge(work=relax_work, depth=relax_depth, label=label)
        cost.traffic(label, elements=n, reads=relax_reads, writes=2 * n)
        cost.commit_round(label)
        cost.charge(work=n_cells, depth=1, label=changed_label)
        cost.traffic(
            changed_label, elements=n_cells, reads=2 * n_cells, writes=n_cells
        )
        cost.commit_round(changed_label)
        cost.charge(work=n_cells, depth=any_depth, label=changed_label)
        cost.traffic(
            changed_label, elements=n_cells, reads=any_reads, writes=n_cells
        )
        cost.commit_round(changed_label)
    return changed_out


def _entry_groups(key1: np.ndarray, key2: np.ndarray | None, take):
    """Sort entry rows into contiguous ``(key1[, key2])`` groups.

    Returns ``(order, k1_s, k2_s, seg_start, seg_id)``.  The sort is a
    plain (unstable) argsort on a composite integer key when the key
    range permits — legal because every consumer reduces groups by
    *value* (staged minima), never by position — with a stable two-key
    ``lexsort`` fallback for exotic key ranges.  Scratch arrays come from
    ``take``; the returned ``k1_s``/``k2_s``/``seg_id`` are pooled views.
    """
    n = int(key1.size)
    if key2 is None:
        order = np.argsort(key1)
    else:
        k1max = int(key1.max())
        k1min = int(key1.min())
        k2max = int(key2.max())
        k2min = int(key2.min())
        if k1min >= 0 and k2min >= 0 and (k1max + 1) * (k2max + 1) < 2**62:
            key = take("entrygrp.key", n, np.int64)
            np.multiply(key1, k2max + 1, out=key)
            key += key2
            order = np.argsort(key)
        else:  # pragma: no cover - exotic key ranges
            order = np.lexsort((key2, key1))
    k1_s = take("entrygrp.k1", n, np.int64)
    key1.take(order, out=k1_s)
    first = take("entrygrp.first", n, bool)
    first[0] = True
    np.not_equal(k1_s[1:], k1_s[:-1], out=first[1:])
    k2_s = None
    if key2 is not None:
        k2_s = take("entrygrp.k2", n, np.int64)
        key2.take(order, out=k2_s)
        first[1:] |= k2_s[1:] != k2_s[:-1]
    seg_start = np.flatnonzero(first)
    seg_id = take("entrygrp.seg_id", n, np.int64)
    np.cumsum(first, out=seg_id)
    seg_id -= 1
    return order, k1_s, k2_s, seg_start, seg_id


def _keep_x_per_group(group: np.ndarray, dist: np.ndarray, x: int) -> np.ndarray:
    """Rank rows ``(group, dist, tiebreak)``-lexicographically, keep x per group.

    Precondition: rows already arrive grouped by ``group`` (contiguous
    ascending runs) and sorted by the tiebreak key within each run — the
    dedup stage's output order.  Under that precondition a stable
    ``lexsort((dist, group))`` equals Algorithm 3's three-key second sort
    ``lexsort((tiebreak, dist, group))``: rows tied on ``(group, dist)``
    keep their input order, which *is* tiebreak order, and
    ``(group, tiebreak)`` pairs are unique after dedup.  Returns the row
    indices of the ``rank < x`` survivors in that sorted order — the
    exact selection the second sort performs.

    Execution is sort-free: rank ``r``'s survivor in each run is the
    first remaining row achieving the run minimum (first occurrence =
    lowest tiebreak, matching the stable sort's tie order), extracted by
    ``x`` masked ``reduceat`` rounds.  Extracted rows are masked with
    NaN, which ``fmin.reduceat`` ignores and ``==`` never matches, so
    exhausted runs (all-NaN, minimum NaN) select nothing while runs of
    genuine ``inf`` rows still do.  Survivors land in a ``(run, rank)``
    slot matrix whose row-major order is exactly the sorted order.
    """
    n = int(group.size)
    new_g = np.ones(n, dtype=bool)
    new_g[1:] = group[1:] != group[:-1]
    group_start = np.flatnonzero(new_g)
    group_id = np.cumsum(new_g) - 1
    run_len = np.diff(np.append(group_start, n))
    rounds = min(int(x), int(run_len.max()))
    hit = np.flatnonzero(dist == np.minimum.reduceat(dist, group_start)[group_id])
    gid = group_id[hit]
    first = np.ones(hit.size, dtype=bool)
    first[1:] = gid[1:] != gid[:-1]
    if rounds == 1:
        return hit[first]
    masked = dist.astype(np.float64)  # copies: dist stays intact
    slots = np.full((group_start.size, rounds), -1, dtype=np.int64)
    gmin = np.empty(n, dtype=np.float64)
    for r in range(rounds):
        win = hit[first]
        slots[gid[first], r] = win
        if r + 1 == rounds:
            break
        masked[win] = np.nan
        np.fmin.reduceat(masked, group_start).take(group_id, out=gmin)
        hit = np.flatnonzero(masked == gmin)
        if hit.size == 0:
            break
        gid = group_id[hit]
        first = np.ones(hit.size, dtype=bool)
        first[1:] = gid[1:] != gid[:-1]
    out = slots.ravel()
    return out[out >= 0]


def _sorted_keys(keys, order, take) -> tuple[np.ndarray, ...]:
    """The tie-key columns permuted into group order (pooled views)."""
    out = []
    for i, key in enumerate(keys):
        key_s = take(f"prune.key{i}", order.size, np.int64)
        key.take(order, out=key_s)
        out.append(key_s)
    return tuple(out)


def _entry_segmin(backend, cost, dist_s, keys, seg_start, seg_id, take):
    """Run the grouped staged minimum on ``backend`` (in process if None)."""
    if backend is not None:
        return backend.entry_segmin(dist_s, keys, seg_start, seg_id, take, cost=cost)
    return serial_entry_segmin(dist_s, keys, seg_start, seg_id, take)


def pprune_entries(
    cost: CostModel,
    vert: np.ndarray,
    src: np.ndarray,
    dist: np.ndarray,
    ties: tuple[np.ndarray, ...],
    x: int,
    *,
    workspace=None,
    backend=None,
    label: str = "algo3_sort",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Algorithm 3 entry prune: dedup + keep-x in one grouped pass.

    Dedups entry rows per ``(vert, src)`` keeping the minimum
    ``(dist, *ties)``, then keeps the ``x`` closest sources per vertex
    (ties by source id); with ``x == 1`` the per-vertex prune subsumes
    the dedup and keeps the minimum ``(dist, src, *ties)`` row per
    vertex.  ``ties`` is a tuple of int columns — the hopset build passes
    ``(seed,)``, and a table that records paths appends each row's input
    position, which reproduces a stable sort's tie rule and makes that
    key's output the winning rows.  Returns fresh ``(vert, src, dist,
    ties)`` arrays in the literal program's row order (see
    :func:`repro.pram.reference.crew_prune_entries`), charged as the two
    AKS-rate sorts of Algorithm 3: one ``(n·⌈log n⌉, ⌈log n⌉+1)`` charge
    under ``label`` for ``x == 1``, the doubled two-sort rate otherwise
    (no traffic or footprints: the stream is exactly that one charge).

    Execution replaces the multi-key sorts: the rows are grouped by a
    single-key argsort and each group reduces by staged value minima
    (``minimum.reduceat``) — the per-group staged minimum *is* the
    lexicographic minimum, computed without a stable sort.  The grouped
    reduction runs on the machine's execution ``backend`` (sharded across
    worker processes when eligible, bit-equal either way); scratch comes
    from the optional ``workspace`` pool.
    """
    n = int(vert.size)
    if n == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.zeros(0), tuple(empty_i.copy() for _ in ties)
    ws = workspace

    def take(name, size, dtype):
        if ws is not None:
            return ws.take(name, size, dtype)
        return np.empty(size, dtype=dtype)

    if x == 1:
        # per-vertex lexicographic min of (dist, src, *ties)
        order, v_s, _, seg_start, seg_id = _entry_groups(vert, None, take)
        dist_s = take("prune.dist_s", n, np.float64)
        dist.take(order, out=dist_s)
        keys = _sorted_keys((src, *ties), order, take)
        g_d, mins = _entry_segmin(backend, cost, dist_s, keys, seg_start, seg_id, take)
        out = (
            v_s[seg_start],
            np.array(mins[0]),
            np.array(g_d),
            tuple(np.array(m) for m in mins[1:]),
        )
        cost.charge(
            work=n * max(1, ceil_log2(n)),
            depth=ceil_log2(max(n, 2)) + 1,
            label=label,
        )
        return out
    # dedup per (vert, src) keeping the minimum (dist, *ties)
    order, v_s, s_s, seg_start, seg_id = _entry_groups(vert, src, take)
    dist_s = take("prune.dist_s", n, np.float64)
    dist.take(order, out=dist_s)
    keys = _sorted_keys(ties, order, take)
    g_d, mins = _entry_segmin(backend, cost, dist_s, keys, seg_start, seg_id, take)
    vert_g = v_s[seg_start]
    src_g = s_s[seg_start]
    dist_g = np.array(g_d)
    # keep the x closest sources per vertex (ties by src id: the group
    # rows arrive (vert, src)-sorted, so first-occurrence extraction
    # resolves dist ties in src order, like the stable sort it replaces)
    idx = _keep_x_per_group(vert_g, dist_g, x)
    cost.charge(
        work=2 * n * max(1, ceil_log2(n)),
        depth=2 * (ceil_log2(max(n, 2)) + 1),
        label=label,
    )
    return vert_g[idx], src_g[idx], dist_g[idx], tuple(m[idx] for m in mins)


def paggregate_entries(
    cost: CostModel,
    cl: np.ndarray,
    src: np.ndarray,
    dist: np.ndarray,
    ties: tuple[np.ndarray, ...],
    x: int,
    *,
    workspace=None,
    backend=None,
    label: str = "aggregate",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Per-cluster aggregation: dedup + keep-x of member entries.

    Dedups rows per ``(cluster, src)`` keeping the minimum
    ``(dist, *ties)``, then keeps the ``x`` closest sources per cluster
    (ties by source id), rows ordered ``(cluster, dist, src)``.  The
    hopset build passes ``ties = (member, seed)``, plus each row's input
    position when the table records paths (see :func:`pprune_entries`).
    Returns fresh ``(cl, src, dist, ties)`` arrays in the literal
    program's row order (:func:`repro.pram.reference.crew_aggregate_entries`),
    charged as one doubled AKS-rate charge under ``label`` (no
    traffic/footprints).  Same grouped staged-minimum execution as
    :func:`pprune_entries`.
    """
    n = int(cl.size)
    if n == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.zeros(0), tuple(empty_i.copy() for _ in ties)
    ws = workspace

    def take(name, size, dtype):
        if ws is not None:
            return ws.take(name, size, dtype)
        return np.empty(size, dtype=dtype)

    order, c_s, s_s, seg_start, seg_id = _entry_groups(cl, src, take)
    dist_s = take("prune.dist_s", n, np.float64)
    dist.take(order, out=dist_s)
    keys = _sorted_keys(ties, order, take)
    g_d, mins = _entry_segmin(backend, cost, dist_s, keys, seg_start, seg_id, take)
    cl_g = c_s[seg_start]
    src_g = s_s[seg_start]
    dist_g = np.array(g_d)
    # keep the x closest sources per cluster (ties by src id: the group
    # rows arrive (cl, src)-sorted, so first-occurrence extraction
    # resolves dist ties in src order, like the stable sort it replaces)
    idx = _keep_x_per_group(cl_g, dist_g, x)
    cost.charge(
        work=2 * n * max(1, ceil_log2(n)),
        depth=2 * (ceil_log2(max(n, 2)) + 1),
        label=label,
    )
    return cl_g[idx], src_g[idx], dist_g[idx], tuple(m[idx] for m in mins)


def pselect(cost: CostModel, mask: np.ndarray, label: str = "select") -> np.ndarray:
    """Indices where ``mask`` holds (compaction via prefix sums)."""
    out = np.flatnonzero(mask)
    n = int(mask.size)
    if cost.wants_footprints:
        # the prefix sum assigns each survivor a distinct output slot
        cost.footprint(label, "out", np.arange(out.size), out, rule="exclusive")
    cost.charge(work=n, depth=ceil_log2(max(n, 1)) + 1, label=label)
    cost.traffic(label, elements=n, reads=n, writes=int(out.size))
    cost.commit_round(label)
    return out


def pcompact(
    cost: CostModel, arr: np.ndarray, mask: np.ndarray, label: str = "compact"
) -> np.ndarray:
    """Keep the elements of ``arr`` where ``mask`` holds, preserving order."""
    if arr.shape[0] != mask.shape[0]:
        raise InvalidStepError("pcompact: arr and mask must have equal length")
    out = arr[mask]
    n = int(mask.size)
    if cost.wants_footprints:
        # rows of a 2-D arr are opaque writes (values=None): distinct slots
        # still get exclusivity-checked, values are not COMMON-comparable
        vals = out if out.ndim == 1 else None
        cost.footprint(label, "out", np.arange(out.shape[0]), vals, rule="exclusive")
    cost.charge(work=n, depth=ceil_log2(max(n, 1)) + 1, label=label)
    cost.traffic(label, elements=n, reads=2 * n, writes=int(out.shape[0]))
    cost.commit_round(label)
    return out
