"""Literal CREW reference programs, executed on :class:`CREWMemory`.

These run the paper's model *for real*: every read/write goes through the
staged shared memory with write-conflict detection, and the round counter
is the actual depth.  They exist to validate the vectorized, cost-charged
implementations — the differential harness (:mod:`repro.conformance.diff`)
runs both sides on the same inputs and asserts identical results and
consistent round counts.  They are small and slow by design.

Every public primitive of :class:`~repro.pram.machine.PRAM` has a literal
counterpart here.  Conventions shared by all of them:

* each returns ``(result, rounds)`` where ``rounds`` is the CREW memory's
  committed round count, *including* the initial load round(s) — the
  differential harness knows each primitive's load overhead;
* "processor-local" state (loop indices, a processor's own input flag, the
  grouping of update slots by cell) lives in Python variables, exactly as
  a PRAM processor holds registers; everything shared goes through the
  memory with staged writes and conflict detection;
* combining primitives (``crew_scatter_min``, ``crew_segmented_sum``, …)
  run a literal balanced combine tree over staging cells, so their round
  counts certify the ``ceil(log2(max collision multiplicity))`` depth the
  vectorized versions charge;
* the literal sort is an **odd–even transposition network** (O(n) rounds)
  rather than AKS — same output permutation as any correct stable sort,
  different (practical) network; the harness checks each side against its
  own documented round envelope.
"""

from __future__ import annotations

from typing import Callable

from repro.graphs.csr import Graph
from repro.pram.errors import InvalidStepError
from repro.pram.memory import CREWMemory
from repro.pram.primitives import ceil_log2

__all__ = [
    "crew_map",
    "crew_broadcast",
    "crew_reduce",
    "crew_scatter",
    "crew_scatter_min",
    "crew_scatter_min_arg",
    "crew_select",
    "crew_compact",
    "crew_prefix_sum",
    "crew_prefix_max",
    "crew_segmented_sum",
    "crew_sort",
    "crew_lexsort",
    "crew_prune_entries",
    "crew_aggregate_entries",
    "crew_pointer_jump",
    "crew_list_rank",
    "crew_frontier_gather",
    "crew_relax_arcs",
    "crew_relax_arcs_batch",
    "crew_bellman_ford",
    "crew_sssp",
]


def crew_map(values: list, fn: Callable) -> tuple[list, int]:
    """Elementwise map: each processor reads its own cell, rewrites it."""
    mem = CREWMemory.from_values(values)
    n = len(mem)
    updates = {i: fn(mem.read(i)) for i in range(n)}
    for i, v in updates.items():
        mem.write(i, v)
    mem.end_round()
    return [mem.read(i) for i in range(n)], mem.rounds


def crew_broadcast(value, n: int) -> tuple[list, int]:
    """One writer publishes a cell; n processors concurrently read it."""
    mem = CREWMemory(n + 1)
    mem.write(n, value)
    mem.end_round()
    for i in range(n):
        mem.write(i, mem.read(n))
    mem.end_round()
    return [mem.read(i) for i in range(n)], mem.rounds


_REDUCERS: dict[str, Callable] = {
    "min": min,
    "max": max,
    "sum": lambda a, b: a + b,
    "or": lambda a, b: bool(a) or bool(b),
    "and": lambda a, b: bool(a) and bool(b),
}


def crew_reduce(op: str, values: list) -> tuple[object, int]:
    """Balanced combine tree: round j halves the live prefix."""
    if op not in _REDUCERS:
        raise InvalidStepError(f"unknown reduction op {op!r}")
    if not values:
        raise InvalidStepError("cannot reduce an empty array")
    combine = _REDUCERS[op]
    mem = CREWMemory.from_values(values)
    width = len(mem)
    while width > 1:
        half = (width + 1) // 2
        updates = {}
        for i in range(half):
            j = i + half
            if j < width:
                updates[i] = combine(mem.read(i), mem.read(j))
        for i, v in updates.items():
            mem.write(i, v)
        mem.end_round()
        width = half
    return mem.read(0), mem.rounds


def crew_scatter(
    target: list, idx: list[int], values: list, strict: bool = False
) -> tuple[list, int]:
    """Raw exclusive-write scatter — the literal counterpart of ``pscatter``.

    All updates are staged in **one** round, so ``CREWMemory`` itself
    raises :class:`~repro.pram.errors.WriteConflictError` when two updates
    address one cell with differing values (or, in strict mode, at all) —
    this is the reference behavior the shadow detector mirrors for the
    vectorized machine.
    """
    mem = CREWMemory.from_values(target, strict=strict)
    for j, c in enumerate(idx):
        mem.write(int(c), values[j])
    mem.end_round()
    return [mem.read(i) for i in range(len(target))], mem.rounds


def _crew_scatter_combine(
    target: list, idx: list[int], slot_values: list, combine: Callable
) -> tuple[CREWMemory, int]:
    """Shared skeleton of the combining scatters: a literal combine tree.

    Loads ``target`` and one staging slot per update, then repeatedly
    pairs up each cell's surviving slots (one combine round per level —
    ``ceil(log2(max multiplicity))`` rounds total) and finally merges each
    cell's single survivor into the target with one exclusive write round.
    Returns the memory (target prefix updated) and its round count.
    """
    n, m = len(target), len(idx)
    mem = CREWMemory.from_values(target, extra_cells=m)
    for j in range(m):
        mem.write(n + j, slot_values[j])
    mem.end_round()
    groups: dict[int, list[int]] = {}
    for j, c in enumerate(idx):
        groups.setdefault(int(c), []).append(n + j)
    while any(len(slots) > 1 for slots in groups.values()):
        updates = {}
        for c, slots in groups.items():
            if len(slots) == 1:
                continue
            survivors = []
            for a, b in zip(slots[0::2], slots[1::2]):
                updates[a] = combine(mem.read(a), mem.read(b))
                survivors.append(a)
            if len(slots) % 2:
                survivors.append(slots[-1])
            groups[c] = survivors
        for cell, v in updates.items():
            mem.write(cell, v)
        mem.end_round()
    updates = {
        c: combine(mem.read(c), mem.read(slots[0])) for c, slots in groups.items()
    }
    for c, v in updates.items():
        mem.write(c, v)
    mem.end_round()
    return mem, mem.rounds


def crew_scatter_min(
    target: list, idx: list[int], values: list
) -> tuple[list, int]:
    """Literal combining scatter-min (per-cell balanced min tree)."""
    mem, rounds = _crew_scatter_combine(list(target), idx, list(values), min)
    return [mem.read(i) for i in range(len(target))], rounds


def crew_scatter_min_arg(
    target: list, payload: list, idx: list[int], values: list, value_payload: list
) -> tuple[list, list, int]:
    """Literal scatter-min-arg with the documented deterministic tie rule.

    Slots hold ``(value, payload)`` pairs combined by lexicographic min, so
    among updates tying at the minimum value the **lowest payload index
    wins** — and the incumbent ``(target, payload)`` pair is rewritten only
    on strict value improvement, exactly like the vectorized
    :func:`repro.pram.primitives.scatter_min_arg`.
    """
    n, m = len(target), len(idx)
    pairs = [(values[j], value_payload[j]) for j in range(m)]
    mem = CREWMemory.from_values(
        [(target[i], payload[i]) for i in range(n)], extra_cells=m
    )
    for j in range(m):
        mem.write(n + j, pairs[j])
    mem.end_round()
    groups: dict[int, list[int]] = {}
    for j, c in enumerate(idx):
        groups.setdefault(int(c), []).append(n + j)
    while any(len(slots) > 1 for slots in groups.values()):
        updates = {}
        for c, slots in groups.items():
            if len(slots) == 1:
                continue
            survivors = []
            for a, b in zip(slots[0::2], slots[1::2]):
                updates[a] = min(mem.read(a), mem.read(b))
                survivors.append(a)
            if len(slots) % 2:
                survivors.append(slots[-1])
            groups[c] = survivors
        for cell, v in updates.items():
            mem.write(cell, v)
        mem.end_round()
    updates = {}
    for c, slots in groups.items():
        win_val, win_pay = mem.read(slots[0])
        cur_val, cur_pay = mem.read(c)
        if win_val < cur_val:  # strict improvement only — incumbent keeps ties
            updates[c] = (win_val, win_pay)
    for c, v in updates.items():
        mem.write(c, v)
    mem.end_round()
    out = [mem.read(i) for i in range(n)]
    return [v for v, _ in out], [p for _, p in out], mem.rounds


def _crew_scan(mem: CREWMemory, n: int, combine: Callable) -> None:
    """In-place Hillis–Steele scan over cells ``0..n-1`` of ``mem``."""
    stride = 1
    while stride < n:
        updates = {
            i: combine(mem.read(i - stride), mem.read(i)) for i in range(stride, n)
        }
        for i, val in updates.items():
            mem.write(i, val)
        mem.end_round()
        stride *= 2


def crew_prefix_sum(
    values: list[float], inclusive: bool = True
) -> tuple[list[float], int]:
    """Hillis–Steele scan on a CREW memory.

    One processor per cell; in round j, cell i reads cell i − 2^j (a
    concurrent-read) and adds.  Exclusive scans append one shift round.
    Returns (prefix sums, rounds used).
    """
    n = len(values)
    mem = CREWMemory.from_values(list(values))
    _crew_scan(mem, n, lambda a, b: a + b)
    if not inclusive:
        zero = values[0] * 0 if n else 0
        updates = {i: (mem.read(i - 1) if i else zero) for i in range(n)}
        for i, val in updates.items():
            mem.write(i, val)
        mem.end_round()
    return [mem.read(i) for i in range(n)], mem.rounds


def crew_prefix_max(values: list[float]) -> tuple[list[float], int]:
    """Inclusive prefix maxima via the same scan network."""
    n = len(values)
    mem = CREWMemory.from_values(list(values))
    _crew_scan(mem, n, max)
    return [mem.read(i) for i in range(n)], mem.rounds


def crew_select(mask: list) -> tuple[list[int], int]:
    """Indices where ``mask`` holds: scan the flags, scatter the survivors.

    The prefix sum assigns each flagged processor a distinct output slot,
    so the final scatter round is exclusive by construction.
    """
    n = len(mask)
    mem = CREWMemory.from_values([1 if m else 0 for m in mask], extra_cells=n)
    _crew_scan(mem, n, lambda a, b: a + b)
    count = mem.read(n - 1) if n else 0
    for i in range(n):
        if mask[i]:
            mem.write(n + mem.read(i) - 1, i)
    if n:
        mem.end_round()
    return [mem.read(n + j) for j in range(count)], mem.rounds


def crew_compact(values: list, mask: list) -> tuple[list, int]:
    """Order-preserving compaction of ``values`` by ``mask``."""
    if len(values) != len(mask):
        raise InvalidStepError("crew_compact: values and mask must have equal length")
    kept, rounds = crew_select(mask)
    return [values[i] for i in kept], rounds


def crew_segmented_sum(
    values: list, segment_ids: list[int], num_segments: int
) -> tuple[list, int]:
    """Per-segment sums via a literal combining scatter-add tree."""
    if len(values) != len(segment_ids):
        raise InvalidStepError("crew_segmented_sum: values and segment_ids must match")
    zero = values[0] * 0 if values else 0
    mem, rounds = _crew_scatter_combine(
        [zero] * num_segments, segment_ids, list(values), lambda a, b: a + b
    )
    return [mem.read(i) for i in range(num_segments)], rounds


def _odd_even_sort(keys: list) -> tuple[list[int], int]:
    """Stable argsort via an odd–even transposition network (O(n) rounds)."""
    n = len(keys)
    if n == 0:
        return [], 0
    mem = CREWMemory.from_values([(keys[i], i) for i in range(n)])
    for rnd in range(n):
        updates = {}
        for i in range(rnd % 2, n - 1, 2):
            a, b = mem.read(i), mem.read(i + 1)
            if b < a:
                updates[i], updates[i + 1] = b, a
        for c, v in updates.items():
            mem.write(c, v)
        mem.end_round()
    return [mem.read(i)[1] for i in range(n)], mem.rounds


def crew_sort(keys: list) -> tuple[list[int], int]:
    """Stable argsort of ``keys``; pairing with the index makes the
    comparison network's output the unique stable permutation."""
    return _odd_even_sort(list(keys))


def crew_lexsort(keys: tuple) -> tuple[list[int], int]:
    """Stable lexicographic argsort; last key primary (NumPy convention)."""
    if not keys:
        raise InvalidStepError("crew_lexsort needs at least one key array")
    n = len(keys[0])
    for k in keys:
        if len(k) != n:
            raise InvalidStepError("crew_lexsort: key arrays must have equal length")
    composite = [tuple(keys[j][i] for j in reversed(range(len(keys)))) for i in range(n)]
    return _odd_even_sort(composite)


def _crew_first_flags(rows: list, same: Callable) -> tuple[list[int], int]:
    """First-of-group flags on a CREW memory (rows pre-sorted by group).

    Each row processor reads its own cell and its left neighbor's (the
    concurrent read is CREW-legal — the right neighbor reads the same
    cell) and writes its flag into its own output cell; one load round,
    one flag round.
    """
    n = len(rows)
    mem = CREWMemory.from_values(rows, extra_cells=n)
    updates = {}
    for i in range(n):
        updates[n + i] = 1 if i == 0 or not same(mem.read(i - 1), mem.read(i)) else 0
    for c, v in updates.items():
        mem.write(c, v)
    mem.end_round()
    return [mem.read(n + i) for i in range(n)], mem.rounds


def _crew_rank_select(group_flags: list[int], x: int) -> tuple[list[int], int]:
    """Indices whose within-group rank is below ``x``, literally.

    ``group_flags`` marks each group's first row (rows pre-sorted by
    group).  An inclusive scan turns the flags into 1-based group ids;
    each row processor then derives its rank from its own scan cell and
    its group's start position (processor-local bookkeeping, as the
    module conventions allow) and the scan-based :func:`crew_select`
    compacts the survivors.
    """
    gids, r1 = crew_prefix_sum(group_flags)
    start: dict[int, int] = {}
    for i, g in enumerate(gids):
        start.setdefault(int(g), i)
    keep = [1 if i - start[int(g)] < x else 0 for i, g in enumerate(gids)]
    kept, r2 = crew_select(keep)
    return kept, r1 + r2


def crew_prune_entries(
    vert: list[int], src: list[int], dist: list[float], seed: list[int], x: int
) -> tuple[tuple[list, list, list, list], list[int], int]:
    """Literal Algorithm-3 entry prune — counterpart of ``pprune_entries``.

    Runs the sort semantics on the literal machine: for ``x == 1`` one
    network sort by ``(vert, dist, src, seed)`` and a first-per-vertex
    compaction; for ``x > 1`` a dedup sort by ``(vert, src, dist, seed)``,
    a first-per-(vertex, source) compaction, a second network sort by
    ``(vert, dist, src)`` and the scan-based rank-below-``x`` selection.
    The sorts are odd–even transposition networks, so the round count
    carries their O(n) envelope.  The networks are stable, so every kept
    row also names one input position: the first row, in input order, of
    those tied on every key.  Returns ``((vert, src, dist, seed),
    positions, rounds)`` — the same rows, in the same order, as the
    vectorized kernel, and the positions it reports when handed the row
    position as its last tie key.
    """
    n = len(vert)
    if n == 0:
        return ([], [], [], []), [], 0
    if x == 1:
        order, r1 = crew_lexsort((seed, src, dist, vert))
        rows = [(vert[i], src[i], dist[i], seed[i], i) for i in order]
        flags, r2 = _crew_first_flags(rows, lambda a, b: a[0] == b[0])
        kept, r3 = crew_select(flags)
        out = [rows[i] for i in kept]
        v, s, d, z, pos = (list(col) for col in zip(*out))
        return (v, s, d, z), pos, r1 + r2 + r3
    order, r1 = crew_lexsort((seed, dist, src, vert))
    rows = [(vert[i], src[i], dist[i], seed[i], i) for i in order]
    flags, r2 = _crew_first_flags(
        rows, lambda a, b: a[0] == b[0] and a[1] == b[1]
    )
    kept, r3 = crew_select(flags)
    rows = [rows[i] for i in kept]
    order2, r4 = crew_lexsort(
        ([r[1] for r in rows], [r[2] for r in rows], [r[0] for r in rows])
    )
    rows = [rows[i] for i in order2]
    flags2, r5 = _crew_first_flags(rows, lambda a, b: a[0] == b[0])
    kept2, r6 = _crew_rank_select(flags2, x)
    out = [rows[i] for i in kept2]
    v, s, d, z, pos = (list(col) for col in zip(*out))
    return (v, s, d, z), pos, r1 + r2 + r3 + r4 + r5 + r6


def crew_aggregate_entries(
    cl: list[int],
    src: list[int],
    dist: list[float],
    member: list[int],
    seed: list[int],
    x: int,
) -> tuple[tuple[list, list, list, list, list], list[int], int]:
    """Literal per-cluster aggregation — counterpart of ``paggregate_entries``.

    The sort semantics on the literal machine: a dedup network sort by
    ``(cl, src, dist, member, seed)``, a first-per-(cluster, source)
    compaction, a second network sort by ``(cl, dist, src)`` and the
    scan-based rank-below-``x`` selection.  Returns ``((cl, src, dist,
    member, seed), positions, rounds)``, the positions being the kept
    rows' input positions (well defined: the networks are stable).
    """
    n = len(cl)
    if n == 0:
        return ([], [], [], [], []), [], 0
    order, r1 = crew_lexsort((seed, member, dist, src, cl))
    rows = [(cl[i], src[i], dist[i], member[i], seed[i], i) for i in order]
    flags, r2 = _crew_first_flags(
        rows, lambda a, b: a[0] == b[0] and a[1] == b[1]
    )
    kept, r3 = crew_select(flags)
    rows = [rows[i] for i in kept]
    order2, r4 = crew_lexsort(
        ([r[1] for r in rows], [r[2] for r in rows], [r[0] for r in rows])
    )
    rows = [rows[i] for i in order2]
    flags2, r5 = _crew_first_flags(rows, lambda a, b: a[0] == b[0])
    kept2, r6 = _crew_rank_select(flags2, x)
    out = [rows[i] for i in kept2]
    c, s, d, m, z, pos = (list(col) for col in zip(*out))
    return (c, s, d, m, z), pos, r1 + r2 + r3 + r4 + r5 + r6


def crew_pointer_jump(parent: list[int], weight: list[float]) -> tuple[list[int], list[float], int]:
    """Section 4.2's pointer jumping, literally on a CREW memory.

    Cells 0..n-1 hold q(v); cells n..2n-1 hold d'(v).  Each round every
    processor concurrently reads its target's cells (legal on CREW) and
    rewrites its own (exclusive).  Returns (roots, distances, rounds).
    """
    n = len(parent)
    mem = CREWMemory(2 * n)
    for v in range(n):
        mem.write(v, int(parent[v]))
        mem.write(n + v, 0.0 if parent[v] == v else float(weight[v]))
    mem.end_round()
    for _ in range(ceil_log2(max(n, 2)) + 1):
        updates = {}
        for v in range(n):
            q = mem.read(v)
            updates[v] = (mem.read(q), mem.read(n + v) + mem.read(n + q))
        for v, (q2, d2) in updates.items():
            mem.write(v, q2)
        mem.end_round()
        for v, (q2, d2) in updates.items():
            mem.write(n + v, d2)
        mem.end_round()
    roots = [mem.read(v) for v in range(n)]
    dists = [mem.read(n + v) for v in range(n)]
    return roots, dists, mem.rounds


def crew_list_rank(nxt: list[int]) -> tuple[list[int], int]:
    """Link-distance to each list's tail, via literal pointer jumping."""
    _, dists, rounds = crew_pointer_jump(list(nxt), [1.0] * len(nxt))
    return [int(d) for d in dists], rounds


def crew_frontier_gather(
    indptr: list[int], frontier: list[int]
) -> tuple[tuple[list[int], list[int]], int]:
    """Literal CSR frontier gather — the counterpart of ``pgather_csr``.

    Round schedule: one load round commits the frontier degrees (each slot
    processor reads its vertex's two row pointers from the read-only CSR
    input, exactly like the relaxation programs read the graph directly);
    a Hillis–Steele scan assigns every slot a contiguous output run; then
    one processor per output arc reads its run start (a concurrent read of
    the scan cell) and exclusively writes its ``(slot, arc)`` pair into its
    own two output cells.  The per-arc slot assignment is processor-local
    bookkeeping, as the module conventions allow.  Returns
    ``((slots, arcs), rounds)``.
    """
    f = len(frontier)
    n = len(indptr) - 1
    for v in frontier:
        if not 0 <= v < n:
            raise InvalidStepError("crew_frontier_gather: frontier vertex out of range")
    deg = [int(indptr[v + 1]) - int(indptr[v]) for v in frontier]
    total = sum(deg)
    mem = CREWMemory.from_values(deg, extra_cells=2 * total)
    if f == 0:
        return ([], []), mem.rounds
    _crew_scan(mem, f, lambda a, b: a + b)
    updates = {}
    j = 0
    for s in range(f):
        run_start = mem.read(s - 1) if s else 0
        assert run_start == j  # the scan's slot assignment is exactly j
        for off in range(deg[s]):
            updates[f + 2 * j] = s
            updates[f + 2 * j + 1] = int(indptr[frontier[s]]) + off
            j += 1
    for c, v in updates.items():
        mem.write(c, v)
    mem.end_round()
    slots = [mem.read(f + 2 * k) for k in range(total)]
    arcs = [mem.read(f + 2 * k + 1) for k in range(total)]
    return (slots, arcs), mem.rounds


def crew_relax_arcs(
    dist: list[float],
    parent: list[int],
    tails: list[int],
    heads: list[int],
    weights: list[float],
) -> tuple[list[float], list[int], list[int], int]:
    """Literal fused relaxation round — the counterpart of ``prelax_arcs``.

    Round schedule: one **load** round where each arc processor reads its
    tail's distance (concurrent reads of popular tails are CREW-legal) and
    writes ``(dist[tail] + w, tail)`` into its own staging slot; a literal
    balanced **combine tree** per head cell over the staged pairs under
    lexicographic min (so equal-value ties resolve to the lowest tail,
    exactly the vectorized tie rule); one **merge** round writing each
    cell's surviving pair on strict improvement only; one **flag** round
    where each vertex processor compares its cell against the value it
    remembered before the merge (a processor-local register, as the module
    conventions allow) and writes its changed flag — the load round of the
    second memory, on which the literal scan-based :func:`crew_select`
    compacts the flags into the changed-vertex list.  Returns
    ``(dist', parent', changed, rounds)`` with ``rounds`` summed over both
    memories.
    """
    n, m = len(dist), len(tails)
    mem = CREWMemory.from_values(
        [(dist[i], parent[i]) for i in range(n)], extra_cells=m
    )
    old = [mem.read(v)[0] for v in range(n)]  # per-processor registers
    if m:
        updates = {}
        for j in range(m):
            d, _ = mem.read(int(tails[j]))
            updates[n + j] = (d + float(weights[j]), int(tails[j]))
        for c, v in updates.items():
            mem.write(c, v)
        mem.end_round()
        groups: dict[int, list[int]] = {}
        for j, c in enumerate(heads):
            groups.setdefault(int(c), []).append(n + j)
        while any(len(slots) > 1 for slots in groups.values()):
            updates = {}
            for c, slots in groups.items():
                if len(slots) == 1:
                    continue
                survivors = []
                for a, b in zip(slots[0::2], slots[1::2]):
                    updates[a] = min(mem.read(a), mem.read(b))
                    survivors.append(a)
                if len(slots) % 2:
                    survivors.append(slots[-1])
                groups[c] = survivors
            for cell, v in updates.items():
                mem.write(cell, v)
            mem.end_round()
        updates = {}
        for c, slots in groups.items():
            win_val, win_pay = mem.read(slots[0])
            cur_val, _ = mem.read(c)
            if win_val < cur_val:  # strict improvement only
                updates[c] = (win_val, win_pay)
        for c, v in updates.items():
            mem.write(c, v)
        mem.end_round()
    flags = []
    for v in range(n):
        flags.append(1 if mem.read(v)[0] != old[v] else 0)
    changed, sel_rounds = crew_select(flags)
    out = [mem.read(v) for v in range(n)]
    return (
        [d for d, _ in out],
        [p for _, p in out],
        changed,
        mem.rounds + sel_rounds,
    )


def crew_relax_arcs_batch(
    dist_rows: list[list[float]],
    parent_rows: list[list[int]],
    tails: list[int],
    heads: list[int],
    weights: list[float],
) -> tuple[list[list[float]], list[list[int]], list[bool], int]:
    """Literal batched relaxation round — counterpart of ``prelax_arcs_batch``.

    The S×V matrix round is, on the model, S independent copies of the
    :func:`crew_relax_arcs` program running side by side on disjoint
    memories (one per source row) against the shared read-only arc list —
    no cell is ever shared between rows, so the parallel composition is
    trivially CREW-legal and its round count is the *maximum* over rows
    (all row machines advance in lockstep; each row's schedule is
    identical, so the max is also every row's own count).  Returns
    ``(dist_rows', parent_rows', changed_any, rounds)`` where
    ``changed_any[r]`` is row r's OR-reduced changed flag — the
    ``changed="any"`` result the batched kernel reports per source.
    """
    out_dist: list[list[float]] = []
    out_parent: list[list[int]] = []
    changed_any: list[bool] = []
    rounds = 0
    for dist, parent in zip(dist_rows, parent_rows):
        d, p, changed, r = crew_relax_arcs(dist, parent, tails, heads, weights)
        out_dist.append(d)
        out_parent.append(p)
        changed_any.append(bool(changed))
        rounds = max(rounds, r)
    return out_dist, out_parent, changed_any, rounds


def crew_bellman_ford(graph: Graph, source: int, hops: int) -> tuple[list[float], int]:
    """Hop-limited Bellman–Ford with explicit CREW round discipline.

    Per relaxation round, each vertex processor serially reads its
    neighbors' distances (concurrent reads of popular cells are fine) and
    exclusively rewrites its own cell — the paper's read-on-even /
    write-on-odd pattern.  Returns (distances, rounds used).
    """
    inf = float("inf")
    n = graph.n
    mem = CREWMemory(n)
    for v in range(n):
        mem.write(v, 0.0 if v == source else inf)
    mem.end_round()
    for _ in range(hops):
        updates = {}
        for v in range(n):
            best = mem.read(v)
            nbrs, ws = graph.neighbors(v)
            for t, w in zip(nbrs, ws):
                cand = mem.read(int(t)) + float(w)
                if cand < best:
                    best = cand
            updates[v] = best
        changed = False
        for v, val in updates.items():
            if val != mem.read(v):
                mem.write(v, val)
                changed = True
        mem.end_round()
        if not changed:
            break
    return [mem.read(v) for v in range(n)], mem.rounds


def crew_sssp(graph: Graph, source: int) -> tuple[list[float], int]:
    """Exact reference SSSP on the literal CREW machine — no Dijkstra.

    ``n − 1`` rounds of Bellman–Ford relaxation (with early exit) suffice
    for exact distances on non-negative weights, so this needs nothing
    beyond the round-disciplined relaxation above.  It is the ground truth
    the differential harness compares the vectorized hopset-free
    exploration against.
    """
    return crew_bellman_ford(graph, source, max(graph.n - 1, 1))
