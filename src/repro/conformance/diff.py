"""The differential executor: vectorized primitives vs literal CREW.

Every public primitive of the :class:`~repro.pram.machine.PRAM` machine is
run twice on the same inputs — once vectorized (under a
:class:`~repro.conformance.shadow.ShadowCREW` race detector) and once as a
literal program on the staged :class:`~repro.pram.memory.CREWMemory` — and
the harness asserts:

* **bit-exact outputs** (value inputs are integer-valued doubles, so even
  re-associated float sums are exact);
* **consistent round counts**: each side stays within its documented depth
  envelope, and the envelopes are tied to each other where the networks
  match (the literal side pays explicit load rounds; the literal sort is
  an odd–even transposition network, so it has its own O(n) envelope);
* **zero race findings** from the shadow detector.

The adversarial input family per primitive: ``empty``, ``singleton``,
``duplicate-index`` (every update colliding on a few cells), ``all-ties``
(equal keys everywhere — the COMMON-rule stress case), and
``adversarial-stride`` (strided collisions with descending values), plus a
seeded ``random`` case.  No test-time randomness: the seed is an input.

:func:`run_graph_conformance` lifts the same discipline to whole
executions on the E-family smoke graphs: hopset-free SSSP is diffed
against the literal :func:`~repro.pram.reference.crew_sssp` bit-exactly,
and a full hopset construction runs under the shadow detector as a
race scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.generators import (
    erdos_renyi,
    grid_graph,
    layered_hop_graph,
    path_graph,
    preferential_attachment,
    random_geometric,
    wide_weight_graph,
)
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram import pointer_jumping, primitives, reference, scan, sort
from repro.pram.cost import CostModel
from repro.pram.errors import InvalidStepError, WriteConflictError
from repro.pram.machine import PRAM
from repro.pram.primitives import ceil_log2
from repro.pram.workspace import Workspace
from repro.sssp.bellman_ford import bellman_ford

from repro.conformance.shadow import ShadowCREW

__all__ = [
    "DiffOutcome",
    "GraphOutcome",
    "PRIMITIVE_CASES",
    "SMOKE_FAMILIES",
    "run_primitive_diffs",
    "diff_sssp",
    "run_graph_conformance",
]

#: The adversarial input family every primitive is diffed across.
PRIMITIVE_CASES = (
    "empty",
    "singleton",
    "duplicate-index",
    "all-ties",
    "adversarial-stride",
    "random",
)

_N = 24  # default per-case input size (kept small: the literal side is slow)


@dataclass(frozen=True)
class DiffOutcome:
    """One (primitive, input-case) differential run."""

    primitive: str
    case: str
    n: int
    outputs_equal: bool
    rounds_ok: bool
    races: int
    vec_depth: int
    lit_rounds: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outputs_equal and self.rounds_ok and self.races == 0


@dataclass(frozen=True)
class GraphOutcome:
    """One E-family smoke graph swept by the conformance harness."""

    family: str
    n: int
    m: int
    dist_equal: bool
    rounds_ok: bool
    races: int
    vec_rounds: int
    lit_rounds: int

    @property
    def ok(self) -> bool:
        return self.dist_equal and self.rounds_ok and self.races == 0


# -- input construction ------------------------------------------------------


def _values(case: str, seed: int, n: int = _N) -> np.ndarray:
    """Integer-valued doubles per case (exact under any summation order)."""
    rng = np.random.default_rng(seed)
    if case == "empty":
        return np.zeros(0)
    if case == "singleton":
        return np.asarray([5.0])
    if case == "all-ties":
        return np.full(n, 3.0)
    if case == "duplicate-index":
        # few distinct values, heavily repeated
        return rng.integers(0, 3, size=n).astype(np.float64)
    if case == "adversarial-stride":
        return np.asarray([float(n - ((7 * i) % n)) for i in range(n)])
    return rng.integers(-50, 50, size=n).astype(np.float64)


def _scatter_inputs(
    case: str, seed: int, size: int = 8, m: int = _N
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target, idx, values) per case; idx patterns drive the collisions."""
    rng = np.random.default_rng(seed)
    target = np.full(size, 100.0)
    if case == "empty":
        return target, np.zeros(0, dtype=np.int64), np.zeros(0)
    if case == "singleton":
        return target, np.asarray([2], dtype=np.int64), np.asarray([7.0])
    if case == "duplicate-index":
        idx = np.full(m, 3, dtype=np.int64)
        vals = rng.integers(0, 40, size=m).astype(np.float64)
        return target, idx, vals
    if case == "all-ties":
        idx = np.asarray([i % 3 for i in range(m)], dtype=np.int64)
        return target, idx, np.full(m, 9.0)
    if case == "adversarial-stride":
        idx = np.asarray([(5 * i) % size for i in range(m)], dtype=np.int64)
        vals = np.asarray([float(m - i) for i in range(m)])
        return target, idx, vals
    idx = rng.integers(0, size, size=m).astype(np.int64)
    vals = rng.integers(0, 60, size=m).astype(np.float64)
    return target, idx, vals


def _parent_forest(case: str, seed: int, n: int = _N) -> np.ndarray:
    """Acyclic parent arrays (parent[v] <= v) per case."""
    rng = np.random.default_rng(seed)
    if case == "empty":
        return np.zeros(0, dtype=np.int64)
    if case == "singleton":
        return np.zeros(1, dtype=np.int64)
    if case == "duplicate-index":  # star: everyone points at the root
        return np.zeros(n, dtype=np.int64)
    if case == "all-ties":  # path: maximal pointer-jumping depth
        return np.maximum(np.arange(n) - 1, 0).astype(np.int64)
    if case == "adversarial-stride":
        return np.asarray([max(v - 3, 0) for v in range(n)], dtype=np.int64)
    return np.asarray(
        [int(rng.integers(0, v + 1)) for v in range(n)], dtype=np.int64
    )


# -- the harness -------------------------------------------------------------


def _shadowed_run(fn: Callable[[CostModel], object], strict: bool):
    """Run ``fn`` on a fresh cost model under a shadow detector."""
    cost = CostModel()
    shadow = ShadowCREW.attach(cost, strict=strict)
    try:
        out = fn(cost)
    finally:
        shadow.detach(cost)
    return out, cost, shadow


def _outcome(
    primitive: str,
    case: str,
    n: int,
    equal: bool,
    cost: CostModel,
    shadow: ShadowCREW,
    lit_rounds: int,
    rounds_ok: bool,
    detail: str = "",
) -> DiffOutcome:
    return DiffOutcome(
        primitive=primitive,
        case=case,
        n=n,
        outputs_equal=bool(equal),
        rounds_ok=bool(rounds_ok),
        races=len(shadow.findings),
        vec_depth=cost.depth,
        lit_rounds=lit_rounds,
        detail=detail or ("" if equal else "outputs differ"),
    )


def _diff_map(case, seed, strict):
    arr = _values(case, seed)
    fn = lambda a: 2 * a + 1  # noqa: E731
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.elementwise(c, fn, arr), strict
    )
    lit, rounds = reference.crew_map(arr.tolist(), lambda x: 2 * x + 1)
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("map", case, arr.size, equal, cost, shadow, rounds,
                    cost.depth == 1 and rounds <= 2)


def _diff_reduce(case, seed, strict):
    arr = _values(case, seed)
    if case == "empty":
        vec_raises = lit_raises = False
        try:
            primitives.preduce(CostModel(), "min", arr)
        except InvalidStepError:
            vec_raises = True
        try:
            reference.crew_reduce("min", arr.tolist())
        except InvalidStepError:
            lit_raises = True
        cost = CostModel()
        return _outcome("reduce", case, 0, vec_raises and lit_raises, cost,
                        ShadowCREW(), 0, True, "both reject empty input")
    op = "sum" if case == "random" else "min"
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.preduce(c, op, arr), strict
    )
    lit, rounds = reference.crew_reduce(op, arr.tolist())
    bound = ceil_log2(arr.size) + 1
    return _outcome("reduce", case, arr.size, out == lit, cost, shadow, rounds,
                    cost.depth == bound and rounds <= bound)


def _diff_broadcast(case, seed, strict):
    n = {"empty": 0, "singleton": 1}.get(case, _N)
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.pbroadcast(c, 4.0, n), strict
    )
    lit, rounds = reference.crew_broadcast(4.0, n)
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("broadcast", case, n, equal, cost, shadow, rounds,
                    cost.depth == 1 and rounds == 2)


def _diff_scatter(case, seed, strict):
    target, idx, vals = _scatter_inputs(case, seed)
    if case in ("duplicate-index", "adversarial-stride", "random"):
        # exclusive scatter is only CREW-legal on conflict-free updates:
        # deduplicate (keep the first update per cell, like a routed permute)
        _, keep = np.unique(idx, return_index=True)
        idx, vals = idx[np.sort(keep)], vals[np.sort(keep)]
    if case == "all-ties" and strict:
        # equal double writes: COMMON-legal, but strict must reject on BOTH
        # sides — rejection parity is the differential here
        lit_raised = False
        try:
            reference.crew_scatter(
                target.tolist(), idx.tolist(), vals.tolist(), strict=True
            )
        except WriteConflictError:
            lit_raised = True
        out, cost, shadow = _shadowed_run(
            lambda c: primitives.pscatter(c, target.copy(), idx, vals), True
        )
        flagged = any(f.kind == "strict-double-write" for f in shadow.findings)
        unexpected = sum(
            1 for f in shadow.findings if f.kind != "strict-double-write"
        )
        return DiffOutcome(
            primitive="scatter", case=case, n=int(idx.size),
            outputs_equal=lit_raised and flagged, rounds_ok=cost.depth == 1,
            races=unexpected, vec_depth=cost.depth, lit_rounds=0,
            detail="strict: equal double-write rejected on both sides",
        )
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.pscatter(c, target.copy(), idx, vals), strict
    )
    lit, rounds = reference.crew_scatter(
        target.tolist(), idx.tolist(), vals.tolist(), strict=strict
    )
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("scatter", case, idx.size, equal, cost, shadow, rounds,
                    cost.depth == 1 and rounds == 2)


def _diff_scatter_min(case, seed, strict):
    target, idx, vals = _scatter_inputs(case, seed)
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.scatter_min(c, target.copy(), idx, vals), strict
    )
    lit, rounds = reference.crew_scatter_min(
        target.tolist(), idx.tolist(), vals.tolist()
    )
    equal = np.array_equal(out, np.asarray(lit))
    # literal pays 2 load rounds; its combine tree height <= the charge
    return _outcome("scatter_min", case, idx.size, equal, cost, shadow, rounds,
                    rounds <= cost.depth + 2)


def _diff_scatter_min_arg(case, seed, strict):
    target, idx, vals = _scatter_inputs(case, seed)
    payload = np.full(target.size, -1, dtype=np.int64)
    pay_vals = np.arange(idx.size, dtype=np.int64)[::-1].copy()
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.scatter_min_arg(
            c, target.copy(), payload.copy(), idx, vals, pay_vals
        ),
        strict,
    )
    lit_t, lit_p, rounds = reference.crew_scatter_min_arg(
        target.tolist(), payload.tolist(), idx.tolist(), vals.tolist(),
        pay_vals.tolist(),
    )
    equal = np.array_equal(out[0], np.asarray(lit_t)) and np.array_equal(
        out[1], np.asarray(lit_p)
    )
    return _outcome("scatter_min_arg", case, idx.size, equal, cost, shadow,
                    rounds, rounds <= cost.depth + 2)


def _mask_for(case, seed):
    vals = _values(case, seed)
    if case == "all-ties":
        return np.ones(vals.size, dtype=bool)
    return vals > np.median(vals) if vals.size else np.zeros(0, dtype=bool)


def _diff_select(case, seed, strict):
    mask = _mask_for(case, seed)
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.pselect(c, mask), strict
    )
    lit, rounds = reference.crew_select(mask.tolist())
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("select", case, mask.size, equal, cost, shadow, rounds,
                    rounds <= cost.depth + 1)


def _diff_compact(case, seed, strict):
    mask = _mask_for(case, seed)
    arr = _values(case, seed + 1)[: mask.size]
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.pcompact(c, arr, mask), strict
    )
    lit, rounds = reference.crew_compact(arr.tolist(), mask.tolist())
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("compact", case, mask.size, equal, cost, shadow, rounds,
                    rounds <= cost.depth + 1)


def _diff_prefix_sum(case, seed, strict, inclusive=True):
    arr = _values(case, seed)
    out, cost, shadow = _shadowed_run(
        lambda c: scan.prefix_sum(c, arr, inclusive=inclusive), strict
    )
    lit, rounds = reference.crew_prefix_sum(arr.tolist(), inclusive=inclusive)
    equal = np.array_equal(out, np.asarray(lit))
    name = "prefix_sum" if inclusive else "prefix_sum_excl"
    return _outcome(name, case, arr.size, equal, cost, shadow, rounds,
                    rounds <= cost.depth + 1)


def _diff_prefix_sum_excl(case, seed, strict):
    return _diff_prefix_sum(case, seed, strict, inclusive=False)


def _diff_prefix_max(case, seed, strict):
    arr = _values(case, seed)
    out, cost, shadow = _shadowed_run(lambda c: scan.prefix_max(c, arr), strict)
    lit, rounds = reference.crew_prefix_max(arr.tolist())
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("prefix_max", case, arr.size, equal, cost, shadow, rounds,
                    rounds <= cost.depth + 1)


def _diff_segmented_sum(case, seed, strict):
    _, idx, vals = _scatter_inputs(case, seed)
    k = 8
    out, cost, shadow = _shadowed_run(
        lambda c: scan.segmented_sum(c, vals, idx, k), strict
    )
    lit, rounds = reference.crew_segmented_sum(vals.tolist(), idx.tolist(), k)
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("segmented_sum", case, idx.size, equal, cost, shadow,
                    rounds, rounds <= cost.depth + 2)


def _diff_sort(case, seed, strict):
    arr = _values(case, seed)
    out, cost, shadow = _shadowed_run(lambda c: sort.parallel_sort(c, arr), strict)
    lit, rounds = reference.crew_sort(arr.tolist())
    equal = np.array_equal(out, np.asarray(lit))
    # the literal network is odd-even transposition: its own O(n) envelope
    return _outcome("sort", case, arr.size, equal, cost, shadow, rounds,
                    rounds <= arr.size + 1,
                    detail="literal = odd-even network" if equal else "")


def _diff_lexsort(case, seed, strict):
    a = _values(case, seed)
    b = _values(case, seed + 1)[: a.size]
    out, cost, shadow = _shadowed_run(
        lambda c: sort.parallel_lexsort(c, (a, b)), strict
    )
    lit, rounds = reference.crew_lexsort((a.tolist(), b.tolist()))
    equal = np.array_equal(out, np.asarray(lit))
    return _outcome("lexsort", case, a.size, equal, cost, shadow, rounds,
                    rounds <= a.size + 1,
                    detail="literal = odd-even network" if equal else "")


def _gather_inputs(case: str, seed: int, n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, frontier) per case; degree/frontier patterns drive the runs.

    ``duplicate-index`` repeats one vertex in every frontier slot (legal —
    the hopset tables gather one vertex once per entry), ``all-ties`` puts
    every vertex on the frontier with equal degrees, ``adversarial-stride``
    mixes zero-degree vertices with a strided frontier.
    """
    rng = np.random.default_rng(seed)
    if case == "empty":
        deg = np.asarray([2, 0, 3, 1], dtype=np.int64)
        frontier = np.zeros(0, dtype=np.int64)
    elif case == "singleton":
        deg = np.asarray([3], dtype=np.int64)
        frontier = np.asarray([0], dtype=np.int64)
    elif case == "duplicate-index":
        deg = rng.integers(0, 4, size=n).astype(np.int64)
        frontier = np.full(_N, n // 2, dtype=np.int64)
    elif case == "all-ties":
        deg = np.full(n, 3, dtype=np.int64)
        frontier = np.arange(n, dtype=np.int64)
    elif case == "adversarial-stride":
        deg = np.asarray([(7 * i) % 4 for i in range(n)], dtype=np.int64)
        frontier = np.asarray([(5 * i) % n for i in range(_N)], dtype=np.int64)
    else:
        deg = rng.integers(0, 5, size=n).astype(np.int64)
        frontier = rng.integers(0, n, size=_N).astype(np.int64)
    indptr = np.zeros(deg.size + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return indptr, frontier


def _diff_gather_csr(case, seed, strict):
    indptr, frontier = _gather_inputs(case, seed)
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.pgather_csr(c, indptr, frontier), strict
    )
    (lit_slots, lit_arcs), rounds = reference.crew_frontier_gather(
        indptr.tolist(), frontier.tolist()
    )
    equal = np.array_equal(out[0], np.asarray(lit_slots)) and np.array_equal(
        out[1], np.asarray(lit_arcs)
    )
    # literal pays one load round on top of the scan + write schedule
    return _outcome("gather_csr", case, frontier.size, equal, cost, shadow,
                    rounds, rounds <= cost.depth + 1)


def _relax_inputs(
    case: str, seed: int, size: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(dist, parent, tails, heads, weights) per case.

    Heads reuse the scatter collision patterns (the combining-min stress
    cases); tails come from an independent draw of the same pattern, and
    weights are folded small so a real mix of improving / stale / tied
    candidates hits every cell.
    """
    _, heads, vals = _scatter_inputs(case, seed)
    _, tails, _ = _scatter_inputs(case, seed + 1)
    dist = np.asarray([float((13 * i) % 23) for i in range(size)])
    parent = np.full(size, -1, dtype=np.int64)
    weights = np.mod(vals, 7.0)
    return dist, parent, tails, heads, weights


def _diff_relax_arcs(case, seed, strict):
    dist, parent, tails, heads, weights = _relax_inputs(case, seed)
    ws = Workspace(poison=True)  # poisoned pool: stale reuse would surface
    plan = (
        primitives.build_relax_plan(tails, heads, weights, n_cells=dist.size)
        if case in ("adversarial-stride", "random")
        else None
    )
    dist0, parent0 = dist.copy(), parent.copy()
    out, cost, shadow = _shadowed_run(
        lambda c: primitives.prelax_arcs(
            c, dist, parent, tails, heads, weights,
            plan=plan, workspace=ws, changed="frontier",
        ),
        strict,
    )
    lit_d, lit_p, lit_changed, rounds = reference.crew_relax_arcs(
        dist0.tolist(), parent0.tolist(),
        tails.tolist(), heads.tolist(), weights.tolist(),
    )
    equal = (
        np.array_equal(dist, np.asarray(lit_d))
        and np.array_equal(parent, np.asarray(lit_p))
        and np.array_equal(out, np.asarray(lit_changed, dtype=np.int64))
    )
    # literal pays load + merge + flag rounds on top of the combine tree
    return _outcome("relax_arcs", case, tails.size, equal, cost, shadow,
                    rounds, rounds <= cost.depth + 4)


def _diff_relax_arcs_batch(case, seed, strict):
    """Batched S×V relaxation round vs S stacked literal CREW programs.

    Three checks per case: (1) the batched kernel's matrix output equals
    the literal batch reference bit-exactly; (2) every row's dist/parent
    *and charged (work, depth)* equal a solo ``prelax_arcs`` run of that
    row — the charge-stream identity the matrix engine rests on; (3) a
    masked-out row is untouched and charges nothing (the per-source early
    exit).  Row 0 runs under the shadow detector, which routes it through
    the per-row footprint path — the mixed shadowed/batched round is
    exactly what a strict conformance sweep of the engine executes.
    """
    dist, parent, tails, heads, weights = _relax_inputs(case, seed)
    n_cells = int(dist.size)
    plan = primitives.build_relax_plan(tails, heads, weights, n_cells=n_cells)
    rows = 3
    dist_m = np.stack([np.roll(dist, r) for r in range(rows)])
    parent_m = np.stack([parent.copy() for _ in range(rows)])
    solo_d, solo_p = dist_m.copy(), parent_m.copy()
    mask_d, mask_p = dist_m.copy(), parent_m.copy()
    ws = Workspace(poison=True)  # poisoned pool: stale reuse would surface
    costs = [CostModel() for _ in range(rows)]
    shadow = ShadowCREW.attach(costs[0], strict=strict)
    try:
        out = primitives.prelax_arcs_batch(
            costs, dist_m, parent_m, plan=plan, workspace=ws,
        )
    finally:
        shadow.detach(costs[0])
    lit_d, lit_p, lit_any, rounds = reference.crew_relax_arcs_batch(
        [np.roll(dist, r).tolist() for r in range(rows)],
        [parent.tolist() for _ in range(rows)],
        tails.tolist(), heads.tolist(), weights.tolist(),
    )
    equal = (
        np.array_equal(dist_m, np.asarray(lit_d))
        and np.array_equal(parent_m, np.asarray(lit_p))
        and np.array_equal(out, np.asarray(lit_any, dtype=bool))
    )
    for r in range(rows):
        solo_cost = CostModel()
        solo_out = primitives.prelax_arcs(
            solo_cost, solo_d[r], solo_p[r], tails, heads, weights,
            plan=plan, workspace=ws, changed="any",
        )
        equal = equal and (
            np.array_equal(solo_d[r], dist_m[r])
            and np.array_equal(solo_p[r], parent_m[r])
            and bool(solo_out) == bool(out[r])
            and (solo_cost.work, solo_cost.depth) == (costs[r].work, costs[r].depth)
        )
    # a converged (masked-out) row is skipped entirely and charges nothing
    mask = np.asarray([True, False, True])
    mask_costs = [CostModel() for _ in range(rows)]
    masked_out = primitives.prelax_arcs_batch(
        mask_costs, mask_d, mask_p, plan=plan, active=mask, workspace=ws,
    )
    equal = equal and (
        not masked_out[1]
        and np.array_equal(mask_d[1], np.roll(dist, 1))
        and np.array_equal(mask_p[1], parent)
        and (mask_costs[1].work, mask_costs[1].depth) == (0, 0)
        and np.array_equal(mask_d[0], dist_m[0])
        and np.array_equal(mask_d[2], dist_m[2])
    )
    # literal pays load + merge + flag rounds on top of the combine tree
    return _outcome("relax_arcs_batch", case, tails.size, equal, costs[0],
                    shadow, rounds, rounds <= costs[0].depth + 4)


def _tie_range(case: str, hi: int) -> int:
    """Id range of the entry cases' tie columns: {0, 1} where rows tie."""
    return 2 if case in ("duplicate-index", "all-ties") else hi


def _entry_inputs(
    case: str, seed: int, n: int = _N, k: int = 6
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(vert, src, dist, seed_ids) entry-table rows per case.

    ``duplicate-index`` piles every row onto one vertex (the deepest
    per-group reduction), ``all-ties`` makes every distance equal (the
    staged minima must fall through to the src/seed tiebreaks),
    ``adversarial-stride`` interleaves groups with descending distances.
    The first two draw seed ids from {0, 1}, so many rows tie on every
    column and only their position separates them.  Distances are
    integer-valued doubles, exact under any grouping.
    """
    rng = np.random.default_rng(seed)
    if case == "empty":
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0), z
    if case == "singleton":
        return (
            np.asarray([2], dtype=np.int64),
            np.asarray([1], dtype=np.int64),
            np.asarray([4.0]),
            np.asarray([9], dtype=np.int64),
        )
    if case == "duplicate-index":
        vert = np.full(n, 3, dtype=np.int64)
        src = rng.integers(0, 3, size=n).astype(np.int64)
        dist = rng.integers(0, 4, size=n).astype(np.float64)
    elif case == "all-ties":
        vert = np.asarray([i % 3 for i in range(n)], dtype=np.int64)
        src = np.asarray([i % 4 for i in range(n)], dtype=np.int64)
        dist = np.full(n, 7.0)
    elif case == "adversarial-stride":
        vert = np.asarray([(5 * i) % k for i in range(n)], dtype=np.int64)
        src = np.asarray([(3 * i) % k for i in range(n)], dtype=np.int64)
        dist = np.asarray([float(n - i) for i in range(n)])
    else:
        vert = rng.integers(0, k, size=n).astype(np.int64)
        src = rng.integers(0, k, size=n).astype(np.int64)
        dist = rng.integers(0, 20, size=n).astype(np.float64)
    seed_ids = rng.integers(0, _tie_range(case, 50), size=vert.size).astype(np.int64)
    return vert, src, dist, seed_ids


def _entry_runs(kernel, ties, lit, lit_pos, strict):
    """Run an entry kernel plain and with the row position as last tie key.

    Both runs must keep the literal program's rows and charge the same;
    the row-keyed run must also name the literal stable sorts' kept input
    positions.  Returns ``(equal, cost, shadow)`` of the row-keyed run.
    """
    pos = np.arange(ties[0].size, dtype=np.int64)
    expect = (*lit, lit_pos)
    equal = True
    charged = set()
    for keys in (ties, (*ties, pos)):
        out, cost, shadow = _shadowed_run(lambda c: kernel(c, keys), strict)
        got = (*out[:-1], *out[-1])
        equal = equal and len(got) <= len(expect) and all(
            np.array_equal(np.asarray(o), np.asarray(e)) for o, e in zip(got, expect)
        )
        charged.add((cost.work, cost.depth))
    return equal and len(charged) == 1, cost, shadow


def _diff_prune_entries(case, seed, strict):
    """Entry prune vs the literal sort program, at x = 1 and x = 3."""
    vert, src, dist, seed_ids = _entry_inputs(case, seed)
    ws = Workspace(poison=True)
    equal = True
    depth = rounds = 0
    cost = CostModel()
    shadow = ShadowCREW()
    for x in (1, 3):
        lit, lit_pos, lit_rounds = reference.crew_prune_entries(
            vert.tolist(), src.tolist(), dist.tolist(), seed_ids.tolist(), x
        )
        ok, cost, shadow = _entry_runs(
            lambda c, ties: primitives.pprune_entries(
                c, vert, src, dist, ties, x, workspace=ws
            ),
            (seed_ids,), lit, lit_pos, strict,
        )
        equal = equal and ok
        depth = max(depth, cost.depth)
        rounds = max(rounds, lit_rounds)
    # the literal side runs two O(n) odd-even networks plus scans
    n = int(vert.size)
    return _outcome("prune_entries", case, n, equal, cost, shadow, rounds,
                    rounds <= 4 * n + depth + 12,
                    detail="literal = odd-even network" if equal else "")


def _diff_aggregate_entries(case, seed, strict):
    """Per-cluster aggregation vs the literal sort program (x = 2)."""
    cl, src, dist, seed_ids = _entry_inputs(case, seed)
    rng = np.random.default_rng(seed + 3)
    member = rng.integers(0, _tie_range(case, 9), size=cl.size).astype(np.int64)
    ws = Workspace(poison=True)
    lit, lit_pos, rounds = reference.crew_aggregate_entries(
        cl.tolist(), src.tolist(), dist.tolist(), member.tolist(),
        seed_ids.tolist(), 2,
    )
    equal, cost, shadow = _entry_runs(
        lambda c, ties: primitives.paggregate_entries(
            c, cl, src, dist, ties, 2, workspace=ws
        ),
        (member, seed_ids), lit, lit_pos, strict,
    )
    n = int(cl.size)
    return _outcome("aggregate_entries", case, n, equal, cost, shadow, rounds,
                    rounds <= 4 * n + cost.depth + 12,
                    detail="literal = odd-even network" if equal else "")


def _diff_pointer_jump(case, seed, strict):
    parent = _parent_forest(case, seed)
    n = parent.size
    rng = np.random.default_rng(seed + 2)
    weight = rng.integers(1, 6, size=n).astype(np.float64)
    out, cost, shadow = _shadowed_run(
        lambda c: pointer_jumping.pointer_jump(c, parent, weight), strict
    )
    lit_r, lit_d, rounds = reference.crew_pointer_jump(
        parent.tolist(), weight.tolist()
    )
    equal = np.array_equal(out[0], np.asarray(lit_r)) and np.array_equal(
        out[1], np.asarray(lit_d)
    )
    bound = 2 * (ceil_log2(max(n, 2)) + 1) + 1
    return _outcome("pointer_jump", case, n, equal, cost, shadow, rounds,
                    cost.depth <= bound and rounds <= bound)


def _diff_list_rank(case, seed, strict):
    parent = _parent_forest(case, seed)
    n = parent.size
    out, cost, shadow = _shadowed_run(
        lambda c: pointer_jumping.list_rank(c, parent), strict
    )
    lit, rounds = reference.crew_list_rank(parent.tolist())
    equal = np.array_equal(out, np.asarray(lit))
    bound = 2 * (ceil_log2(max(n, 2)) + 1) + 1
    return _outcome("list_rank", case, n, equal, cost, shadow, rounds,
                    cost.depth <= bound and rounds <= bound)


#: primitive name -> differential runner(case, seed, strict)
PRIMITIVE_DIFFS: dict[str, Callable[[str, int, bool], DiffOutcome]] = {
    "map": _diff_map,
    "reduce": _diff_reduce,
    "broadcast": _diff_broadcast,
    "scatter": _diff_scatter,
    "scatter_min": _diff_scatter_min,
    "scatter_min_arg": _diff_scatter_min_arg,
    "select": _diff_select,
    "compact": _diff_compact,
    "prefix_sum": _diff_prefix_sum,
    "prefix_sum_excl": _diff_prefix_sum_excl,
    "prefix_max": _diff_prefix_max,
    "segmented_sum": _diff_segmented_sum,
    "gather_csr": _diff_gather_csr,
    "relax_arcs": _diff_relax_arcs,
    "relax_arcs_batch": _diff_relax_arcs_batch,
    "prune_entries": _diff_prune_entries,
    "aggregate_entries": _diff_aggregate_entries,
    "sort": _diff_sort,
    "lexsort": _diff_lexsort,
    "pointer_jump": _diff_pointer_jump,
    "list_rank": _diff_list_rank,
}


def run_primitive_diffs(
    seed: int = 0,
    strict: bool = False,
    primitives_subset: tuple[str, ...] | None = None,
    cases: tuple[str, ...] = PRIMITIVE_CASES,
) -> list[DiffOutcome]:
    """Run the full primitive × case differential matrix."""
    names = primitives_subset or tuple(PRIMITIVE_DIFFS)
    outcomes = []
    for name in names:
        runner = PRIMITIVE_DIFFS[name]
        for case in cases:
            outcomes.append(runner(case, seed, strict))
    return outcomes


# -- whole-execution conformance on the E-family smoke graphs ----------------

#: The generator families the experiment suite (E1–E20) sweeps, at smoke size.
SMOKE_FAMILIES: dict[str, Callable[[int, int], Graph]] = {
    "er": lambda n, s: erdos_renyi(n, 0.15, seed=s, w_range=(1.0, 4.0)),
    "grid": lambda n, s: grid_graph(
        max(int(n**0.5), 2), max(int(n**0.5), 2), seed=s, w_range=(1.0, 2.0)
    ),
    "path": lambda n, s: path_graph(n, seed=s, w_range=(1.0, 3.0)),
    "layered": lambda n, s: layered_hop_graph(max(n // 4, 2), 4, seed=s),
    "geometric": lambda n, s: random_geometric(n, 0.3, seed=s),
    "powerlaw": lambda n, s: preferential_attachment(n, 2, seed=s),
    "wide": lambda n, s: wide_weight_graph(n, 1e4, seed=s),
}

_SMOKE_PARAMS = HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=8)


def diff_sssp(
    graph: Graph,
    source: int,
    pram: PRAM,
    engines: tuple[str, ...] = ("dense", "sparse", "auto"),
) -> tuple[bool, bool, int, int]:
    """Vectorized vs literal-CREW SSSP on one graph, across all engines.

    Returns ``(dist_equal, rounds_ok, vec_rounds, lit_rounds)``.  Every
    relaxation engine (dense, sparse frontier, auto-switching — see
    :mod:`repro.pram.frontier`) relaxes a candidate set whose winners are
    identical with identical float operations, so distances must be
    **bit-exact** across engines and against the literal program, and all
    engines must report the same round count; the literal memory commits
    exactly one extra (load) round: ``lit_rounds == vec_rounds + 1``.
    """
    hops = max(graph.n - 1, 1)
    results = [bellman_ford(pram, graph, source, hops, engine=e) for e in engines]
    res = results[0]
    lit, lit_rounds = reference.crew_sssp(graph, source)
    dist_equal = np.array_equal(res.dist, np.asarray(lit)) and all(
        np.array_equal(res.dist, r.dist) and np.array_equal(res.parent, r.parent)
        for r in results[1:]
    )
    rounds_ok = lit_rounds == res.rounds_used + 1 and all(
        r.rounds_used == res.rounds_used for r in results[1:]
    )
    return dist_equal, rounds_ok, res.rounds_used, lit_rounds


def run_graph_conformance(
    n: int = 32,
    seed: int = 7,
    strict: bool = False,
    families: tuple[str, ...] | None = None,
    pram: PRAM | None = None,
    shadow: ShadowCREW | None = None,
) -> list[GraphOutcome]:
    """Sweep the E-family smoke graphs: SSSP diff + hopset-build race scan.

    When ``pram``/``shadow`` are supplied (the CLI passes ones wired to a
    span tracer and metrics registry), the sweep runs on them, one phase
    per family, so the obs flame report attributes the conformance work;
    otherwise a private pair is created and detached afterwards.
    """
    own = pram is None
    pram = pram if pram is not None else PRAM()
    if shadow is None:
        shadow = ShadowCREW.attach(pram.cost, strict=strict)
        own_shadow = True
    else:
        own_shadow = False
    names = families or tuple(SMOKE_FAMILIES)
    rows: list[GraphOutcome] = []
    try:
        for name in names:
            g = SMOKE_FAMILIES[name](n, seed)
            before = len(shadow.findings)
            with pram.cost.phase(name):
                with pram.cost.subphase("sssp_diff"):
                    dist_equal, rounds_ok, vec_rounds, lit_rounds = diff_sssp(
                        g, 0, pram
                    )
                with pram.cost.subphase("hopset_race_scan"):
                    build_hopset(g, _SMOKE_PARAMS, pram)
            rows.append(
                GraphOutcome(
                    family=name,
                    n=g.n,
                    m=g.num_edges,
                    dist_equal=dist_equal,
                    rounds_ok=rounds_ok,
                    races=len(shadow.findings) - before,
                    vec_rounds=vec_rounds,
                    lit_rounds=lit_rounds,
                )
            )
    finally:
        if own_shadow:
            shadow.detach(pram.cost)
        del own
    return rows
