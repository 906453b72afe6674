"""Sparse-frontier relaxation engine with Ligra-style direction switching.

The β-hop explorations of Theorem 3.8 relax every arc of G ∪ H each round
— the worst case the paper's O(|E|·β) work bound charges for.  In real
runs, after the first couple of rounds only a shrinking set of vertices
still improves, so relaxing all arcs wastes nearly all of the charged
work.  This module implements the standard frontier-driven alternative
(Ligra's direction optimization, also the engine inside the randomized
parallel SSSP lines of work): per round, gather the out-arcs of only the
vertices whose distance changed last round and relax that subset.

Three engines are offered:

``dense``
    The original schedule: every round relaxes all arcs with one
    :func:`~repro.pram.primitives.scatter_min_arg`.  With ``early_exit``
    the convergence test (an elementwise compare + OR-reduce) is now
    *charged* to the cost model — detection is work the machine does.

``sparse``
    Every round gathers the frontier's out-arcs with
    :func:`~repro.pram.primitives.pgather_csr`, relaxes only those, and
    rebuilds the frontier with a charged compare + select.  Rounds after
    the frontier empties are synchronization-only (work 0, depth 1 each)
    so a fixed ``hops`` budget still reports the same ``rounds``.

``auto`` (default)
    Ligra-style per-round switch: sparse when
    ``|frontier| + Σ out-deg(frontier) ≤ |arcs| / k`` (``k =``
    ``DEFAULT_THRESHOLD_K``), dense otherwise.  The degree sum that the
    decision needs is charged too (a map + sum-reduce over the frontier).

**Bit-exactness.**  All three engines produce identical ``dist``,
``parent``, and round counts.  The argument: an arc u→v whose tail u did
not change in the previous round offers the same candidate it already
offered, so ``cand ≥ dist[v]`` — it can neither strictly improve v nor
tie an *improving* fresh candidate (which satisfies ``cand < dist[v]``).
Hence dropping stale arcs changes neither the winning value nor the
winning payload of any cell, and the set of vertices that change per
round — the next frontier — is identical.  The differential matrix in
``tests/conformance`` pins this across engines, sources, budgets, and
adversarial families; see ``docs/frontier.md``.

Observability: each round reports the frontier size through the
``frontier.size`` traffic label (the metrics registry turns traffic
labels into counters + a size histogram automatically) and every
sparse↔dense transition emits a ``frontier.switch`` traffic event, so
mode switches are visible in Chrome traces and metric dumps.

**Fused kernel.**  Every relaxation round runs through the fused
:func:`~repro.pram.primitives.prelax_arcs` kernel (gather + add +
combining min + changed mask in one pass, drawing its temporaries from
the machine's :class:`~repro.pram.workspace.Workspace` pool and — on
dense rounds — reusing a per-graph :class:`~repro.pram.primitives.RelaxPlan`
so nothing is re-sorted per round).  The kernel is charged *identically*
to the primitive sequence it stands for (``scatter_min_arg`` + compare +
select / OR-reduce); the step-stream tests in ``tests/pram`` pin that,
and the strict-shadow matrix in ``tests/conformance`` diffs the outputs
against the literal CREW Bellman–Ford in :mod:`repro.pram.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.pram.errors import InvalidStepError
from repro.pram.machine import PRAM

__all__ = ["ENGINES", "DEFAULT_THRESHOLD_K", "FrontierStats", "frontier_relax"]

ENGINES = ("dense", "sparse", "auto")
"""Recognized values of the ``engine=`` knob."""

DEFAULT_THRESHOLD_K = 16
"""Ligra-style switch denominator: sparse while frontier arcs ≤ |arcs|/k."""


@dataclass
class FrontierStats:
    """Per-exploration accounting returned by :func:`frontier_relax`.

    ``rounds`` counts every budgeted round (relaxation + idle), matching
    the dense engine's ``rounds_used`` semantics bit-exactly; the
    remaining fields break down how those rounds executed.
    """

    engine: str
    rounds: int = 0
    sparse_rounds: int = 0
    dense_rounds: int = 0
    idle_rounds: int = 0
    mode_switches: int = 0
    peak_frontier: int = 0
    gathered_arcs: int = 0


def frontier_relax(
    pram: PRAM,
    graph: Graph,
    dist: np.ndarray,
    parent: np.ndarray,
    sources: np.ndarray,
    hops: int,
    *,
    engine: str = "auto",
    early_exit: bool = True,
    threshold_k: int = DEFAULT_THRESHOLD_K,
    label: str = "bf",
) -> FrontierStats:
    """Run ``hops`` relaxation rounds on ``dist``/``parent`` in place.

    ``dist``/``parent`` must already be initialized (0 / self at the
    sources, +inf / −1 elsewhere); ``sources`` seeds the first frontier.
    ``label`` prefixes every charged step (``{label}_relax``,
    ``{label}_gather``, …) so callers keep their established cost-step
    names.  Returns the :class:`FrontierStats` of the exploration.
    """
    if engine not in ENGINES:
        raise InvalidStepError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if threshold_k < 1:
        raise InvalidStepError(f"threshold_k must be >= 1, got {threshold_k}")
    ws = pram.workspace
    plan = None  # per-graph RelaxPlan, fetched on the first dense round
    stats = FrontierStats(engine=engine)
    arcs_total = int(graph.indices.size)
    indptr = graph.indptr
    indices = graph.indices
    weights = graph.weights
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    mode_prev: str | None = None
    for _ in range(hops):
        if frontier.size == 0:
            # Converged: no arc can improve any cell (see module docstring).
            if early_exit:
                break
            # A fixed budget still synchronizes the remaining rounds.
            remaining = hops - stats.rounds
            pram.charge(work=0, depth=remaining, label=f"{label}_idle")
            stats.idle_rounds += remaining
            stats.rounds = hops
            break
        stats.peak_frontier = max(stats.peak_frontier, int(frontier.size))
        pram.cost.traffic("frontier.size", elements=int(frontier.size))

        mode = engine
        if engine == "auto":
            deg = pram.map(
                lambda hi, lo: hi - lo,
                indptr[frontier + 1],
                indptr[frontier],
                label=f"{label}_mode",
            )
            frontier_arcs = int(pram.reduce("sum", deg, label=f"{label}_mode"))
            dense_cut = arcs_total // threshold_k
            mode = "sparse" if frontier_arcs + int(frontier.size) <= dense_cut else "dense"
        if mode_prev is not None and mode != mode_prev:
            stats.mode_switches += 1
            pram.cost.traffic("frontier.switch", elements=int(frontier.size))
        mode_prev = mode

        if mode == "sparse":
            slots, arcs = pram.gather_csr(indptr, frontier, label=f"{label}_gather")
            a = int(arcs.size)
            f_tails = ws.take("frontier.tails", a, np.int64)
            np.take(frontier, slots, out=f_tails)
            f_heads = ws.take("frontier.heads", a, np.int64)
            np.take(indices, arcs, out=f_heads)
            f_w = ws.take("frontier.w", a, np.float64)
            np.take(weights, arcs, out=f_w)
            stats.sparse_rounds += 1
            stats.gathered_arcs += a
            stats.rounds += 1
            frontier = pram.relax_arcs(
                dist, parent, f_tails, f_heads, f_w,
                changed="frontier", label=f"{label}_relax",
                changed_label=f"{label}_converged",
                frontier_label=f"{label}_frontier",
            )
        else:
            if plan is None:
                plan = ws.relax_plan(graph)
            stats.dense_rounds += 1
            stats.rounds += 1
            if engine == "dense":
                # The dense engine never needs the frontier itself; it
                # charges the convergence detection (compare + OR-reduce)
                # only when early exit actually uses it.
                out = pram.relax_arcs(
                    dist, parent, None, None, None, plan=plan,
                    changed="any" if early_exit else "skip",
                    label=f"{label}_relax",
                    changed_label=f"{label}_converged",
                )
                if early_exit and not out:
                    break
            else:
                frontier = pram.relax_arcs(
                    dist, parent, None, None, None, plan=plan,
                    changed="frontier", label=f"{label}_relax",
                    changed_label=f"{label}_converged",
                    frontier_label=f"{label}_frontier",
                )
    return stats
