"""The batched multi-source (S × V) matrix relaxation engine.

Elkin–Neiman's parallel MSSP observation (PAPERS.md, arXiv:2004.07572):
once the hopset exists, S hop-bounded explorations are one *rectangular
matrix* computation — an (S × V) distance/parent matrix advanced by one
vectorized relaxation pass per round — rather than S independent scans
of the same arc arrays.  :func:`explore_batch` is that engine: every
round it runs :func:`repro.pram.primitives.prelax_arcs_batch` over all
still-active rows and masks converged rows out of later rounds.  Each
round picks a direction: it *pushes* (relaxes only the out-arcs of each
row's frontier, the cells that row improved last round) when those arcs
are few relative to the row block, and otherwise *pulls* (one
`RelaxPlan`-driven gather + combining-min over every arc, through the
execution backend).  The engine owns the frontiers
(:class:`~repro.pram.primitives.BlockFrontier`), seeded with each row's
source; ``docs/mssp.md`` ("Direction per round") gives the rule and why
both directions compute the same round.

**The determinism/accounting contract** (enforced by
``tests/sssp/test_mssp.py``): row r of the result — ``dist[r]``,
``parent[r]``, ``rounds_used[r]``, and the charge stream of ``costs[r]``
— is bit-identical to an independent single-source
:func:`~repro.sssp.bellman_ford.bellman_ford` run with
``engine="dense"`` (the fused schedule), at every batch width and on
every execution backend.  Each row carries its own
:class:`~repro.pram.cost.CostModel`, and the batch kernel replays the
solo per-row charge stream exactly, in either direction — batching and
pushing change wall-clock only, never what any row is charged.  A row
whose cost model carries a footprint hook (a shadow race detector) is
transparently delegated to the solo kernel so its write-footprints
stream out unchanged.

The per-row schedule replayed here is ``bellman_ford``'s dense fused
path: a ``bellman_ford`` subphase wrapping two ``bf_init`` broadcasts,
then per executed round one ``frontier.size`` traffic event and one
``bf_relax``/``bf_converged`` relaxation; a row's final no-change round
*is* charged (that is how convergence is detected), after which the row
stops charging entirely.

The call sites (:func:`repro.sssp.multi_source.approximate_mssd`, the
oracle, the serving layer) split their sources into row blocks of width
S >= 1 (``block=`` / ``mssp_block=`` / ``--mssp-block``, default
:data:`DEFAULT_MSSP_BLOCK`); :func:`block_width` validates it.  S = 1
explores one source at a time with exactly the per-row charges of a
solo dense run.
"""

from __future__ import annotations

import operator
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.errors import VertexError
from repro.pram.cost import CostModel
from repro.pram.errors import InvalidStepError
from repro.pram.primitives import BlockFrontier, pbroadcast, prelax_arcs_batch
from repro.pram.workspace import Workspace

__all__ = [
    "DEFAULT_MSSP_BLOCK",
    "BatchExploreResult",
    "block_width",
    "explore_batch",
]

#: Default row-block width of the matrix engine (sources per S×V pass).
#: Past the loop-vs-batch crossover (BENCH_mssp.json measures it; see
#: docs/mssp.md) yet small enough that the (S × V) round buffers stay
#: cache-friendly on the smoke graphs.
DEFAULT_MSSP_BLOCK = 32


def block_width(block) -> int:
    """``block`` as a matrix row-block width: an integer S >= 1.

    Raises :class:`InvalidStepError` for anything else — zero, negative,
    or non-integer widths.
    """
    try:
        width = operator.index(block)
    except TypeError:
        raise InvalidStepError(
            f"block width must be an integer, got {block!r}"
        ) from None
    if width < 1:
        raise InvalidStepError(f"block width must be >= 1, got {width}")
    return width


@dataclass
class BatchExploreResult:
    """The S×V matrices plus per-row rounds and per-row charged cost."""

    sources: np.ndarray      # (S,) one source vertex per row
    dist: np.ndarray         # (S, n)
    parent: np.ndarray       # (S, n)
    rounds_used: np.ndarray  # (S,) rounds each row executed before converging
    costs: list[CostModel]   # per-row charge stream, index-aligned with rows
    hop_budget: int
    push_rounds: int         # batched rounds that relaxed frontier out-arcs
    pull_rounds: int         # batched rounds that relaxed every arc


def explore_batch(
    graph: Graph,
    sources: np.ndarray,
    hops: int,
    costs: list[CostModel] | None = None,
    workspace: Workspace | None = None,
    backend=None,
    obs_cost: CostModel | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> BatchExploreResult:
    """Run S single-source β-hop explorations as one (S × V) matrix sweep.

    Row r computes the hop-``hops`` exploration from ``sources[r]`` on
    ``graph``; outputs and the charge stream of ``costs[r]`` are
    bit-identical to ``bellman_ford(PRAM(costs[r], ...), graph,
    sources[r], hops, engine="dense")`` — the module-docstring contract.
    The result also counts the batched rounds by direction
    (``push_rounds`` / ``pull_rounds``); unlike the per-row charges,
    those counts depend on which rows were batched together.

    Parameters
    ----------
    costs:
        One :class:`CostModel` per row (fresh ones by default).  Rows
        whose model wants footprints are delegated to the solo kernel.
    workspace:
        Scratch pool for the row-block round buffers (``relax.*``,
        ``relaxb.*``) and the cached
        :class:`~repro.pram.primitives.RelaxPlan`.
    backend:
        Execution backend for the per-round segmented minimum
        (:meth:`~repro.pram.backends.base.ExecutionBackend.relax_segmin_batch`);
        ``None`` computes in-process.
    obs_cost:
        Optional cost model that receives backend *telemetry* traffic
        (``backend.round`` …) and, once per exploration, the batched
        rounds by direction: ``mssp.push_round`` / ``mssp.pull_round``
        traffic with ``calls`` = rounds and ``elements`` = arcs relaxed —
        observability only, never charges.
    out:
        Optional ``(dist, parent)`` matrices of shape (S, n) to fill in
        place (e.g. slices of a caller-owned result matrix).
    """
    if hops < 0:
        raise VertexError(f"hop budget must be non-negative, got {hops}")
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if src.ndim != 1 or src.size == 0:
        raise VertexError("at least one source is required")
    if src.min() < 0 or src.max() >= graph.n:
        raise VertexError("source vertex out of range")
    n = graph.n
    n_rows = int(src.size)
    ws = workspace if workspace is not None else Workspace()
    if costs is None:
        costs = [CostModel() for _ in range(n_rows)]
    elif len(costs) != n_rows:
        raise VertexError(
            f"need one CostModel per row: {len(costs)} models, {n_rows} sources"
        )
    if out is not None:
        dist, parent = out
    else:
        dist = np.empty((n_rows, n), dtype=np.float64)
        parent = np.empty((n_rows, n), dtype=np.int64)
    rounds = np.zeros(n_rows, dtype=np.int64)
    plan = ws.relax_plan(graph)
    with ExitStack() as stack:
        # Every row's charges sit under its own "bellman_ford" subphase,
        # exactly like the solo runs they replay.
        for c in costs:
            stack.enter_context(c.subphase("bellman_ford"))
        for r in range(n_rows):
            # The solo init: two bf_init broadcasts + uncharged source seed.
            dist[r] = pbroadcast(costs[r], np.inf, n, dtype=np.float64, label="bf_init")
            parent[r] = pbroadcast(costs[r], -1, n, dtype=np.int64, label="bf_init")
            dist[r, src[r]] = 0.0
            parent[r, src[r]] = src[r]
        active = np.ones(n_rows, dtype=bool)
        # every other cell is +inf, so a row's first frontier is its source
        frontier = BlockFrontier([src[r:r + 1] for r in range(n_rows)])
        for _ in range(hops):
            if not active.any():
                break
            for r in np.flatnonzero(active):
                # Solo dense rounds report the (singleton) frontier size.
                costs[int(r)].traffic("frontier.size", elements=1)
            rounds[active] += 1
            changed = prelax_arcs_batch(
                costs,
                dist,
                parent,
                plan=plan,
                active=active,
                frontier=frontier,
                workspace=ws,
                backend=backend,
                obs_cost=obs_cost,
                label="bf_relax",
                changed_label="bf_converged",
            )
            # A no-change round is charged (it is the convergence check);
            # the row then leaves the active set and stops charging.
            active &= changed
    if obs_cost is not None:
        # One event per direction and exploration, not per round: a round's
        # event would cost an attached metrics registry about as much as
        # the pushes save on small blocks.
        for label, calls, arcs in (
            ("mssp.push_round", frontier.push_rounds, frontier.push_arcs),
            ("mssp.pull_round", frontier.pull_rounds, frontier.pull_arcs),
        ):
            if calls:
                obs_cost.traffic(label, calls=calls, elements=arcs)
    return BatchExploreResult(
        sources=src,
        dist=dist,
        parent=parent,
        rounds_used=rounds,
        costs=costs,
        hop_budget=hops,
        push_rounds=frontier.push_rounds,
        pull_rounds=frontier.pull_rounds,
    )
