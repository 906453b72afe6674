"""(1+ε)-approximate multi-source shortest distances (aMSSD, Theorem 3.8).

One hopset serves every source: |S| independent β-hop Bellman–Ford
explorations run *in parallel* on the PRAM (each gets its own processor
slice), so the depth stays one exploration's depth while the work scales
with |S| — the E11 experiment measures exactly this separation.

Because the simulator executes sequentially, the parallel composition is
accounted explicitly: depth = max over explorations, work = sum.  The
explorations run through the S×V matrix engine
(:mod:`repro.sssp.mssp`) in row blocks, each row charged exactly like a
solo dense ``bellman_ford`` run, so the composed cost does not depend on
the block width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Graph
from repro.graphs.errors import VertexError
from repro.hopsets.hopset import Hopset
from repro.pram.cost import CostSnapshot
from repro.pram.machine import PRAM
from repro.pram.workspace import Workspace
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK, block_width, explore_batch

__all__ = ["MultiSourceResult", "approximate_mssd"]


@dataclass
class MultiSourceResult:
    """|S| × n distance matrix plus the parallel-composition cost."""

    sources: np.ndarray
    dist: np.ndarray    # shape (|S|, n)
    parent: np.ndarray  # shape (|S|, n)
    work: int           # total over explorations
    depth: int          # max over explorations (they run side by side)

    def cost(self) -> CostSnapshot:
        return CostSnapshot(self.work, self.depth)


def approximate_mssd(
    graph: Graph,
    hopset: Hopset,
    sources: np.ndarray,
    pram: PRAM | None = None,
    hop_budget: int | None = None,
    block: int = DEFAULT_MSSP_BLOCK,
) -> MultiSourceResult:
    """Run one β-hop exploration per source over G ∪ H.

    The sources advance through the S×V *matrix engine*
    (:func:`repro.sssp.mssp.explore_batch`) in blocks of ``block`` rows
    (S >= 1; ``--mssp-block`` on the CLI): each block is one (S × n)
    matrix per relaxation round, and every row replays the charges of a
    solo ``bellman_ford(..., engine="dense")`` run, so outputs and the
    composed cost do not depend on ``block`` — only wall-clock does.

    The outer ``pram`` (if given) is charged with the composed cost:
    sum-of-work, max-of-depth.  All blocks share one scratch
    :class:`~repro.pram.workspace.Workspace` (the outer machine's, if
    given), so the relaxation kernels allocate their round buffers once
    for the whole sweep; they also share the outer machine's execution
    backend (:mod:`repro.pram.backends`).  If an exploration raises, the
    shared pool's buffers acquired by the sweep are released before the
    error propagates.
    """
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 1 or src.size == 0:
        raise VertexError("sources must be a non-empty 1-D array")
    nblock = block_width(block)
    union = hopset.union_graph(graph)
    budget = hop_budget if hop_budget is not None else min(2 * hopset.beta + 1, max(graph.n - 1, 1))
    dists = np.empty((src.size, graph.n))
    parents = np.empty((src.size, graph.n), dtype=np.int64)
    total_work = 0
    max_depth = 0
    shared_ws = pram.workspace if pram is not None else Workspace()
    backend = pram.backend if pram is not None else None
    ok = False
    try:
        for lo in range(0, int(src.size), nblock):
            chunk = src[lo : lo + nblock]
            hi = lo + int(chunk.size)
            res = explore_batch(
                union, chunk, budget,
                workspace=shared_ws, backend=backend,
                obs_cost=pram.cost if pram is not None else None,
                out=(dists[lo:hi], parents[lo:hi]),
            )
            total_work += sum(c.work for c in res.costs)
            max_depth = max(max_depth, max(c.depth for c in res.costs))
        ok = True
    finally:
        if not ok:
            # A failed exploration must not leave the sweep's pooled round
            # buffers (and the cached plan of the abandoned union graph)
            # pinned in the shared workspace — release them so the caller's
            # pool shrinks back to its pre-sweep footprint.
            shared_ws.clear()
    if pram is not None:
        with pram.phase("mssd"):
            pram.charge(work=total_work, depth=max_depth, label="mssd")
    return MultiSourceResult(
        sources=src, dist=dists, parent=parents, work=total_work, depth=max_depth
    )
