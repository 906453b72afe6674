"""The full-propagation schedule of Algorithm 2's explorations.

Every round expands *every* table row, and the exploration stops once a
round leaves the table's ``(vert, src, dist)`` columns unchanged.  This is
the schedule ``cluster_graph._propagate`` ran before it learned to expand
only the rows that changed; it stays here as the reference the delta
schedule must reproduce bit for bit — columns, row order and paths.

Its prune passes the tie keys the full schedule always passed: ``(seed,)``
for plain tables and ``(seed, row position)`` for path-recording ones, so
the reference does not share the delta schedule's row key either.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph
from repro.hopsets.cluster_graph import _EPS_PAD, EntryTable, ExplorePlan
from repro.pram.machine import PRAM


def full_prune(table: EntryTable, x: int, pram: PRAM) -> EntryTable:
    """Algorithm 3 on ``table`` with the full schedule's tie keys."""
    if table.size == 0:
        return table
    ties: tuple[np.ndarray, ...] = (table.seed,)
    if table.paths is not None:
        ties = (table.seed, np.arange(table.size, dtype=np.int64))
    vert, src, dist, won = pram.prune_entries(table.vert, table.src, table.dist, ties, x)
    return EntryTable(
        vert=vert,
        src=src,
        dist=dist,
        seed=won[0],
        paths=None if table.paths is None else [table.paths[i] for i in won[1]],
    )


def full_propagate(
    pram: PRAM,
    graph: Graph,
    table: EntryTable,
    rounds: int,
    threshold: float,
    x: int,
    plan: ExplorePlan | None = None,
) -> EntryTable:
    """``rounds`` rounds of threshold-pruned relaxation over every row.

    Same signature as ``cluster_graph._propagate``, so a build can run
    with this schedule patched in; it tallies cut candidates the same way.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    plan = plan if plan is not None else ExplorePlan(graph)
    table = full_prune(table, x, pram)
    for _ in range(rounds):
        if table.size == 0:
            break
        rep, head, cand_dist = pram.gather_add(
            indptr, indices, weights, table.vert, table.dist,
            label="relax_gather", add_label="relax", deg_all=plan.deg,
        )
        if head.size == 0:
            break
        keep = cand_dist <= threshold + _EPS_PAD
        rep_k = rep[keep]
        plan.cut += rep.size - rep_k.size
        if rep_k.size == 0:
            break
        head_k = head[keep]
        cand = EntryTable(
            vert=head_k,
            src=table.src[rep_k],
            dist=cand_dist[keep],
            seed=table.seed[rep_k],
            paths=(
                None
                if table.paths is None
                else [table.paths[int(i)] + (int(h),) for i, h in zip(rep_k, head_k)]
            ),
        )
        before = table
        table = full_prune(EntryTable.concat(table, cand), x, pram)
        if (
            table.size == before.size
            and np.array_equal(table.vert, before.vert)
            and np.array_equal(table.src, before.src)
            and np.array_equal(table.dist, before.dist)
        ):
            break  # no (vert, src, dist) triple moved: the exploration ends
    return table
