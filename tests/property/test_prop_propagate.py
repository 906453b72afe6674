"""Derandomized Hypothesis property: delta propagation equals full expansion.

``cluster_graph._propagate`` expands only the rows the previous round
added or strictly improved.  On small random graphs with heavily tied
weights, and seeded tables with heavily tied ``(vert, src, dist, seed)``
rows, it must return exactly the table of the full-propagation reference
(``tests/hopsets/full_propagation.py``): the same columns in the same row
order and, for path-recording tables, the same paths — which tie-broken
duplicate survives is visible through them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.build import from_edges
from repro.hopsets.cluster_graph import EntryTable, _propagate
from repro.pram.machine import PRAM
from tests.hopsets.full_propagation import full_propagate

#: Halves and wholes: every float sum of a few of them is exact, and
#: different hop counts often reach a vertex at the same distance.
_WEIGHTS = (0.5, 1.0, 1.5, 2.0)
_ROUNDS = (0, 1, 2, 17)  # 17 = 2β+1 at the builds' β = 8


@st.composite
def tied_case(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    edges = [
        (u, v, draw(st.sampled_from(_WEIGHTS)))
        for u, v in draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=2 * n,
            )
        )
    ]
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),             # vert
                st.integers(0, 2),                 # src
                st.sampled_from((0.0, 0.5, 1.0)),  # dist
                st.integers(0, 2),                 # seed
            ),
            max_size=12,
        )
    )
    x = draw(st.sampled_from((1, 2, 3, n)))
    rounds = draw(st.sampled_from(_ROUNDS))
    threshold = draw(st.sampled_from((1.0, 2.5, 100.0)))
    return n, edges, rows, x, rounds, threshold


def _table(rows, paths: bool) -> EntryTable:
    cols = list(zip(*rows)) if rows else [(), (), (), ()]
    return EntryTable(
        vert=np.array(cols[0], dtype=np.int64),
        src=np.array(cols[1], dtype=np.int64),
        dist=np.array(cols[2], dtype=np.float64),
        seed=np.array(cols[3], dtype=np.int64),
        # distinct per row, so a survivor's path names its winning row
        paths=[(100 + i, int(r[0])) for i, r in enumerate(rows)] if paths else None,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_case())
def test_delta_propagation_matches_full_expansion(case):
    n, edges, rows, x, rounds, threshold = case
    g = from_edges(n, edges)
    for paths in (False, True):
        table = _table(rows, paths)
        got = _propagate(PRAM(), g, table, rounds, threshold, x)
        ref = full_propagate(PRAM(), g, table, rounds, threshold, x)
        assert got.vert.tolist() == ref.vert.tolist()
        assert got.src.tolist() == ref.src.tolist()
        assert got.dist.tobytes() == ref.dist.tobytes()
        assert got.seed.tolist() == ref.seed.tolist()
        assert got.paths == ref.paths
