"""The delta schedule of ``_propagate``: its stop rule and its charges.

``_propagate`` expands only the rows the previous round added or strictly
improved.  The randomized comparison with the full-propagation reference
lives in ``tests/property/test_prop_propagate.py``.
"""

import numpy as np

from repro.graphs.build import from_edges
from repro.graphs.generators import path_graph
from repro.hopsets.cluster_graph import EntryTable, _propagate
from repro.pram.cost import CostHook
from repro.pram.machine import PRAM
from tests.hopsets.full_propagation import full_propagate


def _table(vert, src, dist, seed, paths=False):
    return EntryTable(
        vert=np.array(vert, dtype=np.int64),
        src=np.array(src, dtype=np.int64),
        dist=np.array(dist, dtype=np.float64),
        seed=np.array(seed, dtype=np.int64),
        paths=[(int(v),) for v in vert] if paths else None,
    )


def _columns(t: EntryTable):
    return (t.vert.tolist(), t.src.tolist(), t.dist.tolist(), t.seed.tolist(), t.paths)


class _Charges(CostHook):
    """Records every charge as ``(label, work)``."""

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen: list[tuple[str, int]] = []

    def on_charge(self, work: int, depth: int, label: str) -> None:
        self.seen.append((label, work))


def test_a_round_that_only_lowers_seeds_ends_the_exploration():
    """Source cluster {0, 1}: seed 1 reaches vertex 5 at distance 2 in one
    hop, seed 0 ties it four hops later.  That round moves a seed and no
    (vert, src, dist) triple, so — as under full expansion — it is the
    last: vertex 6, one hop past 5, keeps seed 1."""
    g = from_edges(
        7,
        [(1, 5, 2.0), (0, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5), (4, 5, 0.5), (5, 6, 1.0)],
    )
    for paths in (False, True):
        seeded = _table([0, 1], [0, 0], [0.0, 0.0], [0, 1], paths)
        got = _propagate(PRAM(), g, seeded, rounds=17, threshold=100.0, x=1)
        ref = full_propagate(PRAM(), g, seeded, rounds=17, threshold=100.0, x=1)
        assert _columns(got) == _columns(ref)
        assert got.seed.tolist() == [0, 1, 0, 0, 0, 0, 1]


def test_each_round_gathers_only_the_fresh_rows():
    """On a unit path from vertex 0, each round's only fresh row is the
    newly reached vertex: the gather charges 1 row plus its 1–2 arcs, and
    the fresh-row pick is a select over the whole table."""
    g = path_graph(8, weight=1.0)
    pram = PRAM()
    hook = pram.cost.subscribe(_Charges())
    out = _propagate(pram, g, _table([0], [0], [0.0], [0]), rounds=10, threshold=100.0, x=1)
    assert out.vert.tolist() == list(range(8))
    gathers = [w for label, w in hook.seen if label == "relax_gather"]
    assert gathers == [2, 3, 3, 3, 3, 3, 3, 2]
    picks = [w for label, w in hook.seen if label == "fresh_rows"]
    assert picks == [2, 3, 4, 5, 6, 7, 8, 8]
