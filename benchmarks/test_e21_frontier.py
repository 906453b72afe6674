"""E21 — frontier-driven vs dense relaxation (sparse-frontier engine).

Dense Bellman–Ford charges O(|E|·rounds) regardless of how many vertices
still improve; the sparse engine (``repro.pram.frontier``) gathers only
the changed vertices' out-arcs.  This experiment runs all three engines
on the E-family workload graphs plus a long-path worst case (the graph
that maximizes rounds and minimizes per-round frontiers — dense's worst
regime), asserts bit-exact agreement, and records charged work and depth
per engine to ``benchmarks/BENCH_frontier.json``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
from conftest import emit

from repro.graphs.generators import (
    erdos_renyi,
    grid_graph,
    layered_hop_graph,
    path_graph,
    preferential_attachment,
    random_geometric,
    wide_weight_graph,
)
from repro.pram.machine import PRAM
from repro.sssp.bellman_ford import bellman_ford

OUT_PATH = Path(__file__).resolve().parent / "BENCH_frontier.json"

#: the E-family workloads at experiment size, plus the long-path worst case
GRAPHS = {
    "er": lambda: erdos_renyi(128, 0.08, seed=2101, w_range=(1.0, 4.0)),
    "grid": lambda: grid_graph(12, 12, seed=2102, w_range=(1.0, 2.0)),
    "layered": lambda: layered_hop_graph(32, 4, seed=2103),
    "geometric": lambda: random_geometric(128, 0.18, seed=2104),
    "powerlaw": lambda: preferential_attachment(128, 2, seed=2105),
    "wide": lambda: wide_weight_graph(128, 1e4, seed=2106),
    "long-path": lambda: path_graph(512, seed=2107, w_range=(1.0, 3.0)),
}

ENGINES = ("dense", "sparse", "auto")


def _measure(g, engine):
    pram = PRAM()
    res = bellman_ford(pram, g, 0, hops=g.n - 1, engine=engine)
    return res, pram.cost.work, pram.cost.depth


@lru_cache(maxsize=None)
def run_sweep():
    rows = []
    records = {}
    for name, make in GRAPHS.items():
        g = make()
        runs = {e: _measure(g, e) for e in ENGINES}
        dense = runs["dense"][0]
        bit_exact = all(
            np.array_equal(dense.dist, runs[e][0].dist)
            and np.array_equal(dense.parent, runs[e][0].parent)
            and dense.rounds_used == runs[e][0].rounds_used
            for e in ENGINES
        )
        ratio = runs["dense"][1] / max(runs["sparse"][1], 1)
        rows.append(
            [
                name,
                g.n,
                g.num_edges,
                runs["dense"][1],
                runs["sparse"][1],
                runs["auto"][1],
                f"{ratio:.2f}x",
                runs["dense"][2],
                runs["sparse"][2],
                dense.rounds_used,
                bit_exact,
            ]
        )
        records[name] = {
            "n": g.n,
            "m": g.num_edges,
            "rounds": dense.rounds_used,
            "bit_exact": bit_exact,
            "work_ratio_dense_over_sparse": round(ratio, 3),
            **{e: {"work": runs[e][1], "depth": runs[e][2]} for e in ENGINES},
        }
    OUT_PATH.write_text(
        json.dumps({"experiments": records}, indent=2, sort_keys=True) + "\n"
    )
    return rows


def test_e21_engines_bit_exact_everywhere():
    assert all(row[-1] for row in run_sweep())


def test_e21_sparse_at_least_2x_on_an_e_family_graph():
    rows = [r for r in run_sweep() if r[0] != "long-path"]
    assert any(float(r[6].rstrip("x")) >= 2.0 for r in rows)


def test_e21_sparse_never_charges_more_work():
    for row in run_sweep():
        assert row[4] <= row[3], row[0]


def test_e21_long_path_worst_case_dominates():
    row = [r for r in run_sweep() if r[0] == "long-path"][0]
    assert float(row[6].rstrip("x")) >= 4.0


def test_e21_table(benchmark):
    rows = run_sweep()
    emit(
        "E21: dense vs sparse-frontier relaxation (full-budget SSSP, early exit)",
        [
            "graph", "n", "m", "work dense", "work sparse", "work auto",
            "dense/sparse", "depth dense", "depth sparse", "rounds", "bit-exact",
        ],
        rows,
    )
    g = GRAPHS["layered"]()
    benchmark(lambda: bellman_ford(PRAM(), g, 0, hops=g.n - 1, engine="sparse"))
