"""E26 — the S×V matrix relaxation engine: crossover and serving payoff.

The matrix engine (``docs/mssp.md``) advances S sources as one
(S × V) distance/parent matrix, one vectorized relaxation pass per
round, instead of S independent arc scans.  This experiment measures
the two numbers the engine's default exists to justify:

* **Loop-vs-batch crossover.**  ``approximate_mssd`` wall-clock with
  ``block=1`` (one source per pass: the per-source loop, with the solo
  dense run's per-row charges) against ``block=S`` for
  S ∈ {1, 2, 4, 8, 16, 32}; the *crossover* is the smallest S at which
  the matrix wins.  Each timed pair also re-checks bit-exactness —
  a speedup is never quoted off a wrong matrix.

* **Serving QPS delta.**  An :class:`OracleServer` with the matrix
  grouped pre-explore (``mssp_block`` default) against one at width 1,
  so every micro-batch explores source-by-source.  Cold QPS is where
  grouping pays (each micro-batch's distinct uncached sources become one
  S×V pass); warm QPS should be unchanged (caches answer).  Each mode
  also records its batched rounds by direction (``push_rounds`` /
  ``pull_rounds``, ``docs/mssp.md``).

Wall figures feed the perf ledger via ``record_obs``; correctness
columns are the acceptance criteria.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
from conftest import emit, record_obs

from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.machine import PRAM
from repro.serve import OracleServer
from repro.serve.protocol import format_dist, format_path
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK
from repro.sssp.multi_source import approximate_mssd
from repro.sssp.oracle import HopsetDistanceOracle, tree_path

OUT_PATH = Path(__file__).resolve().parent / "BENCH_mssp.json"

_WIDTHS = (1, 2, 4, 8, 16, 32)
_REPEATS = 3
_N_QUERIES = 480
_N_SOURCES = 32
_BATCH = 32


@lru_cache(maxsize=None)
def _workload():
    g = erdos_renyi(320, 0.04, seed=2601, w_range=(1.0, 4.0))
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


def _mssd_wall(g, H, sources, block):
    """Best-of-_REPEATS wall for one aMSSD sweep (plus its result)."""
    best, res = float("inf"), None
    for _ in range(_REPEATS):
        pram = PRAM()
        t0 = time.perf_counter()
        out = approximate_mssd(g, H, sources, pram=pram, block=block)
        best = min(best, time.perf_counter() - t0)
        res = out
    return best, res


@lru_cache(maxsize=None)
def crossover_sweep():
    g, H = _workload()
    rng = np.random.default_rng(2602)
    rows, widths = [], {}
    crossover = None
    all_exact = True
    for s in _WIDTHS:
        sources = rng.choice(g.n, size=s, replace=False)
        loop_wall, loop = _mssd_wall(g, H, sources, block=1)
        batch_wall, batch = _mssd_wall(g, H, sources, block=s)
        exact = np.array_equal(loop.dist, batch.dist) and np.array_equal(
            loop.parent, batch.parent
        )
        all_exact = all_exact and exact
        speedup = loop_wall / max(batch_wall, 1e-12)
        if crossover is None and speedup > 1.0:
            crossover = s
        widths[str(s)] = {
            "loop_ms": round(loop_wall * 1e3, 3),
            "batch_ms": round(batch_wall * 1e3, 3),
            "speedup": round(speedup, 3),
            "bit_exact": bool(exact),
        }
        rows.append([s, f"{loop_wall * 1e3:.2f}", f"{batch_wall * 1e3:.2f}",
                     f"{speedup:.2f}x", exact])
        record_obs(f"e26/mssd/S{s}", loop_ms=widths[str(s)]["loop_ms"],
                   batch_ms=widths[str(s)]["batch_ms"], speedup=speedup)
    return rows, {
        "widths": widths,
        "crossover_s": crossover,
        "bit_exact": bool(all_exact),
    }


@lru_cache(maxsize=None)
def _stream():
    g, _ = _workload()
    rng = np.random.default_rng(2603)
    sources = rng.choice(g.n, size=_N_SOURCES, replace=False)
    return [
        f"{'path' if i % 8 == 7 else 'dist'} "
        f"{int(sources[i % _N_SOURCES])} {int(rng.integers(0, g.n))}"
        for i in range(_N_QUERIES)
    ]


@lru_cache(maxsize=None)
def _reference():
    g, H = _workload()
    offline = HopsetDistanceOracle(g, H, cache_size=g.n)
    expected = []
    for line in _stream():
        kind, u, v = line.split()
        u, v = int(u), int(v)
        dist, parent = offline.vectors_from(u)
        if kind == "dist":
            expected.append(format_dist(u, v, 0.0 if u == v else float(dist[v])))
        else:
            walk = (
                [u] if u == v
                else tree_path(parent, u, v, g.n) if np.isfinite(dist[v])
                else None
            )
            expected.append(format_path(u, v, walk))
    return expected


def _serve_pass(server, lines):
    replies = []
    t0 = time.perf_counter()
    for lo in range(0, len(lines), _BATCH):
        replies.extend(server.serve_batch(lines[lo:lo + _BATCH]))
    return replies, time.perf_counter() - t0


@lru_cache(maxsize=None)
def serve_sweep():
    g, H = _workload()
    lines = _stream()
    expected = _reference()
    modes = {}
    rows = []
    for mode, block in (("looped", 1), ("matrix", DEFAULT_MSSP_BLOCK)):
        server = OracleServer(
            g, H, cache_size=g.n, mssp_block=block
        )
        try:
            cold, cold_wall = _serve_pass(server, lines)
            warm, warm_wall = _serve_pass(server, lines)
            info = server.oracle.cache_info()
            rec = {
                "bit_exact": bool(cold == expected and warm == expected),
                "cold_qps": round(len(lines) / max(cold_wall, 1e-12), 1),
                "warm_qps": round(len(lines) / max(warm_wall, 1e-12), 1),
                "matrix_passes": info["matrix_passes"],
                "tier2_explorations": info["tier2_explorations"],
                "push_rounds": info["push_rounds"],
                "pull_rounds": info["pull_rounds"],
            }
        finally:
            server.close()
        modes[mode] = rec
        rows.append([mode, f"{rec['cold_qps']:.0f}", f"{rec['warm_qps']:.0f}",
                     rec["matrix_passes"], rec["push_rounds"],
                     rec["pull_rounds"], rec["bit_exact"]])
        record_obs(f"e26/serve/{mode}", cold_qps=rec["cold_qps"],
                   warm_qps=rec["warm_qps"])
    modes["cold_qps_delta"] = round(
        modes["matrix"]["cold_qps"] - modes["looped"]["cold_qps"], 1
    )
    modes["cold_speedup"] = round(
        modes["matrix"]["cold_qps"] / max(modes["looped"]["cold_qps"], 1e-12), 3
    )
    return rows, modes


@lru_cache(maxsize=None)
def write_bench():
    _, crossover = crossover_sweep()
    _, serve = serve_sweep()
    g, H = _workload()
    records = {
        "host": {"cpu_count": os.cpu_count() or 1},
        "workload": {
            "family": "er", "n": g.n, "arcs": int(g.indices.size),
            "queries": _N_QUERIES, "sources": _N_SOURCES, "batch": _BATCH,
        },
        "crossover": crossover,
        "serve": serve,
    }
    OUT_PATH.write_text(
        json.dumps({"experiments": records}, indent=2, sort_keys=True) + "\n"
    )
    return records


def test_e26_matrix_bit_exact_at_every_width():
    _, crossover = crossover_sweep()
    assert crossover["bit_exact"]
    for s, rec in crossover["widths"].items():
        assert rec["bit_exact"], s


def test_e26_served_transcripts_bit_exact_both_modes():
    _, serve = serve_sweep()
    assert serve["looped"]["bit_exact"]
    assert serve["matrix"]["bit_exact"]


def test_e26_matrix_mode_groups_the_batches():
    _, serve = serve_sweep()
    # the looped server explores source-by-source; the matrix server folds
    # each micro-batch's distinct uncached sources into far fewer passes
    assert serve["looped"]["matrix_passes"] == serve["looped"]["tier2_explorations"]
    assert serve["matrix"]["matrix_passes"] < serve["matrix"]["tier2_explorations"]
    # grouping never changes *what* is explored
    assert (
        serve["matrix"]["tier2_explorations"]
        == serve["looped"]["tier2_explorations"]
        == _N_SOURCES
    )


def test_e26_matrix_serve_pushes_some_rounds():
    _, serve = serve_sweep()
    # the matrix server's wide blocks relax only the frontier's out-arcs in
    # their first and last rounds; the middle rounds pull every arc
    assert serve["matrix"]["push_rounds"] > 0
    assert serve["matrix"]["pull_rounds"] > 0


def test_e26_json_written_and_parses():
    write_bench()
    exps = json.loads(OUT_PATH.read_text())["experiments"]
    assert set(exps["crossover"]["widths"]) == {str(s) for s in _WIDTHS}
    cross = exps["crossover"]["crossover_s"]
    assert cross is None or int(cross) in _WIDTHS
    for key in ("cold_qps_delta", "cold_speedup"):
        assert isinstance(exps["serve"][key], (int, float))


def test_e26_table(benchmark):
    cross_rows, crossover = crossover_sweep()
    serve_rows, _ = serve_sweep()
    write_bench()
    emit(
        f"E26a: aMSSD loop vs S×V matrix (er n=320, best of {_REPEATS})",
        ["S", "loop ms", "batch ms", "speedup", "bit exact"],
        cross_rows,
    )
    emit(
        f"E26b: serving with grouped matrix pre-explore "
        f"({_N_QUERIES} queries, batch {_BATCH})",
        ["mode", "cold qps", "warm qps", "matrix passes", "push rounds",
         "pull rounds", "bit exact"],
        serve_rows,
    )
    g, H = _workload()
    sources = np.arange(16)
    benchmark(lambda: approximate_mssd(g, H, sources, block=16))
