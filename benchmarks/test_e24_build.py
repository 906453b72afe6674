"""E24 — warm hopset store vs cold build.

A content-addressed :class:`~repro.hopsets.store.HopsetStore` files every
built hopset under a key derived from (graph, params); a later run with
the same inputs loads it instead of rebuilding.  This experiment times
``HopsetStore.load`` of an already-built artifact against the cold
build that produced it, on the headline ER workload, and checks the
loaded hopset is bit-identical (edges with memory paths and provenance)
to a fresh build.  The acceptance bar is warm < 10% of cold.

Results go to ``benchmarks/BENCH_build.json``.
"""

from __future__ import annotations

import json
import tempfile
import time
from functools import lru_cache
from pathlib import Path

from conftest import emit, record_obs

from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.hopsets.store import HopsetStore
from repro.pram.machine import PRAM

OUT_PATH = Path(__file__).resolve().parent / "BENCH_build.json"

#: kappa=3 drives the build's entry kernels through the x > 1
#: rank-selection path; rho=0.45 keeps the phase count honest.
_PARAMS = HopsetParams(epsilon=0.25, kappa=3, rho=0.45, beta=8)
_WARM_REPEATS = 3


def _graph():
    return erdos_renyi(1200, 0.01, seed=7)


def _edge_key(e):
    return (e.u, e.v, e.weight, e.scale, e.phase, e.kind, e.path)


@lru_cache(maxsize=None)
def run_sweep():
    g = _graph()
    with tempfile.TemporaryDirectory() as root:
        store = HopsetStore(root)
        pram = PRAM()
        t0 = time.perf_counter()
        built, _ = build_hopset(g, _PARAMS, pram=pram)
        store.save(g, _PARAMS, built)
        cold_wall = time.perf_counter() - t0
        warm_wall = float("inf")
        for _ in range(_WARM_REPEATS):
            t0 = time.perf_counter()
            warm = store.load(g, _PARAMS)
            warm_wall = min(warm_wall, time.perf_counter() - t0)
    fresh, _ = build_hopset(g, _PARAMS, pram=PRAM())
    identical = warm is not None and (
        list(map(_edge_key, warm.edges))
        == list(map(_edge_key, built.edges))
        == list(map(_edge_key, fresh.edges))
    )
    record = {
        "n": g.n,
        "m": g.num_edges,
        "edges": built.num_records,
        "work": pram.cost.work,
        "depth": pram.cost.depth,
        "cold_build_wall_s": round(cold_wall, 6),
        "warm_load_wall_s": round(warm_wall, 6),
        "warm_fraction": round(warm_wall / max(cold_wall, 1e-12), 4),
        "bit_identical": bool(identical),
    }
    record_obs(
        "e24/warm-store",
        warm_fraction=record["warm_fraction"],
        cold_build_wall_s=record["cold_build_wall_s"],
        warm_load_wall_s=record["warm_load_wall_s"],
    )
    OUT_PATH.write_text(
        json.dumps({"experiments": {"warm_store": record}}, indent=2, sort_keys=True)
        + "\n"
    )
    return record, g, built


def test_e24_warm_store_is_under_a_tenth_of_cold_and_identical():
    ws = run_sweep()[0]
    assert ws["bit_identical"]
    assert ws["warm_fraction"] < 0.10, ws


def test_e24_json_written_and_parses():
    run_sweep()
    data = json.loads(OUT_PATH.read_text())
    assert set(data["experiments"]) == {"warm_store"}


def test_e24_table(benchmark):
    ws, g, built = run_sweep()
    emit(
        f"E24: warm hopset store vs cold build (er n={ws['n']}, kappa={_PARAMS.kappa})",
        ["cold build ms", "warm load ms", "warm fraction", "bit-identical"],
        [[
            f"{ws['cold_build_wall_s'] * 1e3:.0f}",
            f"{ws['warm_load_wall_s'] * 1e3:.1f}",
            f"{ws['warm_fraction']:.4f}",
            ws["bit_identical"],
        ]],
    )
    with tempfile.TemporaryDirectory() as root:
        store = HopsetStore(root)
        store.save(g, _PARAMS, built)
        benchmark(lambda: store.load(g, _PARAMS))
