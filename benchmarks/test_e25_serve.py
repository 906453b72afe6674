"""E25 — oracle serving layer: latency/QPS under the tiered cache.

The serving layer (``docs/serving.md``) answers micro-batched distance
and path queries from a tiered cache (exact-hit pair LRU → per-source
vectors → β-hop exploration).  This experiment drives a mixed-source
query stream through an in-process :class:`OracleServer` and records,
per backend width (serial, ``sharded:2``):

* **p50/p99/mean request latency** (µs, from the ``serve.latency_us``
  log₂-bucket histogram — p50/p99 are bucket-bound approximations);
* **QPS** for the cold pass (every source explores) and the warm pass
  (tier-0/tier-1 hits), i.e. the cache tiers' throughput effect;
* **cache-hit rates** of both tiers after the warm pass;
* **bit-exactness** of the full served transcript against the offline
  :class:`HopsetDistanceOracle` reference — the differential is part of
  the benchmark, so a perf number can never be quoted off a wrong
  answer.

Worker-count scaling is *informational* (CI hosts expose 1 core; the
sharded width mostly measures IPC there) — correctness columns are the
acceptance criteria, wall figures feed the perf ledger.
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
from repro.obs.export import histogram_quantile
from repro.pram.backends import ShardedBackend
from repro.serve import OracleServer
from repro.serve.protocol import format_dist, format_path
from repro.sssp.oracle import HopsetDistanceOracle, tree_path

OUT_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"

_WIDTHS = ("serial", "sharded:2")
_N_QUERIES = 600
_N_SOURCES = 24
_BATCH = 32


@lru_cache(maxsize=None)
def _workload():
    g = erdos_renyi(400, 0.03, seed=2501, w_range=(1.0, 4.0))
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


@lru_cache(maxsize=None)
def _stream():
    g, _ = _workload()
    rng = np.random.default_rng(2502)
    sources = rng.choice(g.n, size=_N_SOURCES, replace=False)
    lines = []
    for i in range(_N_QUERIES):
        u = int(sources[i % _N_SOURCES])
        v = int(rng.integers(0, g.n))
        lines.append(f"{'path' if i % 8 == 7 else 'dist'} {u} {v}")
    return lines


@lru_cache(maxsize=None)
def _reference():
    """The offline transcript every width must reproduce bit-exactly."""
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
def run_sweep():
    g, H = _workload()
    lines = _stream()
    expected = _reference()
    rows = []
    records = {
        "host": {"cpu_count": os.cpu_count() or 1},
        "workload": {
            "family": "er", "n": g.n, "arcs": int(g.indices.size),
            "queries": len(lines), "sources": _N_SOURCES, "batch": _BATCH,
        },
        "widths": {},
    }
    for width in _WIDTHS:
        backend = (
            ShardedBackend(workers=2, min_arcs=1) if width == "sharded:2" else None
        )
        server = OracleServer(g, H, cache_size=g.n, backend=backend)
        try:
            cold, cold_wall = _serve_pass(server, lines)
            warm, warm_wall = _serve_pass(server, lines)
            bit_exact = cold == expected and warm == expected
            lat = server.registry.histograms["serve.latency_us"]
            pairs = server.pairs.info()
            oracle_info = server.oracle.cache_info()
            rec = {
                "bit_exact": bool(bit_exact),
                "cold_qps": round(len(lines) / max(cold_wall, 1e-12), 1),
                "warm_qps": round(len(lines) / max(warm_wall, 1e-12), 1),
                "latency_p50_us": round(histogram_quantile(lat, 0.50), 2),
                "latency_p99_us": round(histogram_quantile(lat, 0.99), 2),
                "latency_mean_us": round(lat.mean, 2),
                "pair_cache_hit_rate": round(
                    pairs["hits"] / max(pairs["hits"] + pairs["misses"], 1), 4
                ),
                "source_cache_hit_rate": round(
                    oracle_info["hits"]
                    / max(oracle_info["hits"] + oracle_info["misses"], 1),
                    4,
                ),
                "explorations": oracle_info["explorations"],
                "degraded": server.degraded,
            }
        finally:
            server.close()
            if backend is not None:
                engaged = backend.sharded_rounds > 0 and not backend.failed
                backend.close()
            else:
                engaged = None
        if engaged is not None:
            rec["engaged"] = bool(engaged)
        records["widths"][width] = rec
        rows.append([
            width, f"{rec['cold_qps']:.0f}", f"{rec['warm_qps']:.0f}",
            f"{rec['latency_p50_us']:.0f}", f"{rec['latency_p99_us']:.0f}",
            f"{100 * rec['pair_cache_hit_rate']:.0f}%", rec["bit_exact"],
        ])
        record_obs(
            f"e25/{width}",
            cold_qps=rec["cold_qps"],
            warm_qps=rec["warm_qps"],
            latency_p50_us=rec["latency_p50_us"],
            latency_p99_us=rec["latency_p99_us"],
        )
    OUT_PATH.write_text(
        json.dumps({"experiments": records}, indent=2, sort_keys=True) + "\n"
    )
    return rows, records


def test_e25_bit_exact_at_every_width():
    _, records = run_sweep()
    for width, rec in records["widths"].items():
        assert rec["bit_exact"], width
        assert rec["degraded"] is None, width


def test_e25_sharded_width_engaged_the_pool():
    _, records = run_sweep()
    assert records["widths"]["sharded:2"]["engaged"]


def test_e25_cache_tiers_pay_off():
    _, records = run_sweep()
    for width, rec in records["widths"].items():
        # warm pass answers from the caches: strictly faster than cold
        assert rec["warm_qps"] > rec["cold_qps"], width
        assert rec["pair_cache_hit_rate"] > 0.0, width
        assert rec["explorations"] == _N_SOURCES, width  # one per source


def test_e25_latency_quantiles_ordered():
    _, records = run_sweep()
    for width, rec in records["widths"].items():
        assert 0 < rec["latency_p50_us"] <= rec["latency_p99_us"], width


def test_e25_json_written_and_parses():
    run_sweep()
    exps = json.loads(OUT_PATH.read_text())["experiments"]
    assert set(exps["widths"]) == set(_WIDTHS)
    assert exps["workload"]["queries"] == _N_QUERIES
    for rec in exps["widths"].values():
        for key in ("cold_qps", "warm_qps", "latency_p50_us",
                    "latency_p99_us", "pair_cache_hit_rate"):
            assert isinstance(rec[key], (int, float))


def test_e25_table(benchmark):
    rows, _ = run_sweep()
    emit(
        f"E25: oracle serving latency/QPS ({_N_QUERIES} mixed queries, "
        f"{_N_SOURCES} sources, batch {_BATCH})",
        ["backend", "cold qps", "warm qps", "p50 us", "p99 us",
         "pair hits", "bit exact"],
        rows,
    )
    g, H = _workload()
    server = OracleServer(g, H, cache_size=g.n)
    lines = _stream()[:_BATCH]
    server.serve_batch(lines)  # warm the tiers; benchmark the hit path
    try:
        benchmark(lambda: server.serve_batch(lines))
    finally:
        server.close()
