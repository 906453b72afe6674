"""The serving workloads: ``query-cold`` here, ``churn`` in :mod:`churn`.

Every server is booted from the warm hopset store, as a deployment would
start.  Capacity is closed-loop: one caller sends ``serve_batch`` blocks of
32 back to back, and only the time inside ``serve_batch`` counts, so the
answer checks between blocks cost nothing.  Latency is open-loop: this
thread calls ``submit_line`` on a fixed schedule, each request is timed
from its due time to its reply, and the generator's own lateness is
reported beside it.  The window alternates a closed-loop stretch and an
open-loop stretch (:func:`alternate`).  No thread or process is added
beyond the server's collector and, on ``query-cold``, the two sharded
workers.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from common import (
    BLOCK,
    EPSILON,
    GRAPH_SEED,
    BenchError,
    QueryStream,
    Sizes,
    params,
    pct,
    peak_rss_mb,
    segment_pct,
    settle,
    sub_seed,
    time_setups,
)
from spans import Recorder, install_layer_spans, unrecorded
from workloads import TOL, Outcome


def registry_counter(server, name: str) -> int:
    counter = server.registry.counters.get(name)
    return counter.value if counter is not None else 0


class Transcript:
    """The offline :class:`HopsetDistanceOracle` answer to each request line."""

    def __init__(self, graph, hopset, sources) -> None:
        from repro.sssp.oracle import HopsetDistanceOracle

        self.n = graph.n
        self.oracle = HopsetDistanceOracle(graph, hopset, cache_size=graph.n)
        self.oracle.explore_many(sorted(set(int(s) for s in sources)))

    def reply(self, line: str) -> str:
        from repro.serve.protocol import format_dist, format_path
        from repro.sssp.oracle import tree_path

        kind, u, v = line.split()
        u, v = int(u), int(v)
        dist, parent = self.oracle.vectors_from(u)
        if kind == "dist":
            return format_dist(u, v, 0.0 if u == v else float(dist[v]))
        walk = (
            [u] if u == v
            else tree_path(parent, u, v, self.n) if np.isfinite(dist[v])
            else None
        )
        return format_path(u, v, walk)


def check_stretch(out: Outcome, graph, transcript: Transcript, sources) -> float:
    """Offline vectors never under Dijkstra and within (1+ε) of it."""
    from repro.graphs.distances import dijkstra

    worst = 1.0
    for s in sources:
        exact = dijkstra(graph, int(s))
        approx = transcript.oracle.vectors_from(int(s))[0]
        fin = np.isfinite(exact) & (exact > 0)
        ratio = approx[fin] / exact[fin]
        worst = max(worst, float(ratio.max()) if ratio.size else 1.0)
        bad = int(((ratio < 1 - TOL) | (ratio > (1 + EPSILON) * (1 + TOL))).sum())
        bad += int(np.isfinite(approx[~np.isfinite(exact)]).sum())
        if bad:
            out.fail(f"source {s}: {bad} distances outside [d, (1+eps) d]", bad)
    return worst


class ClosedLoop:
    """Blocks of ``BLOCK`` sent back to back, a stretch of them per :meth:`run`.

    Keeps each block's size and its seconds inside ``serve_batch``;
    ``ops_per_s`` is their rate over every stretch.
    """

    def __init__(self, out: Outcome, server, next_block, check, rec=None) -> None:
        self.out, self.server, self.next_block, self.check, self.rec = (
            out, server, next_block, check, rec
        )
        self.items: list[int] = []
        self.busy: list[float] = []
        self.failed = 0

    def run(self, blocks: int) -> None:
        for _ in range(blocks):
            block = self.next_block()
            if self.rec is not None:
                self.rec.op = self.sent
            t0 = time.perf_counter()
            try:
                replies = self.server.serve_batch(block)
            except Exception as exc:  # booked as failed replies by ``check``
                replies = [f"exception {exc!r}"] * len(block)
            self.busy.append(time.perf_counter() - t0)
            self.items.append(len(block))
            failed0 = self.out.failed
            with unrecorded(self.rec):
                self.check(block, replies)
            self.failed += self.out.failed - failed0

    @property
    def sent(self) -> int:
        return sum(self.items)

    @property
    def ops_per_s(self) -> float:
        return self.sent / sum(self.busy)


class OpenLoop:
    """Lines submitted on a fixed schedule, one stretch per :meth:`run`.

    Keeps every line with its latency (from its due time) and the
    generator's lateness; each stretch's replies are checked after it.
    """

    def __init__(self, out: Outcome, server, rate, check, rec=None, submitted=None) -> None:
        self.out, self.server, self.rate, self.check, self.rec = out, server, rate, check, rec
        self.submitted = submitted
        self.lines: list[str] = []
        self.lat: list[float] = []
        self.lags: list[float] = []
        self.stretches: list[tuple[int, int]] = []  # index range of each stretch
        self.failed = 0

    def run(self, lines: list[str]) -> None:
        replies, lat, lags = open_loop(self.server, lines, self.rate, self.submitted)
        self.stretches.append((len(self.lines), len(self.lines) + len(lines)))
        self.lines += lines
        self.lat += lat
        self.lags += lags
        failed0 = self.out.failed
        with unrecorded(self.rec):
            self.check(lines, replies)
        self.failed += self.out.failed - failed0


def alternate(closed: ClosedLoop, opened: OpenLoop, blocks: int, next_lines,
              seconds: float) -> None:
    """Closed and open stretches in turn until ``seconds`` have passed.

    The host's speed drifts over seconds; alternating stretches of about a
    second makes both loops sample it across the whole window rather than
    each in its own half.  A stretch is a fixed count (``blocks`` blocks,
    then ``next_lines()``), so every run splits the same op stream at the
    same places; only the number of rounds varies.  At least one round runs.
    """
    t_end = time.perf_counter() + seconds
    while True:
        closed.run(blocks)
        opened.run(next_lines())
        if time.perf_counter() >= t_end:
            return


def open_loop(server, lines, rate, submitted=None):
    """Submit ``lines`` on a fixed schedule; returns (replies, latency_s, lag_s).

    Each latency runs from the request's due time to its reply; a reply
    that never arrives is ``None`` with an infinite latency.
    """
    interval = 1.0 / rate
    n = len(lines)
    done = [None] * n
    replies: list[str | None] = [None] * n
    lags = []
    pending = [n]
    lock = threading.Lock()
    finished = threading.Event()

    # Futures are not kept: a reply and its time are stored on arrival, so
    # the generator holds no growing heap of objects for the collector to scan.
    def on_reply(i):
        def record(fut):
            done[i] = time.perf_counter()
            if fut.exception() is None:
                replies[i] = fut.result()
            with lock:
                pending[0] -= 1
                if not pending[0]:
                    finished.set()

        return record

    start = time.perf_counter() + 0.005
    for i, line in enumerate(lines):
        due = start + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        lags.append(now - due)
        if submitted is not None:
            submitted[id(line)] = (now, i)
        server.submit_line(line).add_done_callback(on_reply(i))
    finished.wait(timeout=60)
    lat = [
        done[i] - (start + i * interval) if replies[i] is not None else float("inf")
        for i in range(n)
    ]
    return replies, lat, lags


def open_loop_figures(out: Outcome, lat, lags, queries) -> None:
    """p50/p95 of the query latencies; a run whose generator lagged is invalid."""
    q = [x for x, is_q in zip(lat, queries) if is_q and np.isfinite(x)]
    out.e2e["p50_ms"] = segment_pct(q, 50) * 1e3
    out.e2e["p95_ms"] = segment_pct(q, 95) * 1e3
    out.info["p99_ms"] = pct(q, 99) * 1e3
    lag_ms = pct(lags, 50) * 1e3
    out.layers["serve.lag_ms"] = lag_ms
    out.info["open_loop_query_samples"] = len(q)
    out.info["lag_p50_ms"] = lag_ms
    out.info["lag_max_ms"] = max(lags) * 1e3 if lags else 0.0
    if lag_ms > out.e2e["p50_ms"]:
        raise BenchError(
            f"invalid run: generator lag {lag_ms:.3f} ms exceeds p50 "
            f"{out.e2e['p50_ms']:.3f} ms"
        )


class QueueProbe:
    """Queue wait (submit -> batch start) and batch sizes, traced runs only."""

    def __init__(self, rec: Recorder) -> None:
        from repro.serve.server import OracleServer

        self.submitted: dict[int, tuple[float, int]] = {}
        self.waits: list[float] = []
        self.sizes: list[int] = []

        def make(fn):
            def serve_batch(server, items):
                now = time.perf_counter()
                hits = [self.submitted.pop(id(it), None) for it in items]
                hits = [h for h in hits if h is not None]
                if hits:
                    rec.op = hits[0][1]
                    self.sizes.append(len(items))
                    self.waits.extend(now - t for t, _ in hits)
                return fn(server, items)

            return serve_batch

        rec.replace(OracleServer, "serve_batch", make)

    def fold(self, layers: dict) -> None:
        layers["serve.queue_wait_p50_ms"] = pct(self.waits, 50) * 1e3
        layers["serve.queue_wait_p99_ms"] = pct(self.waits, 99) * 1e3
        layers["serve.batch_size"] = float(np.mean(self.sizes)) if self.sizes else 0.0


def serving_layers(out: Outcome, server, backend) -> None:
    """Cache, matrix-engine and backend figures read through public counters."""
    pairs = server.pairs.info()
    info = server.oracle.cache_info()
    out.layers["serve.pair_hit_rate"] = pairs["hits"] / max(
        pairs["hits"] + pairs["misses"], 1
    )
    out.layers["sssp.vector_hit_rate"] = info["hits"] / max(
        info["hits"] + info["misses"], 1
    )
    out.layers["sssp.matrix_passes"] = info["matrix_passes"]
    out.layers["sssp.rows_per_pass"] = info["explorations"] / max(
        info["matrix_passes"], 1
    )
    if backend is not None:
        rounds = backend.sharded_rounds + backend.serial_rounds
        out.layers["pram_backends.sharded_round_frac"] = backend.sharded_rounds / max(
            rounds, 1
        )
    calls = registry_counter(server, "primitive.backend.imbalance_milli.calls")
    out.layers["pram_backends.imbalance"] = (
        registry_counter(server, "primitive.backend.imbalance_milli.elements")
        / max(calls, 1) / 1e3
    )
    out.layers["pram_backends.ipc_s"] = (
        registry_counter(server, "primitive.backend.ipc_ns.elements") / 1e9
    )
    out.layers["pram_backends.fallbacks"] = registry_counter(
        server, "primitive.backend.fallback.calls"
    )
    out.layers["pram.charged_work"] = server.pram.cost.work
    out.layers["pram.charged_depth"] = server.pram.cost.depth


def fixed_hot_set(n: int, sz: Sizes) -> np.ndarray:
    """The hot sources of ``churn``, fixed like the graph.

    Which sources are hot sets the cost of exploring, evicting and
    re-exploring them; the seed draws only the request stream over them.
    """
    rng = np.random.default_rng(sub_seed(GRAPH_SEED, 2))
    return rng.choice(n, size=sz.hot_sources, replace=False)


def boot(graph, store, variant, cache, backend, dynamic=False):
    """A server booted from the warm store."""
    from repro.serve import OracleServer

    hopset = store.load(graph, params(), variant)
    if hopset is None:
        raise BenchError("hopset store miss right after saving")
    return OracleServer(
        graph, hopset, cache_size=cache, backend=backend,
        dynamic=dynamic, params=params() if dynamic else None,
    )


def file_inputs(graph, hopset, wd, variant):
    """Save the graph and file the hopset in a store, for the set-up processes."""
    from repro.hopsets.store import HopsetStore
    from repro.serialize import save_graph

    store = HopsetStore(wd / "store")
    store.save(graph, params(), hopset, variant)
    save_graph(wd / "graph.npz", graph)
    return store


def setup_args(wd, store, variant, backend, dynamic, sz: Sizes, u, v) -> list[str]:
    return ["serve", str(wd / "graph.npz"), str(store.root), variant, backend,
            "1" if dynamic else "0", str(sz.cache_size), f"dist {int(u)} {int(v)}"]


def run_query(seed: int, seconds: float, trace: bool, sz: Sizes, wd):
    """``query-cold``: uniform sources on the ``sharded:2`` backend."""
    from repro.graphs.generators import erdos_renyi
    from repro.hopsets.multi_scale import build_hopset
    from repro.pram.backends.sharded import ShardedBackend
    from repro.pram.machine import PRAM
    from repro.serve import OracleServer

    out = Outcome()
    graph = erdos_renyi(sz.er_n, sz.er_p, seed=GRAPH_SEED, w_range=(1.0, 4.0))
    hopset, report = build_hopset(graph, params(), pram=PRAM())
    store = file_inputs(graph, hopset, wd, "plain")
    sources = np.arange(graph.n)
    stream = QueryStream(graph.n, sub_seed(seed, 3))
    setup_s = time_setups(
        setup_args(wd, store, "plain", "sharded", False, sz, sources[0], sources[-1]),
        sz.setup_reps,
    )
    transcript = Transcript(graph, hopset, sources)
    rng = np.random.default_rng(sub_seed(seed, 2))
    sample = rng.choice(sources, size=min(sz.stretch_sources, len(sources)), replace=False)
    stretch = check_stretch(out, graph, transcript, sample)

    def check(block, replies):
        for line, reply in zip(block, replies):
            expected = transcript.reply(line)
            if reply != expected:
                out.fail(f"{line!r}: got {reply!r}, want {expected!r}")

    backend = ShardedBackend(workers=2)
    rate = sz.rate_cold
    rec = probe = None
    try:
        if trace:
            calib = QueryStream(graph.n, sub_seed(seed, 4))
            blocks = [calib.take(BLOCK) for _ in range(sz.calib_blocks)]

            def timed(backend_used):
                server = OracleServer(
                    graph, hopset, cache_size=sz.cache_size, backend=backend_used
                )
                t0 = time.perf_counter()
                for b in blocks:
                    server.serve_batch(b)
                wall = time.perf_counter() - t0
                server.close()
                return wall, server.pram.cost

            timed(backend)  # warm-up: starts the worker pool
            untraced, cost = timed(backend)
            # measured 2-core scaling: the same blocks on the serial backend
            serial, _ = timed(None)
            out.layers["pram_backends.sharded_speedup"] = serial / untraced
            out.layers["pram_backends.brent_speedup"] = cost.time_on(1) / cost.time_on(2)
            with Recorder() as cal:
                install_layer_spans(cal)
                traced, _ = timed(backend)
            out.layers["obs.trace_overhead_frac"] = (traced - untraced) / untraced
            rec = Recorder()
            install_layer_spans(rec)
            probe = QueueProbe(rec)

        settle()
        window0 = time.perf_counter()
        server = boot(graph, store, "plain", sz.cache_size, backend)
        try:
            closed = ClosedLoop(out, server, lambda: stream.take(BLOCK), check, rec)
            opened = OpenLoop(
                out, server, rate, check, rec, probe.submitted if probe else None
            )
            alternate(
                closed, opened, sz.closed_blocks_cold,
                lambda: stream.take(sz.open_lines_cold), seconds,
            )
            window = time.perf_counter() - window0
            out.phase("closed", closed.sent, closed.failed)
            out.phase("open", len(opened.lines), opened.failed, offered_rate=rate)
            out.attempted += closed.sent + len(opened.lines)
            out.e2e = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "ops_per_s": closed.ops_per_s,
            }
            open_loop_figures(out, opened.lat, opened.lags, [True] * len(opened.lines))
            serving_layers(out, server, backend)
        finally:
            server.close()
    finally:
        if rec is not None:
            rec.restore()
        if backend is not None:
            backend.close()

    out.layers.update({"hopsets.edges": hopset.num_records, "hopsets.stretch_max": stretch})
    out.info.update({"n": graph.n, "arcs": int(graph.indices.size), "build_work": report.work})
    if rec is not None:
        out.traced(rec, window)
        probe.fold(out.layers)
    return out
