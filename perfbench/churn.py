"""The ``churn`` workload: Zipf-hot queries interleaved with graph mutations.

One op in ``mutation_every`` is an ``update``/``delete`` drawn from the
periodic-reweight and failure-burst schedules, rotated over several
congested sets so the lazy hopset refresh recurs inside the measured
window; the rest are queries over a hot source set.  A second server,
booted from the same store, replays the op log in step with a different
batch partition: every reply must be bit-identical to its replay, and at
checkpoints every ``dist`` reply that followed the block's last mutation
must be no less than the exact distance on the mutated graph.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    BLOCK,
    GRAPH_SEED,
    QueryStream,
    Sizes,
    params,
    pct,
    peak_rss_mb,
    settle,
    sub_seed,
    time_setups,
)
from serving import (
    ClosedLoop,
    OpenLoop,
    QueueProbe,
    alternate,
    boot,
    file_inputs,
    fixed_hot_set,
    open_loop_figures,
    registry_counter,
    serving_layers,
    setup_args,
)
from spans import Recorder, install_layer_spans, unrecorded
from workloads import TOL, Outcome

#: Every this many checked blocks, replies are compared with Dijkstra.
CHECKPOINT_EVERY = 10


class MutationStream:
    """Rush-hour laps over ``laps`` disjoint-by-seed congested sets, repeated.

    Each lap is one period of the periodic schedule (its congested streets
    rise from their base weight and fall back) with the burst schedule's
    deletes and restores woven in, one burst op after every seven
    reweights; every burst is restored within its lap, so laps chain
    without ever deleting a missing edge.  A lap repeated on its own stops
    decaying the hopset once its records are dead; rotating over several
    congested sets keeps killing fresh records, so the lazy refresh fires
    again and again, at the same op positions in every run.
    """

    def __init__(self, graph, seed: int, laps: int) -> None:
        from repro.graphs.generators import failure_burst_schedule, periodic_weight_schedule

        self.laps = []
        for k in range(laps):
            lap_seed = sub_seed(seed, k)
            periodic = [
                op for batch in periodic_weight_schedule(
                    graph, 8, frac=0.02, peak=3.0, period=8, seed=lap_seed
                ) for op in batch
            ]
            bursts = [
                op for batch in failure_burst_schedule(
                    graph, bursts=2, burst_size=3, quiet=0, seed=lap_seed + 1
                ) for op in batch
            ]
            ops = []
            while periodic or bursts:
                ops.extend(periodic[:7])
                del periodic[:7]
                ops.extend(bursts[:1])
                del bursts[:1]
            self.laps.append([
                f"delete {u} {v}" if kind == "delete" else f"update {u} {v} {w!r}"
                for kind, u, v, w in ops
            ])
        self.cycle = [line for lap in self.laps for line in lap]
        self.count = 0

    def next(self) -> str:
        line = self.cycle[self.count % len(self.cycle)]
        self.count += 1
        return line


class ChurnStream:
    """Queries with one mutation every ``every`` ops."""

    def __init__(self, queries: QueryStream, mutations: MutationStream, every: int) -> None:
        self.queries = queries
        self.mutations = mutations
        self.every = every
        self.count = 0

    def take(self, k: int) -> list[str]:
        out = []
        for _ in range(k):
            self.count += 1
            if self.count % self.every == 0:
                out.append(self.mutations.next())
            else:
                out.extend(self.queries.take(1))
        return out


def is_mutation(line: str) -> bool:
    return line.startswith(("update", "delete"))


def freshness(lat, queries, interval) -> list[float]:
    """Per mutation: its due time to the reply of the next query after it."""
    fresh = []
    nxt = None
    for i in range(len(queries) - 1, -1, -1):
        if queries[i]:
            nxt = i
        elif nxt is not None and np.isfinite(lat[nxt]):
            fresh.append(lat[nxt] + (nxt - i) * interval)
    return fresh


def run_churn(seed: int, seconds: float, trace: bool, sz: Sizes, wd) -> Outcome:
    from repro.graphs.distances import dijkstra
    from repro.graphs.generators import road_network
    from repro.hopsets.path_reporting import build_path_reporting_hopset
    from repro.pram.machine import PRAM
    from repro.serve import OracleServer

    out = Outcome()
    graph = road_network(sz.churn_side, sz.churn_side, seed=GRAPH_SEED)
    hopset, report = build_path_reporting_hopset(graph, params(), PRAM())
    store = file_inputs(graph, hopset, wd, "paths")
    hot_set = fixed_hot_set(graph.n, sz)

    def churn_stream(tag: int) -> ChurnStream:
        # the mutation cycle is fixed like the graph: which streets congest
        # sets the invalidation and re-exploration cost of a whole run
        return ChurnStream(
            QueryStream(graph.n, sub_seed(seed, tag), hot_set),
            MutationStream(graph, sub_seed(GRAPH_SEED, tag), sz.churn_laps),
            sz.mutation_every,
        )

    stream = churn_stream(3)
    setup_s = time_setups(
        setup_args(wd, store, "paths", "serial", True, sz, hot_set[0], hot_set[-1]),
        sz.setup_reps,
    )
    replay = boot(graph, store, "paths", sz.cache_size, None, dynamic=True)
    checked = [0]

    def check(block, replies, split=BLOCK // 2):
        again = replay.serve_batch(block[:split]) + replay.serve_batch(block[split:])
        for line, reply, want in zip(block, replies, again):
            if reply != want or reply is None or not reply.startswith("ok "):
                out.fail(f"{line!r}: got {reply!r}, replay {want!r}")
        checked[0] += 1
        if checked[0] % CHECKPOINT_EVERY:
            return
        # queries after the block's last mutation saw the graph as it is now
        last = max((i for i, line in enumerate(block) if is_mutation(line)), default=-1)
        snap = replay.dynamic.graph.snapshot()
        exact = {}
        for line, reply in zip(block[last + 1:], replies[last + 1:]):
            kind, u, v = line.split()
            if kind != "dist" or reply is None or not reply.startswith("ok "):
                continue
            u, v = int(u), int(v)
            if u not in exact:
                exact[u] = dijkstra(snap, u)
            got = float(reply.split()[4])
            if got < exact[u][v] * (1 - TOL):
                out.fail(f"{line!r}: {got!r} under exact {exact[u][v]!r}")

    rec = probe = None
    try:
        if trace:
            calib = churn_stream(5)
            blocks = [calib.take(BLOCK) for _ in range(sz.calib_blocks)]

            def timed():
                server = OracleServer(
                    graph, hopset, cache_size=sz.cache_size, dynamic=True,
                    params=params(),
                )
                t0 = time.perf_counter()
                for b in blocks:
                    server.serve_batch(b)
                wall = time.perf_counter() - t0
                server.close()
                return wall

            untraced = timed()
            with Recorder() as cal:
                install_layer_spans(cal)
                traced = timed()
            out.layers["obs.trace_overhead_frac"] = (traced - untraced) / untraced
            rec = Recorder()
            install_layer_spans(rec)
            probe = QueueProbe(rec)

        settle()
        window0 = time.perf_counter()
        server = boot(graph, store, "paths", sz.cache_size, None, dynamic=True)
        live = [server.dynamic.hopset.live_fraction]

        def check_and_sample(block, replies):
            check(block, replies)
            live.append(server.dynamic.hopset.live_fraction)

        try:
            # the first lap's decay is checked, not timed
            failed0 = out.failed
            warm = len(stream.mutations.laps[0]) * sz.mutation_every
            for _ in range(0, warm, BLOCK):
                block = stream.take(BLOCK)
                with unrecorded(rec):
                    check_and_sample(block, server.serve_batch(block))
            out.phase("warmup", stream.count, out.failed - failed0)
            live[:] = [server.dynamic.hopset.live_fraction]  # the window's decay only

            def check_open(lines, replies):
                for lo in range(0, len(lines), BLOCK):
                    check(lines[lo:lo + BLOCK], replies[lo:lo + BLOCK], split=BLOCK // 4)
                live.append(server.dynamic.hopset.live_fraction)

            warm_ops = stream.count
            closed = ClosedLoop(out, server, lambda: stream.take(BLOCK), check_and_sample, rec)
            opened = OpenLoop(
                out, server, sz.rate_churn, check_open, rec,
                probe.submitted if probe else None,
            )
            alternate(
                closed, opened, sz.closed_blocks_churn,
                lambda: stream.take(sz.open_lines_churn), seconds,
            )
            window = time.perf_counter() - window0
            out.phase("closed", closed.sent, closed.failed)
            out.phase("open", len(opened.lines), opened.failed, offered_rate=sz.rate_churn)
            out.attempted += stream.count
            out.info["window_ops"] = stream.count - warm_ops
            lat = opened.lat
            queries = [not is_mutation(line) for line in opened.lines]
            out.e2e = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "ops_per_s": closed.ops_per_s,
            }
            open_loop_figures(out, lat, opened.lags, queries)
            updates = [x for x, q in zip(lat, queries) if not q and np.isfinite(x)]
            fresh = [  # per stretch: a stretch's last mutations have no next query
                x for lo, hi in opened.stretches
                for x in freshness(lat[lo:hi], queries[lo:hi], 1.0 / sz.rate_churn)
            ]
            mutations = registry_counter(
                server, "primitive.serve.update.update.calls"
            ) + registry_counter(server, "primitive.serve.update.delete.calls")
            out.layers.update({
                "dynamic.update_p50_ms": pct(updates, 50) * 1e3,
                "dynamic.update_p95_ms": pct(updates, 95) * 1e3,
                "dynamic.fresh_p50_ms": pct(fresh, 50) * 1e3,
                "dynamic.live_fraction_min": min(live),
                "dynamic.refreshes": registry_counter(
                    server, "primitive.serve.update.refresh.calls"
                ),
                "serve.evicted_per_update": registry_counter(
                    server, "primitive.serve.update.evicted_vectors.elements"
                ) / max(mutations, 1),
            })
            out.info["mutations"] = mutations
            out.info["refreshes"] = out.layers["dynamic.refreshes"]
            serving_layers(out, server, None)
        finally:
            server.close()
    finally:
        replay.close()
        if rec is not None:
            rec.restore()

    out.layers["hopsets.edges"] = hopset.num_records
    out.info.update({"n": graph.n, "build_work": report.work})
    if rec is not None:
        out.traced(rec, window)
        probe.fold(out.layers)
    return out
