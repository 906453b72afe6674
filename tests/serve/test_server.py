"""OracleServer behavior: tiers, batching, TCP transport, replay, metrics."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.obs.export import histogram_quantile, serve_health_report
from repro.obs.metrics import Histogram
from repro.serve import MicroBatcher, OracleServer, PairCache, serve_tcp
from repro.serve.server import read_query_log
from repro.sssp.oracle import HopsetDistanceOracle


@pytest.fixture(scope="module")
def setup():
    g = erdos_renyi(36, 0.12, seed=401, w_range=(1.0, 3.0))
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


@pytest.fixture
def server(setup):
    g, H = setup
    srv = OracleServer(g, H)
    yield srv
    srv.close()


# -- tiered answering --------------------------------------------------------


def test_dist_matches_offline_oracle(setup, server):
    g, H = setup
    offline = HopsetDistanceOracle(g, H)
    for u, v in ((0, 5), (5, 0), (3, 3), (7, 31)):
        assert server.query(u, v) == float(offline.distances_from(u)[v]) if u != v \
            else server.query(u, v) == 0.0


def test_pair_cache_hit_skips_all_lower_tiers(server):
    first = server.query(2, 9)
    hits0 = server.pairs.hits
    oracle_hits0 = server.oracle.hits
    assert server.query(2, 9) == first
    assert server.pairs.hits == hits0 + 1
    assert server.oracle.hits == oracle_hits0  # tier 1 never consulted


def test_canonical_source_no_endpoint_swap(setup, server):
    """dist U V always reads U's vector, even when only V is cached."""
    g, H = setup
    server.query(4, 11)  # caches source 4
    assert server.oracle.is_cached(4)
    explorations = server.oracle.explorations
    got = server.query(11, 4)  # must explore 11, not swap to cached 4
    assert server.oracle.explorations == explorations + 1
    offline = HopsetDistanceOracle(g, H)
    assert got == float(offline.distances_from(11)[4])


def test_path_reply_follows_first_named_endpoint(setup, server):
    g, H = setup
    walk = server.path(0, 13)
    assert walk is not None and walk[0] == 0 and walk[-1] == 13
    assert server.path(13, 13) == [13]


def test_source_charges_attribute_work(server):
    server.query(6, 1)
    assert server.source_charges.get(6, 0) > 0
    charged = server.source_charges[6]
    server.query(6, 2)  # cached source: no new exploration work
    assert server.source_charges[6] == charged


# -- request handling --------------------------------------------------------


def test_handle_line_replies(server):
    assert server.handle_line("dist 0 0") == "ok dist 0 0 0.0"
    assert server.handle_line("path 5 5") == "ok path 5 5 5"
    assert server.handle_line("stats").startswith("ok stats {")
    assert server.handle_line("quit") == "ok bye"


def test_errors_are_replies_not_crashes(server):
    assert server.handle_line("dist 0 999").startswith("err out-of-range ")
    assert server.handle_line("dist -1 0").startswith("err out-of-range ")
    assert server.handle_line("nope").startswith("err bad-request ")
    assert server.handle_line("dist x y").startswith("err bad-request ")
    # the server keeps serving afterwards
    assert server.handle_line("dist 0 1").startswith("ok dist 0 1 ")
    assert server.errors == 4


def test_mixed_batch_keeps_per_line_isolation(server):
    replies = server.serve_batch(["dist 0 3", "garbage", "dist 0 3", "stats"])
    assert replies[0].startswith("ok dist 0 3 ")
    assert replies[1].startswith("err bad-request ")
    assert replies[2] == replies[0]
    assert replies[3].startswith("ok stats ")


def test_submit_line_futures_resolve_in_arrival_order(server):
    futs = [server.submit_line(f"dist {u} {v}")
            for u in (0, 1, 2) for v in (3, 4)]
    replies = [f.result(timeout=30) for f in futs]
    direct = [server.handle_line(f"dist {u} {v}")
              for u in (0, 1, 2) for v in (3, 4)]
    assert replies == direct


# -- query log + replay ------------------------------------------------------


def test_query_log_records_and_replays_bitwise(setup, tmp_path):
    g, H = setup
    log = tmp_path / "queries.log"
    srv = OracleServer(g, H, log_path=log)
    replies = srv.serve_batch(
        ["dist 0 5", "path 0 9", "stats", "bad line", "dist 5 0"]
    )
    srv.close()
    lines = read_query_log(log)
    # stats (nondeterministic reply) and the malformed line are not recorded
    assert lines == ["dist 0 5", "path 0 9", "dist 5 0"]
    fresh = OracleServer(g, H)
    replayed = fresh.replay(lines)
    fresh.close()
    assert replayed == [replies[0], replies[1], replies[4]]


# -- TCP transport -----------------------------------------------------------


def test_tcp_round_trip_and_quit(setup):
    g, H = setup
    srv = OracleServer(g, H)
    tcp = serve_tcp(srv)
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(("127.0.0.1", tcp.port), timeout=30) as s:
            fh = s.makefile("rw")
            fh.write("dist 1 4\nbogus\npath 1 4\nquit\n")
            fh.flush()
            assert fh.readline().strip() == srv.handle_line("dist 1 4")
            assert fh.readline().startswith("err bad-request ")
            assert fh.readline().strip() == srv.handle_line("path 1 4")
            assert fh.readline().strip() == "ok bye"
            assert fh.readline() == ""  # connection closed after quit
    finally:
        tcp.shutdown()
        tcp.server_close()
        srv.close()


def test_request_limit_callback_fires_once(setup):
    g, H = setup
    srv = OracleServer(g, H)
    fired = []
    srv.on_request_limit(2, lambda: fired.append(True))
    srv.handle_line("dist 0 1")
    assert not fired
    srv.handle_line("dist 0 2")
    srv.handle_line("dist 0 3")
    assert fired == [True]
    srv.close()


# -- observability -----------------------------------------------------------


def test_serve_traffic_and_health_report(setup):
    g, H = setup
    srv = OracleServer(g, H)
    srv.serve_batch(["dist 0 5", "dist 0 5", "dist 0 99"])
    counters = srv.registry.counters
    assert counters["primitive.serve.request.elements"].value == 3
    assert counters["primitive.serve.batch.elements"].value == 3
    assert counters["primitive.serve.cache.pair.hit.elements"].value == 1
    assert counters["primitive.serve.error.out-of-range.elements"].value == 1
    assert srv.registry.histograms["serve.latency_us"].count == 3
    report = serve_health_report(srv.registry)
    assert "requests" in report and "pair cache hit rate" in report
    assert "errors (out-of-range)" in report
    assert "queue wait p50 us" in report and "queue wait p99 us" in report
    srv.close()


_STAGES = ("serve.queue_wait_us", "serve.explore_us", "serve.answer_us")


def test_latency_covers_queue_wait_behind_a_held_evaluation(setup):
    """serve.latency_us runs from submit to reply and splits into its stages.

    The collector is held inside one evaluation (its exploration blocks)
    for at least 50 ms while a second request is submitted: that request's
    latency includes the hold, and the three stage histograms sum to the
    latency histogram.
    """
    g, H = setup
    srv = OracleServer(g, H)
    hold_s = 0.05
    holding, release = threading.Event(), threading.Event()
    explore_many = srv.oracle.explore_many

    def held(sources):
        if not holding.is_set():
            holding.set()
            assert release.wait(30)
        return explore_many(sources)

    srv.oracle.explore_many = held
    first = srv.submit_line("dist 0 1")
    assert holding.wait(30)
    second = srv.submit_line("dist 2 3")
    time.sleep(hold_s)
    release.set()
    assert first.result(timeout=30).startswith("ok dist 0 1 ")
    assert second.result(timeout=30).startswith("ok dist 2 3 ")
    srv.close()
    hists = srv.registry.histograms
    lat = hists["serve.latency_us"]
    assert lat.count == 2 and lat.min >= hold_s * 1e6
    assert hists["serve.queue_wait_us"].max >= hold_s * 1e6  # the second one
    assert all(hists[name].count == 2 for name in _STAGES)
    assert sum(hists[name].total for name in _STAGES) == pytest.approx(lat.total)


def test_direct_callers_arrive_at_batch_start(setup):
    """serve_batch callers bypass the queue; mutations explore nothing."""
    g, _ = setup
    srv = OracleServer(
        g, None, dynamic=True, params=HopsetParams(epsilon=0.25, beta=8)
    )
    u, v = int(g.edge_u[0]), int(g.edge_v[0])
    replies = srv.serve_batch(["dist 0 5", f"update {u} {v} 2.5", "dist 0 5"])
    assert all(reply.startswith("ok ") for reply in replies)
    hists = srv.registry.histograms
    assert hists["serve.queue_wait_us"].count == 3
    assert hists["serve.queue_wait_us"].max == 0.0
    assert hists["serve.explore_us"].min == 0.0  # the update
    assert sum(hists[name].total for name in _STAGES) == pytest.approx(
        hists["serve.latency_us"].total
    )
    srv.close()


def test_health_report_empty_without_serve_traffic(setup):
    g, H = setup
    srv = OracleServer(g, H)
    assert serve_health_report(srv.registry) == ""
    srv.close()


def test_histogram_quantile_bucket_bounds():
    h = Histogram("t")
    for v in (1, 2, 3, 100):
        h.observe(v)
    assert histogram_quantile(h, 0.0) == 1.0
    assert histogram_quantile(h, 0.5) == 2.0  # bucket upper bound of value 2
    assert histogram_quantile(h, 1.0) == 100.0  # clamped to the exact max
    assert histogram_quantile(Histogram("e"), 0.5) == 0.0
    with pytest.raises(ValueError):
        histogram_quantile(h, 1.5)


# -- component edge cases ----------------------------------------------------


def test_pair_cache_lru_and_disable():
    pc = PairCache(capacity=2)
    pc.put(0, 1, 1.0)
    pc.put(0, 2, 2.0)
    assert pc.get(0, 1) == 1.0  # touch: (0,2) is now LRU
    pc.put(0, 3, 3.0)  # evicts (0,2)
    assert pc.get(0, 2) is None
    assert pc.get(0, 1) == 1.0
    assert len(pc) == 2
    off = PairCache(capacity=0)
    off.put(0, 1, 1.0)
    assert off.get(0, 1) is None and len(off) == 0
    with pytest.raises(ValueError):
        PairCache(capacity=-1)


def test_batcher_caps_and_propagates_failures():
    seen = []

    def evaluate(items):
        seen.append(list(items))
        if "boom" in items:
            raise RuntimeError("evaluate failed")
        return [i * 2 for i in items]

    mb = MicroBatcher(evaluate, max_batch=4)
    futs = [mb.submit(i) for i in range(3)]
    assert [f.result(timeout=30) for f in futs] == [0, 2, 4]
    bad = mb.submit("boom")
    with pytest.raises(RuntimeError, match="evaluate failed"):
        bad.result(timeout=30)
    ok = mb.submit(5)  # the collector survives a failed batch
    assert ok.result(timeout=30) == 10
    mb.close()
    with pytest.raises(RuntimeError):
        mb.submit(1)
    assert all(len(b) <= 4 for b in seen)
    assert mb.submitted == 5


def _held_batcher(max_batch):
    """A batcher whose first evaluation blocks until the test releases it."""
    order = []
    release = threading.Event()
    holding = threading.Event()

    def evaluate(items):
        order.append(list(items))
        if len(order) == 1:
            holding.set()
            assert release.wait(30)
        return items

    return MicroBatcher(evaluate, max_batch=max_batch), order, release, holding


@pytest.mark.parametrize(
    "max_batch, batches", [(64, [8]), (4, [4, 4])], ids=["one-batch", "max-batch-4"]
)
def test_batcher_group_commits_held_arrivals(max_batch, batches):
    """Group commit: what queues during one evaluation is the next batch."""
    mb, order, release, holding = _held_batcher(max_batch)
    first = mb.submit("hold")
    assert holding.wait(30)
    futs = [mb.submit(i) for i in range(8)]
    release.set()
    assert first.result(timeout=30) == "hold"
    assert [f.result(timeout=30) for f in futs] == list(range(8))
    mb.close()
    assert order[0] == ["hold"]
    assert [len(batch) for batch in order[1:]] == batches
    assert [i for batch in order[1:] for i in batch] == list(range(8))


def test_server_validates_constructor_args(setup):
    g, H = setup
    with pytest.raises(ValueError):
        OracleServer(g, H, pair_cache=-1).close()
    srv = OracleServer(g, H, pair_cache=0)
    srv.query(0, 1)
    srv.query(0, 1)
    assert srv.pairs.hits == 0  # tier 0 disabled
    assert srv.oracle.hits == 1  # tier 1 took the repeat
    srv.close()


def test_stats_payload_shape(server):
    stats = server.stats()
    assert set(stats) >= {
        "requests", "errors", "batches", "pair_cache", "source_cache",
        "sources_charged", "backend", "degraded",
    }
    assert stats["degraded"] is None
    assert isinstance(stats["pair_cache"], dict)


def test_batch_numpy_answers_are_plain_floats(server):
    # served floats must be Python floats (repr round-trip, JSON-safe)
    value = server.query(1, 7)
    assert type(value) is float
    assert not isinstance(value, np.floating)
