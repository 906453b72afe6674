"""Serving-layer fault injection.

The degradation contract (``docs/serving.md``): a sharded worker killed
mid-batch trips the backend's permanent serial fallback, the server
reports ``serve.fallback.worker-death`` traffic *during that batch*, and
every reply — including the one whose exploration died — is bit-identical
to in-process serving.  Malformed or out-of-range lines get structured
``err`` replies and never take the server down.
"""

import os
import signal

import pytest

from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.backends import ShardedBackend
from repro.serve import OracleServer
from repro.sssp.oracle import HopsetDistanceOracle


@pytest.fixture(scope="module")
def setup():
    g = erdos_renyi(40, 0.12, seed=701, w_range=(1.0, 3.0))
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    return g, H


def _fallback_count(server, kind: str) -> int:
    c = server.registry.counters.get(
        f"primitive.serve.fallback.{kind}.elements"
    )
    return c.value if c is not None else 0


def test_worker_death_mid_batch_degrades_bit_correct(setup):
    g, H = setup
    offline = HopsetDistanceOracle(g, H, cache_size=g.n)
    be = ShardedBackend(workers=2, min_arcs=1, round_timeout=10.0)
    server = OracleServer(g, H, cache_size=g.n, backend=be)
    try:
        warm = server.serve_batch(["dist 0 5"])  # spins the pool up
        assert be.sharded_rounds > 0 and be._procs
        assert server.degraded is None

        victim = be._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not victim.is_alive()

        # the batch whose exploration hits the dead worker: every reply
        # still lands, and the fallback event fires inside the batch
        batch = ["dist 0 5", "dist 7 12", "path 7 3", "dist 12 7"]
        replies = server.serve_batch(batch)
        assert server.degraded == "worker-death"
        assert be.failed and be.failure_kind == "worker-death"
        assert _fallback_count(server, "worker-death") == 1
        assert replies[0] == warm[0]  # cached answer untouched by the death
        assert replies[1] == f"ok dist 7 12 {float(offline.distances_from(7)[12])!r}"
        assert replies[3] == f"ok dist 12 7 {float(offline.distances_from(12)[7])!r}"
        assert replies[2].startswith("ok path 7 3 ")

        # ...and the server keeps serving (serial) afterwards, bit-correct
        later = server.serve_batch(["dist 15 2"])
        assert later[0] == f"ok dist 15 2 {float(offline.distances_from(15)[2])!r}"
        assert server.stats()["degraded"] == "worker-death"
        assert _fallback_count(server, "worker-death") == 1  # fired once
    finally:
        server.close()
        be.close()


def test_server_on_already_failed_backend_learns_state(setup):
    """A late subscriber still sees the degradation (listener replay)."""
    g, H = setup
    be = ShardedBackend(workers=2, min_arcs=1, round_timeout=10.0)
    try:
        from repro.pram.machine import PRAM
        from repro.sssp.bellman_ford import bellman_ford

        bellman_ford(PRAM(backend=be), g, 0, 2, early_exit=False)
        assert be._procs
        os.kill(be._procs[0].pid, signal.SIGKILL)
        bellman_ford(PRAM(backend=be), g, 0, 2, early_exit=False)  # trips _fail
        assert be.failed

        server = OracleServer(g, H, backend=be)
        assert server.degraded == be.failure_kind
        assert _fallback_count(server, be.failure_kind) == 1
        assert server.handle_line("dist 3 8").startswith("ok dist 3 8 ")
        server.close()
    finally:
        be.close()


def test_malformed_lines_never_kill_the_server(setup):
    g, H = setup
    server = OracleServer(g, H)
    try:
        hostile = [
            "", "   ", "dist", "dist 1", "dist 1 2 3", "dist 1e3 2",
            "dist nan nan", f"dist 0 {g.n}", "dist -5 0", "path 0 10**6",
            "DIST 0 1", "quit extra", "stats now", "\x00\x01\x02",
        ]
        replies = server.serve_batch(hostile)
        assert all(r.startswith("err ") for r in replies)
        assert all("\n" not in r for r in replies)
        codes = {r.split()[1] for r in replies}
        assert codes == {"bad-request", "out-of-range"}
        # structured traffic per code, and the server still answers
        counters = server.registry.counters
        assert counters["primitive.serve.error.bad-request.elements"].value > 0
        assert counters["primitive.serve.error.out-of-range.elements"].value > 0
        assert server.handle_line("dist 0 1").startswith("ok dist 0 1 ")
        assert server.errors == len(hostile)
    finally:
        server.close()
