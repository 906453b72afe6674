"""The serve-vs-offline differential matrix — the serving trust substrate.

Every served reply must be *bit-exact* against the offline
:class:`HopsetDistanceOracle` reference under the canonical-source
contract (``docs/serving.md``): ``dist U V`` equals
``offline.distances_from(U)[V]`` and ``path U V`` walks U's exploration
tree, for every graph family × batch size {1, 8, 64} × worker count
{1, 2} × cache state {cold, warm}.  The query stream interleaves mixed
sources deliberately — batching, arrival order, pair-cache hits, and
sharded execution may only change wall-clock, never one bit of a reply.
"""

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, grid_graph, layered_hop_graph
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.backends import ShardedBackend
from repro.serve import OracleServer
from repro.serve.protocol import format_dist, format_path
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK
from repro.sssp.oracle import HopsetDistanceOracle, tree_path

_FAMILIES = {
    "er": lambda: erdos_renyi(36, 0.12, seed=401, w_range=(1.0, 3.0)),
    "grid": lambda: grid_graph(6, 6, seed=402, w_range=(1.0, 2.0)),
    "layered": lambda: layered_hop_graph(10, 4, seed=403),
}

BATCH_SIZES = (1, 8, 64)
WORKER_COUNTS = (1, 2)


@pytest.fixture(scope="module")
def built():
    """graph + hopset per family, built once."""
    out = {}
    for name, make in _FAMILIES.items():
        g = make()
        H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
        out[name] = (g, H)
    return out


@pytest.fixture(scope="module")
def sharded():
    """One shared 2-worker pool for the whole matrix (servers never close it)."""
    be = ShardedBackend(workers=2, min_arcs=1)
    yield be
    be.close()


def _stream(n: int) -> list[str]:
    """A mixed-source interleaved request stream (dist + path) over [0, n)."""
    rng = np.random.default_rng(8)
    sources = rng.choice(n, size=5, replace=False)
    lines = []
    for i in range(40):
        u = int(sources[i % len(sources)])  # interleave: s0, s1, s2, s0, ...
        v = int(rng.integers(0, n))
        lines.append(f"{'path' if i % 5 == 4 else 'dist'} {u} {v}")
    # a few reversed pairs: must re-explore, not reuse the other endpoint
    lines += [f"dist {v} {u}" for line in lines[:3]
              for _, u, v in [line.split()]]
    return lines


def _offline_replies(g, H, lines: list[str]) -> list[str]:
    """The reference transcript, computed on a fresh serial offline oracle."""
    offline = HopsetDistanceOracle(g, H, cache_size=g.n)
    replies = []
    for line in lines:
        kind, u, v = line.split()
        u, v = int(u), int(v)
        dist, parent = offline.vectors_from(u)
        if kind == "dist":
            value = 0.0 if u == v else float(dist[v])
            replies.append(format_dist(u, v, value))
        else:
            walk = (
                [u] if u == v
                else tree_path(parent, u, v, g.n) if np.isfinite(dist[v])
                else None
            )
            replies.append(format_path(u, v, walk))
    return replies


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_served_replies_bit_exact_vs_offline(built, sharded, family, batch, workers):
    g, H = built[family]
    lines = _stream(g.n)
    expected = _offline_replies(g, H, lines)
    backend = sharded if workers == 2 else None
    server = OracleServer(g, H, cache_size=g.n, backend=backend)
    try:
        cold = []
        for lo in range(0, len(lines), batch):
            cold.extend(server.serve_batch(lines[lo:lo + batch]))
        assert cold == expected, f"cold differential failed ({family})"
        warm = []  # second pass: tier-0/tier-1 hits must change nothing
        for lo in range(0, len(lines), batch):
            warm.extend(server.serve_batch(lines[lo:lo + batch]))
        assert warm == expected, f"warm differential failed ({family})"
        assert server.pairs.hits > 0  # the warm pass did exercise tier 0
        if workers == 2:
            assert not sharded.failed
    finally:
        server.close()


def test_interleaved_submit_matches_offline(built):
    """The micro-batched concurrent path yields the same transcript."""
    g, H = built["er"]
    lines = _stream(g.n)
    expected = _offline_replies(g, H, lines)
    server = OracleServer(g, H, cache_size=g.n)
    try:
        futs = [server.submit_line(line) for line in lines]
        assert [f.result(timeout=60) for f in futs] == expected
        assert server.batcher.batches >= 1
    finally:
        server.close()


def _serve_in_blocks(server, lines, block=32):
    """Closed-loop serving: ``serve_batch`` over consecutive blocks of lines."""
    return [reply for lo in range(0, len(lines), block)
            for reply in server.serve_batch(lines[lo:lo + block])]


def test_matrix_blocks_group_explorations_and_warm_pass_explores_nothing(built):
    """Grouping changes how sources are explored, never how many or a reply.

    Width 1 runs one matrix pass per explored source; the default width
    explores each micro-batch's distinct sources together.  Both explore
    each distinct source once, and a warm second pass explores nothing
    and is answered from the pair cache.
    """
    g, H = built["er"]
    lines = _stream(g.n)
    expected = _offline_replies(g, H, lines)
    cold_info = {}
    for block in (1, DEFAULT_MSSP_BLOCK):
        server = OracleServer(g, H, cache_size=g.n, mssp_block=block)
        try:
            assert _serve_in_blocks(server, lines) == expected
            cold_info[block] = server.oracle.cache_info()
            pair_hits = server.pairs.hits
            assert _serve_in_blocks(server, lines) == expected
            warm = server.oracle.cache_info()
            assert warm["tier2_explorations"] == cold_info[block]["tier2_explorations"]
            assert server.pairs.hits > pair_hits
            assert server.degraded is None
        finally:
            server.close()
    looped, grouped = cold_info[1], cold_info[DEFAULT_MSSP_BLOCK]
    sources = {int(line.split()[1]) for line in lines}
    assert looped["tier2_explorations"] == grouped["tier2_explorations"] == len(sources)
    assert looped["matrix_passes"] == looped["tier2_explorations"]
    assert grouped["matrix_passes"] < grouped["tier2_explorations"]
