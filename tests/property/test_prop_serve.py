"""Derandomized Hypothesis properties for the serving layer.

The micro-batcher's contract (``docs/serving.md``) is property-shaped:
batching is a wall-clock optimization only, so **any permutation of a
query set and any partition of it into batches** must yield

* bit-identical per-query replies (each reply is a pure function of the
  request line — the canonical-source determinism contract), and
* identical per-source charged cost (each distinct source pays for
  exactly one exploration, no matter where in the stream it first
  appears or how the stream is sliced).

The profile is derandomized (fixed example stream), matching the other
conformance properties in this directory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import erdos_renyi
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.serve import OracleServer

serve_settings = settings(max_examples=25, deadline=None, derandomize=True)

_G = erdos_renyi(20, 0.18, seed=801, w_range=(1.0, 3.0))
_H, _ = build_hopset(_G, HopsetParams(epsilon=0.25, beta=4))


@st.composite
def query_lines(draw):
    """A small query set: dist/path over valid and out-of-range vertices."""
    size = draw(st.integers(min_value=1, max_value=12))
    lines = []
    for _ in range(size):
        kind = draw(st.sampled_from(["dist", "path"]))
        u = draw(st.integers(min_value=-1, max_value=_G.n + 1))
        v = draw(st.integers(min_value=-1, max_value=_G.n + 1))
        lines.append(f"{kind} {u} {v}")
    return lines


def _serve(lines, cuts):
    """Serve ``lines`` sliced at ``cuts``; returns (line→reply, charges)."""
    server = OracleServer(_G, _H, cache_size=_G.n)
    try:
        replies = {}
        lo = 0
        for hi in list(cuts) + [len(lines)]:
            for line, reply in zip(lines[lo:hi], server.serve_batch(lines[lo:hi])):
                replies[line] = reply
            lo = hi
        return replies, dict(server.source_charges)
    finally:
        server.close()


@serve_settings
@given(lines=query_lines(), data=st.data())
def test_permutation_and_partition_invariance(lines, data):
    baseline, base_charges = _serve(lines, cuts=[])  # one batch, given order
    permuted = data.draw(st.permutations(lines), label="permutation")
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(lines)), max_size=4
            ),
            label="partition",
        )
    )
    replies, charges = _serve(permuted, cuts)
    assert replies == baseline  # same reply for the same line, bit-exact
    assert charges == base_charges  # same sources, same charged work


@serve_settings
@given(lines=query_lines())
def test_singleton_batches_match_one_big_batch(lines):
    one_big, charges_big = _serve(lines, cuts=[])
    singles, charges_single = _serve(lines, cuts=list(range(1, len(lines))))
    assert singles == one_big
    assert charges_single == charges_big
