"""Group-commit edges of the micro-batcher, plus histogram quantiles.

The batching contract (docs/serving.md) says batching is a wall-clock
optimization only: no arrival timing may drop a request.  The collector
evaluates whatever is queued the moment it is free, so the edges these
tests pin are a request landing while an evaluation runs (it is served
by the next batch, never lost) and back-to-back submissions racing the
collector (every one resolves).  Alongside: ``histogram_quantile`` on the
degenerate histograms (empty, single-bucket) the serving health table
feeds it.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.export import histogram_quantile
from repro.obs.metrics import Histogram
from repro.serve.batcher import MicroBatcher


def test_arrival_during_evaluation_joins_next_batch():
    """A request arriving mid-evaluation is served by the *next* batch."""
    release = threading.Event()
    first_running = threading.Event()
    seen: list[list[object]] = []

    def evaluate(items):
        seen.append(list(items))
        if len(seen) == 1:
            first_running.set()
            assert release.wait(5.0)
        return [f"ok {i}" for i in items]

    b = MicroBatcher(evaluate, max_batch=8)
    f1 = b.submit("a")
    assert first_running.wait(2.0)
    # batch 1 is being evaluated; this arrival must be served by a fresh
    # batch, not vanish with the old one
    f2 = b.submit("late")
    release.set()
    assert f1.result(timeout=2.0) == "ok a"
    assert f2.result(timeout=2.0) == "ok late"
    assert seen[0] == ["a"]
    assert seen[1] == ["late"]
    assert b.batches == 2
    b.close()


def test_back_to_back_submissions_all_resolve():
    """Submits racing the collector all resolve, in batches of at most max_batch."""
    seen: list[list[object]] = []

    def evaluate(items):
        seen.append(list(items))
        return [f"ok {i}" for i in items]

    b = MicroBatcher(evaluate, max_batch=4)
    futures = [b.submit(i) for i in range(10)]
    assert [f.result(timeout=2.0) for f in futures] == [f"ok {i}" for i in range(10)]
    b.close()
    assert [i for batch in seen for i in batch] == list(range(10))
    assert all(len(batch) <= 4 for batch in seen)
    assert b.submitted == 10


# -- histogram_quantile degenerate inputs ------------------------------------


def test_histogram_quantile_empty_is_zero():
    h = Histogram("empty")
    for q in (0.0, 0.5, 1.0):
        assert histogram_quantile(h, q) == 0.0


def test_histogram_quantile_single_bucket_clamps_to_observed_value():
    h = Histogram("single")
    h.observe(7.0)
    # one bucket, one observation: every quantile is the exact value
    # (clamped into [min, max]), not the bucket's upper bound
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert histogram_quantile(h, q) == 7.0


def test_histogram_quantile_single_bucket_repeated_observations():
    h = Histogram("repeat")
    for _ in range(5):
        h.observe(3.0)
    assert h.count == 5 and len(h.buckets) == 1
    assert histogram_quantile(h, 0.5) == 3.0
    assert histogram_quantile(h, 1.0) == 3.0


def test_histogram_quantile_rejects_out_of_range_q():
    h = Histogram("bad-q")
    h.observe(1.0)
    with pytest.raises(ValueError):
        histogram_quantile(h, 1.5)
    with pytest.raises(ValueError):
        histogram_quantile(h, -0.1)
