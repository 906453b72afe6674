"""MetricsRegistry: counters, histograms, and per-primitive aggregation."""

import itertools

import numpy as np
import pytest

from repro.obs.export import histogram_quantile
from repro.obs.metrics import (
    MINOR_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper,
)
from repro.pram.cost import CostModel
from repro.pram.machine import PRAM


def test_counter_is_monotone():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_histogram_log2_buckets():
    """log₂ major buckets, each cut into 8 linear minor buckets."""
    h = Histogram("sizes")
    for v in (0, 1, 2, 3, 4, 4.5, 1000):
        h.observe(v)
    # {0,1} -> [0, 1]; 2 -> (1.875, 2]; 3 -> (2.75, 3]; 4 -> (3.75, 4];
    # 4.5 -> (4, 4.5]; 1000 -> (960, 1024]
    assert h.buckets == {0: 2, 8: 1, 12: 1, 16: 1, 17: 1, 80: 1}
    assert [bucket_upper(b) for b in sorted(h.buckets)] == [1, 2, 3, 4, 4.5, 1024]
    assert h.count == 7
    assert h.min == 0 and h.max == 1000
    assert h.mean == pytest.approx(1014.5 / 7)
    assert h.to_dict()["buckets"] == {
        "1.0": 2, "2.0": 1, "3.0": 1, "4.0": 1, "4.5": 1, "1024.0": 1,
    }
    with pytest.raises(ValueError):
        h.observe(-1)


def test_histogram_buckets_are_narrow_and_hold_their_values():
    """Every value lands in (lower, upper] with upper <= 1.125 * lower."""
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.uniform(1.0, 4096.0, 2000), [1.5, 2.25, 4.5, 2**20]])
    for v in values:
        b = bucket_index(float(v))
        lo, hi = bucket_upper(b - 1), bucket_upper(b)
        assert lo < v <= hi
        assert hi <= lo * (1 + 1 / MINOR_BUCKETS)


def test_histogram_quantile_never_below_the_observed_quantile():
    """Float values are bucketed as is: 4.5 is not filed under (2, 4]."""
    h = Histogram("t")
    for v in (4.5, 4.5, 4.5, 1.0):
        h.observe(v)
    assert histogram_quantile(h, 0.5) >= 4.5
    rng = np.random.default_rng(4)
    values = rng.lognormal(6.0, 1.5, 5000)
    h = Histogram("lat")
    for v in values:
        h.observe(float(v))
    for q in (0.5, 0.9, 0.99):
        observed = float(np.quantile(values, q, method="inverted_cdf"))
        reported = histogram_quantile(h, q)
        assert observed <= reported <= observed * (1 + 1 / MINOR_BUCKETS)


def test_histogram_to_dict_empty():
    d = Histogram("e").to_dict()
    assert d["count"] == 0 and d["min"] is None and d["max"] is None


def test_registry_getters_are_idempotent():
    r = MetricsRegistry()
    assert r.counter("a") is r.counter("a")
    assert r.gauge("g") is r.gauge("g")
    assert r.histogram("h") is r.histogram("h")


def test_on_charge_feeds_cost_and_primitive_counters():
    c = CostModel()
    r = MetricsRegistry.attach(c)
    c.charge(work=10, depth=2, label="scan")
    c.charge(work=5, depth=1)  # unlabeled: run totals only
    r.detach(c)
    assert r.counter("cost.charges").value == 2
    assert r.counter("cost.work").value == 15
    assert r.counter("cost.depth").value == 3
    assert r.counter("primitive.scan.work").value == 10
    assert "primitive..work" not in r.counters


def test_on_traffic_feeds_cells_and_size_histogram():
    c = CostModel()
    r = MetricsRegistry.attach(c)
    c.traffic("scan", elements=8, reads=16, writes=8)
    c.traffic("scan", elements=4, reads=8, writes=4)
    r.detach(c)
    assert r.counter("primitive.scan.calls").value == 2
    assert r.counter("primitive.scan.elements").value == 12
    assert r.counter("primitive.scan.cells_read").value == 24
    assert r.counter("primitive.scan.cells_written").value == 12
    assert r.histogram("primitive.scan.size").count == 2


def test_phase_counter():
    c = CostModel()
    r = MetricsRegistry.attach(c)
    with c.phase("a"):
        with c.phase("b"):
            pass
    assert r.counter("cost.phases").value == 2


def test_primitives_report_traffic_through_pram():
    pram = PRAM()
    r = MetricsRegistry.attach(pram.cost)
    pram.prefix_sum(np.ones(16))
    pram.sort(np.arange(8)[::-1].copy())
    pram.pointer_jump(np.concatenate([[0], np.arange(7)]))
    labels = r.primitive_labels()
    assert "scan" in labels and "sort" in labels and "pointer_jump" in labels
    assert r.counter("primitive.scan.cells_read").value > 0
    assert r.counter("primitive.sort.cells_written").value > 0
    # metrics totals agree with the cost model
    assert r.counter("cost.work").value == pram.cost.work
    assert r.counter("cost.depth").value == pram.cost.depth


def test_snapshot_shape():
    c = CostModel()
    r = MetricsRegistry.attach(c)
    c.charge(work=3, depth=1, label="x")
    c.traffic("x", elements=3, reads=3, writes=3)
    snap = r.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert snap["counters"]["primitive.x.calls"] == 1
    assert snap["histograms"]["primitive.x.size"]["count"] == 1


def test_wall_ns_delta_attribution_with_injected_clock():
    ticks = iter(range(0, 1000, 10))  # 0, 10, 20, ... ns
    c = CostModel()
    r = MetricsRegistry.attach(c, clock_ns=lambda: next(ticks))
    c.traffic("a", elements=1, reads=1, writes=1)  # claims 10ns since init
    c.traffic("b", elements=1, reads=1, writes=1)  # claims the next 10ns
    c.traffic("a", elements=1, reads=1, writes=1)
    r.detach(c)
    assert r.counter("primitive.a.wall_ns").value == 20
    assert r.counter("primitive.b.wall_ns").value == 10


def test_wall_ns_resets_at_phase_boundaries():
    ticks = iter([0, 100, 105, 200])  # attach, phase-enter, traffic, (unused)
    c = CostModel()
    r = MetricsRegistry.attach(c, clock_ns=lambda: next(ticks))
    with c.phase("p"):
        c.traffic("a", elements=1, reads=0, writes=0)
    # only the 5ns since phase entry, not the 105ns since attach
    assert r.counter("primitive.a.wall_ns").value == 5


def test_interleaved_labels_match_a_direct_count():
    """Per-label metrics, cached after a label's first event, equal a recount."""
    ticks = itertools.count(0, 7)  # every traffic event claims 7ns
    r = MetricsRegistry(clock_ns=lambda: next(ticks))
    rng = np.random.default_rng(11)
    counters: dict[str, int] = {"cost.charges": 0, "cost.work": 0, "cost.depth": 0}
    sizes: dict[str, Histogram] = {}

    def bump(name, amount):
        counters[name] = counters.get(name, 0) + amount

    for _ in range(200):
        label = ("scan", "sort", "relax", "")[int(rng.integers(0, 4))]
        if rng.random() < 0.5:
            work, depth = (int(x) for x in rng.integers(0, 50, size=2))
            r.on_charge(work, depth, label)
            bump("cost.charges", 1)
            bump("cost.work", work)
            bump("cost.depth", depth)
            if label:
                bump(f"primitive.{label}.work", work)
                bump(f"primitive.{label}.depth", depth)
        else:
            calls, elements, reads, writes = (int(x) for x in rng.integers(0, 9, size=4))
            r.on_traffic(label, calls, elements, reads, writes)
            prefix = f"primitive.{label}"
            bump(f"{prefix}.calls", calls)
            bump(f"{prefix}.elements", elements)
            bump(f"{prefix}.cells_read", reads)
            bump(f"{prefix}.cells_written", writes)
            bump(f"{prefix}.wall_ns", 7)
            sizes.setdefault(f"{prefix}.size", Histogram(f"{prefix}.size")).observe(elements)
    assert r.snapshot() == {
        "counters": counters,
        "gauges": {},
        "histograms": {k: h.to_dict() for k, h in sizes.items()},
    }
