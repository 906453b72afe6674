"""Counter/gauge/histogram registry for per-primitive PRAM metrics.

A :class:`MetricsRegistry` subscribes to a
:class:`~repro.pram.cost.CostModel` and aggregates, per primitive label:

* ``primitive.<label>.calls``          — invocations,
* ``primitive.<label>.elements``       — items processed,
* ``primitive.<label>.cells_read``     — CREW shared-memory cells read,
* ``primitive.<label>.cells_written``  — cells written,
* ``primitive.<label>.work`` / ``.depth`` — charged resources,
* ``primitive.<label>.wall_ns``        — *measured* host nanoseconds,
  attributed by delta timing (each traffic event claims the time elapsed
  since the previous one; primitives report traffic once, at the end of
  their execution) — the one engineering figure next to the model ones,

plus run-level totals (``cost.work``, ``cost.depth``, ``cost.charges``,
``cost.phases``) and an HDR-style size histogram per primitive
(``primitive.<label>.size``).  The traffic figures are *model-level*
(derived from each primitive's CREW charging convention, see
``docs/model.md``) — they describe the simulated machine, not CPython.

Metric names are plain dotted strings; :meth:`MetricsRegistry.snapshot`
returns one JSON-friendly dict for export next to a trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.pram.cost import CostHook, CostModel

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MINOR_BUCKETS", "bucket_index", "bucket_upper",
]

#: Linear sub-buckets per power of two: a bucket is at most 1/8 = 12.5%
#: wider than its lower bound.
MINOR_BUCKETS = 8


def bucket_index(value: float) -> int:
    """The histogram bucket holding ``value`` (>= 0).

    Bucket 0 is ``[0, 1]``; above 1, each power-of-two range
    ``(2^e, 2^(e+1)]`` splits into :data:`MINOR_BUCKETS` equal-width
    buckets, upper bounds included, numbered on from 1.  The float value
    is bucketed as is: nothing is truncated first.
    """
    if value <= 1.0:
        return 0
    mant, exp = math.frexp(value)  # value = mant * 2**exp, 0.5 <= mant < 1
    return (exp - 1) * MINOR_BUCKETS + math.ceil((2.0 * mant - 1.0) * MINOR_BUCKETS)


def bucket_upper(index: int) -> float:
    """The inclusive upper bound of bucket ``index``."""
    if index == 0:
        return 1.0
    major, minor = divmod(index - 1, MINOR_BUCKETS)
    return math.ldexp(1.0 + (minor + 1) / MINOR_BUCKETS, major)


@dataclass
class Counter:
    """Monotone counter."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """HDR-style non-negative value distribution.

    ``buckets`` maps :func:`bucket_index` to a count: log₂ major buckets,
    each cut into :data:`MINOR_BUCKETS` linear minor buckets, so no bucket
    is wider than 12.5% of its lower bound.  The layout is fixed, so two
    histograms merge by adding counts per index.  Tracks count/sum/min/max
    exactly; quantiles can be approximated from the buckets
    (:func:`repro.obs.export.histogram_quantile`).
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name} takes non-negative values")
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        bucket = bucket_index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            # keyed by each bucket's inclusive upper bound
            "buckets": {
                repr(bucket_upper(k)): v for k, v in sorted(self.buckets.items())
            },
        }


class MetricsRegistry(CostHook):
    """Named metrics, plus the CostModel subscription that feeds them."""

    def __init__(self, clock_ns: Callable[[], int] | None = None) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._clock_ns = clock_ns if clock_ns is not None else time.perf_counter_ns
        self._last_ns = self._clock_ns()
        # Per-label metric objects, so an event formats no metric names:
        # ``(calls, elements, cells_read, cells_written, wall_ns, size)``
        # for traffic and ``(work, depth)`` for labelled charges.
        self._traffic: dict[str, tuple] = {}
        self._charged: dict[str, tuple[Counter, Counter]] = {}

    # -- registry ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def attach(cls, cost: CostModel, **kwargs) -> "MetricsRegistry":
        """Create a registry and subscribe it to ``cost`` in one step."""
        registry = cls(**kwargs)
        cost.subscribe(registry)
        return registry

    def detach(self, cost: CostModel) -> None:
        cost.unsubscribe(self)

    # -- CostHook callbacks --------------------------------------------------

    def on_charge(self, work: int, depth: int, label: str) -> None:
        self.counter("cost.charges").inc()
        self.counter("cost.work").inc(work)
        self.counter("cost.depth").inc(depth)
        if label:
            slot = self._charged.get(label)
            if slot is None:
                slot = self._charged[label] = (
                    self.counter(f"primitive.{label}.work"),
                    self.counter(f"primitive.{label}.depth"),
                )
            slot[0].inc(work)
            slot[1].inc(depth)

    def on_traffic(
        self, label: str, calls: int, elements: int, reads: int, writes: int
    ) -> None:
        slot = self._traffic.get(label)
        if slot is None:
            prefix = f"primitive.{label}"
            slot = self._traffic[label] = (
                self.counter(f"{prefix}.calls"),
                self.counter(f"{prefix}.elements"),
                self.counter(f"{prefix}.cells_read"),
                self.counter(f"{prefix}.cells_written"),
                self.counter(f"{prefix}.wall_ns"),
                self.histogram(f"{prefix}.size"),
            )
        n_calls, n_elements, n_read, n_written, wall_ns, size = slot
        n_calls.inc(calls)
        n_elements.inc(elements)
        n_read.inc(reads)
        n_written.inc(writes)
        now_ns = self._clock_ns()
        wall_ns.inc(max(now_ns - self._last_ns, 0))
        self._last_ns = now_ns
        size.observe(elements)

    def on_phase_enter(self, name: str) -> None:
        self.counter("cost.phases").inc()
        # Phase boundaries reset the delta clock (see module docstring):
        # setup time outside primitives is not pinned on the next op.
        self._last_ns = self._clock_ns()

    # -- export --------------------------------------------------------------

    def primitive_labels(self) -> list[str]:
        """All labels that reported traffic, sorted."""
        suffix = ".calls"
        return sorted(
            name[len("primitive."):-len(suffix)]
            for name in self.counters
            if name.startswith("primitive.") and name.endswith(suffix)
        )

    def snapshot(self) -> dict:
        """One JSON-friendly dict of every metric's current value."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self.histograms.items())
            },
        }
