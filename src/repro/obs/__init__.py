"""Observability for the CREW PRAM simulator.

The pieces that observe a run are driven by the
:class:`~repro.pram.cost.CostModel` hook interface (``cost.subscribe(...)``),
so the simulator itself stays zero-overhead when nothing is attached:

* :mod:`repro.obs.tracer` — nested spans mirroring the cost model's phase
  stack, with charged work/depth deltas, wall-clock time, and per-label op
  counts per span.
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry fed by the
  per-primitive traffic events (calls, elements, CREW cells read/written).
* :mod:`repro.obs.export` — Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto), JSONL, and a plain-text flame-style report.
* :mod:`repro.obs.bounds` — declarative watchdog envelopes encoding the
  paper's asymptotic bounds; evaluate a finished run and report measured
  constants with PASS/WARN status.
* :mod:`repro.obs.profile` — per-scale, per-primitive wall attribution of
  hopset builds plus the folded flame exporter (``repro profile``).
* :mod:`repro.obs.ledger` — the host fingerprint and git sha that
  ``perfbench`` stamps on every result.

See ``docs/observability.md`` for the guide.
"""

from repro.obs.bounds import (
    Envelope,
    WatchdogVerdict,
    evaluate_envelopes,
    query_envelopes,
    theorem_3_7_envelopes,
    watchdog_table,
)
from repro.obs.export import (
    backend_health_report,
    chrome_trace_events,
    flame_report,
    op_wall_report,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profile import profile_report, write_folded_flame
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Span, SpanTracer

__all__ = [
    "Span",
    "SpanTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "flame_report",
    "op_wall_report",
    "backend_health_report",
    "profile_report",
    "write_folded_flame",
    "Envelope",
    "WatchdogVerdict",
    "theorem_3_7_envelopes",
    "query_envelopes",
    "evaluate_envelopes",
    "watchdog_table",
]
