"""Trace exporters: Chrome trace-event JSON, JSONL, and flame-style text.

Chrome trace output loads directly in ``chrome://tracing`` or
https://ui.perfetto.dev.  Two process tracks are emitted:

* **wall-clock** (pid 0) — span timestamps/durations in real microseconds
  of the simulator's execution (engineering view);
* **work-clock** (pid 1) — the same spans on a timeline where one
  microsecond equals one unit of charged PRAM work, so span *widths are
  proportional to the model cost* they account for (the view that matches
  the paper's accounting; depth is attached as an argument).

Every span event carries ``args`` with inclusive/self work and depth, so
Perfetto's selection panel shows the model figures directly.  The JSONL
exporter writes one span per line (``Span.to_dict``) for ad-hoc analytics,
and :func:`flame_report` renders an indented plain-text tree through
``repro.analysis.tables``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.analysis.tables import render_table
from repro.obs.metrics import MetricsRegistry, bucket_upper
from repro.obs.tracer import Span, SpanTracer
from repro.pram.cost import RACE_TRAFFIC_PREFIX

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "flame_report",
    "op_wall_report",
    "backend_health_report",
    "histogram_quantile",
    "serve_health_report",
]

_SourceT = Union[Span, SpanTracer]


def _root_of(source: _SourceT) -> Span:
    return source.root if isinstance(source, SpanTracer) else source


def chrome_trace_events(
    source: _SourceT, worker_rounds: list[dict] | None = None
) -> list[dict]:
    """Flatten a span tree into Chrome trace-event dicts (``ph: "X"``).

    ``worker_rounds`` — a :class:`ShardedBackend`'s ``round_log`` — adds
    one wall-clock lane per worker (tid ``1 + worker``) under pid 0, so a
    sharded run renders as a real multi-track timeline: each round's
    per-shard compute appears as an ``X`` slice on its worker's lane,
    placed on the parent's clock (round launch time plus the worker's
    reported wall).
    """
    root = _root_of(source)
    events: list[dict] = [
        {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "wall-clock"}},
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "work-clock"}},
    ]
    t0 = root.wall_start
    if worker_rounds:
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "name": "thread_name",
                "args": {"name": "parent"},
            }
        )
        workers = sorted(
            {w["worker"] for entry in worker_rounds for w in entry["workers"]}
        )
        for widx in workers:
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": 1 + widx,
                    "name": "thread_name",
                    "args": {"name": f"worker {widx}"},
                }
            )
        for entry in worker_rounds:
            ts = max((entry["t0"] - t0) * 1e6, 0.0)
            for w in entry["workers"]:
                events.append(
                    {
                        "name": f"round {entry['round']}",
                        "ph": "X",
                        "pid": 0,
                        "tid": 1 + w["worker"],
                        "ts": ts,
                        "dur": w["wall_ns"] / 1e3,
                        "args": {
                            "arcs": w["arcs"],
                            "gather_ns": w["gather_ns"],
                            "segmin_ns": w["segmin_ns"],
                            "serialize_ns": w["serialize_ns"],
                        },
                    }
                )
    for span in root.walk():
        args = {
            "work": span.work,
            "depth": span.depth,
            "self_work": span.self_work,
            "self_depth": span.self_depth,
            "charges": span.charges,
        }
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (span.wall_start - t0) * 1e6,
                "dur": span.wall * 1e6,
                "args": args,
            }
        )
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": float(span.work_start - root.work_start),
                "dur": float(span.work),
                "args": args,
            }
        )
    return events


def to_chrome_trace(
    source: _SourceT,
    metrics: MetricsRegistry | None = None,
    extra: dict | None = None,
    worker_rounds: list[dict] | None = None,
) -> dict:
    """The full Chrome trace JSON object for a finished trace."""
    root = _root_of(source)
    other: dict = {
        "total_work": root.work,
        "total_depth": root.depth,
        "wall_s": root.wall,
    }
    if isinstance(source, SpanTracer):
        other["span_coverage"] = source.coverage()
    if metrics is not None:
        other["metrics"] = metrics.snapshot()
    if extra:
        other.update(extra)
    return {
        "traceEvents": chrome_trace_events(root, worker_rounds),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path: str | Path,
    source: _SourceT,
    metrics: MetricsRegistry | None = None,
    extra: dict | None = None,
    worker_rounds: list[dict] | None = None,
) -> Path:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(source, metrics, extra, worker_rounds), indent=1)
    )
    return path


def write_jsonl(path: str | Path, source: _SourceT) -> Path:
    """One JSON object per span (pre-order), one per line."""
    path = Path(path)
    root = _root_of(source)
    with path.open("w") as fh:
        for span in root.walk():
            fh.write(json.dumps(span.to_dict()) + "\n")
    return path


def flame_report(source: _SourceT, title: str = "trace report") -> str:
    """Indented flame-style text table of the span tree.

    Columns: inclusive work/depth, exclusive (self) work, share of the root
    work, and wall-clock milliseconds.  Indentation shows nesting; span
    names keep only their last path component (the ancestry is the
    indentation).  If a shadow race detector reported findings during the
    trace (``crew_race:*`` traffic labels, see ``repro.conformance``), a
    ``races`` column appears attributing them to the offending span.
    """
    root = _root_of(source)
    total = max(root.work, 1)
    races = [_span_races(span) for span in root.walk()]
    with_races = any(races)
    rows = []
    for span, n_races in zip(root.walk(), races):
        short = span.name.rsplit("/", 1)[-1]
        row = [
            "  " * span.level + short,
            span.work,
            span.depth,
            span.self_work,
            f"{100.0 * span.work / total:.1f}%",
            f"{span.wall * 1e3:.2f}",
        ]
        if with_races:
            row.append(n_races)
        rows.append(row)
    headers = ["span", "work", "depth", "self work", "share", "wall ms"]
    if with_races:
        headers.append("races")
    return render_table(title, headers, rows)


def op_wall_report(
    source: _SourceT, title: str = "where real time goes", top: int = 20
) -> str:
    """Per-primitive *measured* wall time vs charged work, tree-wide.

    Aggregates every span's per-label :class:`~repro.obs.tracer.OpStats`
    and ranks labels by attributed host nanoseconds (delta timing, see
    ``OpStats.wall_ns``).  Columns: calls, charged work, wall
    milliseconds, microseconds per call, and the label's share of all
    attributed wall time — the table that answers "the model charges X,
    but where does the *real* time go?".
    """
    root = _root_of(source)
    agg: dict[str, list[int]] = {}  # label -> [calls, work, wall_ns]
    for span in root.walk():
        for label, s in span.ops.items():
            row = agg.setdefault(label, [0, 0, 0])
            row[0] += s.calls
            row[1] += s.work
            row[2] += s.wall_ns
    total_ns = max(sum(r[2] for r in agg.values()), 1)
    ranked = sorted(agg.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    rows = []
    for label, (calls, work, wall_ns) in ranked:
        rows.append(
            [
                label,
                calls,
                work,
                f"{wall_ns / 1e6:.2f}",
                f"{wall_ns / 1e3 / max(calls, 1):.1f}",
                f"{100.0 * wall_ns / total_ns:.1f}%",
            ]
        )
    headers = ["op", "calls", "work", "wall ms", "us/call", "share"]
    return render_table(title, headers, rows)


def backend_health_report(
    metrics: MetricsRegistry, title: str = "backend health"
) -> str:
    """Sharded-backend health table from a registry's ``backend.*`` counters.

    Summarizes relaxation and entry rounds routed sharded vs serial (with
    the serial reason), fallback events by reason, IPC/imbalance/
    combine-depth figures, and one row per worker (rounds, arcs, wall
    split).  Returns ``""`` when the registry saw no backend traffic at
    all — callers can print the result unconditionally.
    """
    counters = metrics.counters

    def val(label: str, field: str = "elements") -> int:
        c = counters.get(f"primitive.{label}.{field}")
        return c.value if c is not None else 0

    if not any(k.startswith("primitive.backend.") for k in counters):
        return ""
    rows = [["sharded rounds", val("backend.round", "calls")]]
    for reason in ("min-arcs", "fallback"):
        n = val(f"backend.serial_round.{reason}")
        if n:
            rows.append([f"serial rounds ({reason})", n])
    n = val("backend.entry_round", "calls")
    if n:
        rows.append(["sharded entry rounds", n])
    for reason in ("min-rows", "fallback"):
        n = val(f"backend.serial_entry.{reason}")
        if n:
            rows.append([f"serial entry rounds ({reason})", n])
    for name, c in sorted(counters.items()):
        prefix = "primitive.backend.fallback."
        if name.startswith(prefix) and name.endswith(".elements") and c.value:
            reason = name[len(prefix):-len(".elements")]
            rows.append([f"fallback ({reason})", c.value])
    round_wall = val("backend.round_wall_ns")
    if round_wall:
        rows.append(["round wall ms", f"{round_wall / 1e6:.2f}"])
        rows.append(["ipc ms", f"{val('backend.ipc_ns') / 1e6:.2f}"])
    imb_calls = val("backend.imbalance_milli", "calls")
    if imb_calls:
        mean_imb = val("backend.imbalance_milli") / imb_calls / 1000.0
        rows.append(["mean shard imbalance", f"{mean_imb:.2f}x"])
    depth_calls = val("backend.combine_depth", "calls")
    if depth_calls:
        rows.append(
            ["combine depth", val("backend.combine_depth") // depth_calls]
        )
    near = val("backend.timeout_near_miss")
    if near:
        rows.append(["timeout near-misses", near])
    report = render_table(title, ["figure", "value"], rows)
    workers = sorted(
        int(name.split(".")[3])
        for name in counters
        if name.startswith("primitive.backend.worker.")
        and name.endswith(".wall_ns.elements")
    )
    if workers:
        wrows = []
        for w in workers:
            p = f"backend.worker.{w}"
            wrows.append(
                [
                    w,
                    val(f"{p}.wall_ns", "calls"),
                    val(f"{p}.arcs"),
                    f"{val(f'{p}.wall_ns') / 1e6:.2f}",
                    f"{val(f'{p}.gather_ns') / 1e6:.2f}",
                    f"{val(f'{p}.segmin_ns') / 1e6:.2f}",
                    f"{val(f'{p}.serialize_ns') / 1e6:.2f}",
                ]
            )
        report += "\n" + render_table(
            "per-worker compute",
            ["worker", "rounds", "arcs", "wall ms", "gather", "segmin", "serialize"],
            wrows,
        )
    return report


def histogram_quantile(hist, q: float) -> float:
    """Approximate quantile ``q`` of a :class:`Histogram`.

    Walks the buckets in order until the cumulative count reaches
    ``q * count`` and returns that bucket's inclusive upper bound
    (:func:`~repro.obs.metrics.bucket_upper`, at most 12.5% above any value
    in the bucket), clamped into ``[min, max]`` of the exact extrema the
    histogram tracks — so the answer is never below the observed quantile
    and never outside the observed range.  Returns ``0.0`` on an empty
    histogram.
    """
    if hist.count == 0:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    need = q * hist.count
    seen = 0
    for bucket, n in sorted(hist.buckets.items()):
        seen += n
        if seen >= need:
            return float(min(max(bucket_upper(bucket), hist.min), hist.max))
    return float(hist.max)  # pragma: no cover - q <= 1 always lands above


def serve_health_report(
    metrics: MetricsRegistry, title: str = "serving health"
) -> str:
    """Serving-layer health table from a registry's ``serve.*`` telemetry.

    Summarizes the request/batch traffic, tier hit rates (the exact-hit
    pair cache and the per-source oracle cache), latency quantiles from
    the ``serve.latency_us`` histogram (arrival → reply encoded) and
    queue-wait quantiles from ``serve.queue_wait_us`` (HDR-bucket upper
    bounds, at most 12.5% above the observed value), structured error
    counts, and any ``serve.fallback.<kind>`` degradation
    events.  Returns ``""`` when the registry saw no serving traffic at
    all — callers can print the result unconditionally.
    """
    counters = metrics.counters

    def val(label: str, field: str = "elements") -> int:
        c = counters.get(f"primitive.{label}.{field}")
        return c.value if c is not None else 0

    if not any(k.startswith("primitive.serve.") for k in counters):
        return ""
    requests = val("serve.request")
    batches = val("serve.batch", "calls")
    rows = [["requests", requests], ["batches", batches]]
    if batches:
        rows.append(["mean batch size", f"{val('serve.batch') / batches:.2f}"])
    lat = metrics.histograms.get("serve.latency_us")
    if lat is not None and lat.count:
        rows.append(["latency p50 us", f"{histogram_quantile(lat, 0.50):.1f}"])
        rows.append(["latency p99 us", f"{histogram_quantile(lat, 0.99):.1f}"])
        rows.append(["latency mean us", f"{lat.mean:.1f}"])
    wait = metrics.histograms.get("serve.queue_wait_us")
    if wait is not None and wait.count:
        rows.append(["queue wait p50 us", f"{histogram_quantile(wait, 0.50):.1f}"])
        rows.append(["queue wait p99 us", f"{histogram_quantile(wait, 0.99):.1f}"])
    for tier, hit_label, miss_label in (
        ("pair cache", "serve.cache.pair.hit", "serve.cache.pair.miss"),
        ("source cache", "oracle.cache.hit", "oracle.cache.miss"),
    ):
        hits, misses = val(hit_label), val(miss_label)
        if hits or misses:
            rows.append(
                [f"{tier} hit rate", f"{100.0 * hits / (hits + misses):.1f}%"]
            )
    for name, c in sorted(counters.items()):
        for prefix, caption in (
            ("primitive.serve.error.", "errors"),
            ("primitive.serve.fallback.", "fallback"),
        ):
            if name.startswith(prefix) and name.endswith(".elements") and c.value:
                slug = name[len(prefix):-len(".elements")]
                rows.append([f"{caption} ({slug})", c.value])
    return render_table(title, ["figure", "value"], rows)


def _span_races(span: Span) -> int:
    """Race findings a shadow detector attributed to this span (self only)."""
    return sum(
        s.calls
        for label, s in span.ops.items()
        if label.startswith(RACE_TRAFFIC_PREFIX)
    )
