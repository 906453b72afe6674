"""A persistent, append-only perf ledger for the benchmark suite.

The ``BENCH_*.json`` files under ``benchmarks/`` are regenerated in place
by every run, so the perf *trajectory* across PRs is invisible and a
regression between two of them is undetectable.  This module fixes that:

* every benchmark experiment becomes one normalized **record** — bench id
  (``<file-stem>:<experiment>``), flattened scalar metrics, host
  fingerprint, git sha, timestamp — appended to ``BENCH_history.jsonl``
  (override the path with ``REPRO_LEDGER_PATH``);
* :func:`check` compares the latest on-disk ``BENCH_*.json`` values
  against each bench id's most recent history record (preferring the same
  host fingerprint) under per-metric **tolerance bands**, returning the
  regressions so ``repro perf check`` can exit nonzero.

Tolerance bands encode metric semantics, not a single global threshold:
wall-clock metrics are noisy (generous relative band plus an absolute
floor so micro-benchmarks don't flap), ``speedup`` metrics regress
*downward* and only matter once the baseline actually showed a speedup,
booleans (``bit_exact`` …) must never flip to ``False``, and everything
else — charged work/depth, sizes — is nearly deterministic and gets a
tight band.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_HISTORY",
    "Regression",
    "flatten_metrics",
    "host_fingerprint",
    "git_sha",
    "make_record",
    "scan_bench_dir",
    "append_records",
    "load_history",
    "baseline_for",
    "compare_metrics",
    "check",
    "history_path",
]

#: History file name, kept next to the BENCH_*.json files it records.
DEFAULT_HISTORY = "BENCH_history.jsonl"


def history_path(bench_dir: str | Path) -> Path:
    """The ledger path: ``REPRO_LEDGER_PATH`` or ``<bench_dir>/BENCH_history.jsonl``."""
    override = os.environ.get("REPRO_LEDGER_PATH", "").strip()
    if override:
        return Path(override)
    return Path(bench_dir) / DEFAULT_HISTORY


def flatten_metrics(obj, prefix: str = "") -> dict[str, float | bool]:
    """Flatten nested experiment dicts to dotted scalar metrics.

    Keeps numbers and booleans; strings and lists (notes, labels) are not
    comparable metrics and are dropped.
    """
    flat: dict[str, float | bool] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, name))
    elif isinstance(obj, bool):
        flat[prefix] = obj
    elif isinstance(obj, (int, float)):
        flat[prefix] = float(obj)
    return flat


def host_fingerprint() -> str:
    """A short, stable id of the measuring host (machine + cores + python)."""
    return (
        f"{platform.machine()}-{os.cpu_count() or 1}c-"
        f"py{platform.python_version()}"
    )


def git_sha(repo_root: str | Path | None = None) -> str:
    """The current git commit sha, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def make_record(
    bench_id: str,
    metrics: dict[str, float | bool],
    *,
    host: str | None = None,
    sha: str | None = None,
    timestamp: float | None = None,
) -> dict:
    """One normalized ledger record for a bench run."""
    return {
        "bench": bench_id,
        "metrics": dict(metrics),
        "host": host if host is not None else host_fingerprint(),
        "sha": sha if sha is not None else git_sha(),
        "ts": timestamp if timestamp is not None else time.time(),
    }


def scan_bench_dir(bench_dir: str | Path) -> list[tuple[str, dict]]:
    """All ``(bench_id, flat_metrics)`` pairs from a directory's BENCH files.

    Reads every ``BENCH_*.json`` (the ``.jsonl`` history itself is skipped),
    one bench id per top-level experiment: ``<stem-without-BENCH_>:<key>``.
    A ``host`` experiment describes the recording machine (its core
    count), not a measurement, so it yields no bench id — each record's
    fingerprint already carries the host.
    """
    pairs: list[tuple[str, dict]] = []
    for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        experiments = doc.get("experiments", {})
        suite = path.stem[len("BENCH_"):]
        for key in sorted(experiments):
            if key != "host":
                pairs.append((f"{suite}:{key}", flatten_metrics(experiments[key])))
    return pairs


def append_records(path: str | Path, records: list[dict]) -> int:
    """Append records to the JSONL ledger; returns how many were written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_history(path: str | Path) -> list[dict]:
    """All ledger records, oldest first; missing file means empty history."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def baseline_for(
    history: list[dict], bench_id: str, host: str | None = None
) -> dict | None:
    """The newest record for ``bench_id``, preferring the same host."""
    mine = [r for r in history if r.get("bench") == bench_id]
    if not mine:
        return None
    if host is not None:
        same_host = [r for r in mine if r.get("host") == host]
        if same_host:
            return same_host[-1]
    return mine[-1]


@dataclass
class Regression:
    """One metric outside its tolerance band vs the recorded baseline."""

    bench: str
    metric: str
    baseline: float | bool
    current: float | bool
    why: str

    def __str__(self) -> str:
        return (
            f"{self.bench} {self.metric}: {self.baseline} -> {self.current}"
            f" ({self.why})"
        )


def _wall_floor(metric: str) -> float | None:
    """Absolute noise floor for wall-clock metrics, else ``None``."""
    if metric.endswith("wall_ns") or metric.endswith("_ns"):
        return 2e7
    if metric.endswith("_ms"):
        return 20.0
    if "wall_s" in metric or metric.endswith("_s"):
        return 0.02
    return None


def compare_metrics(
    bench: str, current: dict, baseline: dict
) -> list[Regression]:
    """Regressions of ``current`` vs ``baseline`` under per-metric bands.

    * booleans: ``True -> False`` is a regression;
    * wall metrics: regression when current exceeds ``2.5x`` baseline *and*
      grows past the absolute noise floor;
    * ``speedup`` metrics: regression when current falls under half a
      baseline that was itself a real speedup (>= 1.5);
    * everything else: regression when current exceeds ``1.25x`` baseline
      (charged work/depth and sizes are nearly deterministic).

    Metrics present on only one side are ignored — benches evolve.
    """
    regressions: list[Regression] = []
    for metric in sorted(set(current) & set(baseline)):
        base, cur = baseline[metric], current[metric]
        if isinstance(base, bool) or isinstance(cur, bool):
            if bool(base) and not bool(cur):
                regressions.append(
                    Regression(bench, metric, base, cur, "flipped to False")
                )
            continue
        base = float(base)
        cur = float(cur)
        floor = _wall_floor(metric)
        if floor is not None:
            if cur > base * 2.5 and cur - base > floor:
                regressions.append(
                    Regression(bench, metric, base, cur, "wall > 2.5x baseline")
                )
            continue
        leaf = metric.rsplit(".", 1)[-1]
        if "speedup" in leaf:
            if base >= 1.5 and cur < base * 0.5:
                regressions.append(
                    Regression(bench, metric, base, cur, "speedup halved")
                )
            continue
        if abs(base) > 0 and cur > base * 1.25 or base == 0 and cur > 1:
            regressions.append(
                Regression(bench, metric, base, cur, "> 1.25x baseline")
            )
    return regressions


def check(
    bench_dir: str | Path, history: str | Path | None = None
) -> tuple[list[Regression], int, list[str]]:
    """Compare the on-disk BENCH files against their recorded baselines.

    Returns ``(regressions, benches_compared, benches_without_baseline)``.
    An empty history compares nothing — the first append seeds it.
    """
    ledger = history if history is not None else history_path(bench_dir)
    records = load_history(ledger)
    host = host_fingerprint()
    regressions: list[Regression] = []
    missing: list[str] = []
    compared = 0
    for bench_id, metrics in scan_bench_dir(bench_dir):
        baseline = baseline_for(records, bench_id, host)
        if baseline is None:
            missing.append(bench_id)
            continue
        compared += 1
        regressions.extend(
            compare_metrics(bench_id, metrics, baseline.get("metrics", {}))
        )
    return regressions, compared, missing
