#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload build --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and measures the program under ``src/``
there.  Prints one JSON report line (host fingerprint, per-phase request
counts, generator lag, extra figures) and then, as the last line, the
result: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exits 1 when any answer was wrong and 2 when it cannot run
(no sources, a refused ``REPRO_*`` toggle, an invalid open-loop run).
"""

from __future__ import annotations

import argparse
import atexit
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

BENCHMARK_JSON = common.ROOT / "BENCHMARK.json"


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(BENCHMARK_JSON.read_text()) if BENCHMARK_JSON.is_file() else None
    if spec is None:
        raise common.BenchError(f"missing {BENCHMARK_JSON}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: common.Sizes = common.FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report line)."""
    common.import_program()
    common.refuse_toggles()
    from churn import run_churn
    from serving import run_query
    from workloads import run_build

    workloads = {
        "build": run_build,
        "query-cold": run_query,
        "churn": run_churn,
    }
    if workload not in workloads:
        raise common.BenchError(f"unknown workload {workload!r}")
    units = metric_units("per_layer" if trace else "end_to_end")
    fingerprint = common.fingerprint()
    wd = common.work_dir(workload, seed)
    try:
        out = workloads[workload](seed, seconds, trace, sizes, wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    values = out.layers if trace else out.e2e
    metrics = {}
    for name, unit in units.items():
        if not trace and name not in values:
            raise common.BenchError(f"{workload} did not measure {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint,
        "phases": out.phases,
        "fail_frac": out.failed / max(out.attempted, 1),
        "problems": out.problems,
        "info": out.info,
        "figures": out.layers if not trace else {},
    }
    if out.recorder is not None:
        report["spans"] = out.recorder.summary()
        trace_file = common.ROOT / ".perfbench_work" / "traces" / f"{workload}-s{seed}.json"
        out.recorder.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(common.ROOT))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Every process started below is stopped and waited for on every way
    # out: a SIGTERM unwinds through the ``finally`` blocks, orphans are
    # adopted, and the last exit handler (registered first) reaps whatever
    # an earlier one left.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    common.adopt_orphans()
    atexit.register(common.reap_children)
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        common.stop_helpers()
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
