#!/usr/bin/env python
"""Regenerate every experiment table (E1–E27) in one run.

Runs the benchmark harness with output capture disabled, collects the
tables the bench modules emit on stderr, and writes them to
``EXPERIMENTS.generated.md`` — the raw companion to the annotated
``EXPERIMENTS.md``.

Usage:  python scripts/regenerate_experiments.py [output.md]
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.generated.md")
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "-q", "-s", "-p", "no:cacheprovider"],
        cwd=repo,
        capture_output=True,
        text=True,
    )
    # tables are printed to stderr by benchmarks/conftest.emit
    tables = re.findall(
        r"^(E\d+[^\n]*\n=+\n(?:[^\n]*\n)+?)\n", proc.stderr + "\n", flags=re.M
    )
    if proc.returncode != 0 and not tables:
        sys.stderr.write(proc.stdout[-3000:])
        sys.stderr.write(proc.stderr[-3000:])
        return proc.returncode
    tables.sort(key=lambda t: int(re.match(r"E(\d+)", t).group(1)))
    lines = [
        "# EXPERIMENTS (generated)",
        "",
        "Raw tables from one run of `pytest benchmarks/ -s`.",
        "All runs are deterministic; see EXPERIMENTS.md for the analysis.",
        "",
    ]
    for t in tables:
        lines.append("```")
        lines.append(t.rstrip())
        lines.append("```")
        lines.append("")
    out_path.write_text("\n".join(lines))
    print(f"wrote {len(tables)} tables to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
