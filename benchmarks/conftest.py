"""Shared helpers for the experiment benchmarks (E1–E27).

Each benchmark module computes its experiment table once (cached at module
scope), prints it through :func:`emit` — so `pytest benchmarks/
--benchmark-only -s` reproduces every table of DESIGN.md §4 — and times the
core operation with pytest-benchmark.
"""

from __future__ import annotations

import sys

from repro.analysis.tables import render_table


def emit(title: str, headers, rows) -> None:
    """Print an experiment table (visible with -s; captured otherwise)."""
    print("\n" + render_table(title, headers, rows), file=sys.stderr)
