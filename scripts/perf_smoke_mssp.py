#!/usr/bin/env python
"""CI perf smoke: the S×V matrix engine must be exact and not regress.

Two checks on an E4-scale workload (docs/mssp.md):

* **Correctness hard-fail.**  ``approximate_mssd`` through the matrix
  engine (``block=S``) must produce the bit-identical distance/parent
  matrices of the per-source loop (``block=1``, one source per pass),
  at every probed width.  Any divergence fails the job.

* **Overhead budget.**  At width S=16 the matrix sweep must cost at most
  1.3× the loop's wall (on a quiet host it wins — BENCH_mssp.json
  records the measured crossover; the budget only leaves headroom for
  timer noise on loaded runners, never for a real regression).

Per-width speedups are printed for the CI log; the ledgered figures live
in ``benchmarks/BENCH_mssp.json`` (E26).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.graphs.generators import layered_hop_graph
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.pram.machine import PRAM
from repro.sssp.multi_source import approximate_mssd

_WIDTHS = (2, 8, 16)
_REPEATS = 3
_OVERHEAD_BUDGET = 1.3


def _sweep(g, H, sources, block):
    best, res = float("inf"), None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = approximate_mssd(g, H, sources, pram=PRAM(), block=block)
        best = min(best, time.perf_counter() - t0)
        res = out
    return best, res


def main() -> int:
    g = layered_hop_graph(48, 3, seed=4101)
    H, _ = build_hopset(g, HopsetParams(epsilon=0.25, beta=8))
    rng = np.random.default_rng(4102)
    ok = True
    ratio_at_16 = None
    for s in _WIDTHS:
        sources = rng.choice(g.n, size=s, replace=False)
        loop_wall, loop = _sweep(g, H, sources, block=1)
        batch_wall, batch = _sweep(g, H, sources, block=s)
        if not (
            np.array_equal(loop.dist, batch.dist)
            and np.array_equal(loop.parent, batch.parent)
        ):
            print(
                f"FAIL: matrix engine diverges from the loop at S={s}",
                file=sys.stderr,
            )
            ok = False
        ratio = batch_wall / max(loop_wall, 1e-12)
        if s == 16:
            ratio_at_16 = ratio
        print(
            f"S={s:2d}: loop {loop_wall * 1e3:.1f}ms, "
            f"matrix {batch_wall * 1e3:.1f}ms "
            f"({loop_wall / max(batch_wall, 1e-12):.2f}x speedup)"
        )
    if ratio_at_16 is not None and ratio_at_16 > _OVERHEAD_BUDGET:
        print(
            f"FAIL: matrix sweep at S=16 costs {ratio_at_16:.2f}x the loop "
            f"(budget {_OVERHEAD_BUDGET}x)",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print("perf smoke OK: matrix bit-exact, within the loop-relative budget")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
