#!/usr/bin/env python
"""CI perf smoke: the warm hopset store must hit, bit-identically and cheaply.

Builds the hopset of a small layered workload cold, saves it to a fresh
:class:`~repro.hopsets.store.HopsetStore`, and loads it back by content
key: the load must be a ``store.hit`` returning a bit-identical hopset
(edges with provenance), and must cost less than half of the cold build
(the benchmark's acceptance bar is <10% on the headline workload; the
smoke uses a loose bound so a tiny graph can't flap on fixed I/O
costs).  Exits non-zero on any failure.  See docs/hopset_store.md.
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.graphs.generators import layered_hop_graph
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.hopsets.store import HopsetStore
from repro.pram.machine import PRAM

_REPEATS = 3
_PARAMS = HopsetParams(epsilon=0.25, kappa=3, rho=0.45, beta=8)


def _edge_key(e):
    return (e.u, e.v, e.weight, e.scale, e.phase, e.kind, e.path)


def _best_of(fn, repeats=_REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def main() -> int:
    g = layered_hop_graph(64, 4, seed=2403)
    built, c_wall = _best_of(lambda: build_hopset(g, _PARAMS, pram=PRAM())[0])
    print(f"layered graph n={g.n} m={g.num_edges}: cold build {c_wall * 1e3:.1f}ms")
    ok = True
    with tempfile.TemporaryDirectory() as root:
        store = HopsetStore(root)
        store.save(g, _PARAMS, built)
        warm, w_wall = _best_of(lambda: store.load(g, _PARAMS))
        print(f"warm store load: {w_wall * 1e3:.1f}ms ({w_wall / c_wall:.3f} of cold)")
        if warm is None:
            print("FAIL: warm store missed its own artifact", file=sys.stderr)
            ok = False
        elif list(map(_edge_key, warm.edges)) != list(map(_edge_key, built.edges)):
            print("FAIL: warm store returned a different hopset", file=sys.stderr)
            ok = False
        if w_wall > 0.5 * c_wall:
            print("FAIL: warm load cost more than half a cold build", file=sys.stderr)
            ok = False
    if ok:
        print("perf smoke OK: warm store hits, bit-identical, under half a cold build")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
