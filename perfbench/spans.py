"""Spans recorded from outside the program.

The traced run wraps public functions of each layer at the place where
their caller looks the name up (a module attribute or a class method), so
no span lives inside ``src/``.  Each span records its name, start, end,
parent span and the benchmark op id current when it opened; spans stay in
memory and are written out once, when the run ends.

A layer's self time is its spans' total duration minus the part covered by
their child spans.  The untraced residual is measured independently: the
part of the traced window that no top-level span covers, on any thread.
``self times + untraced residual == traced wall`` then holds within
:data:`SUM_TOLERANCE_S` only if no two top-level spans overlap and no child
outlives its parent, i.e. no wall time is counted twice; the benchmark's own
test checks it for every workload.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path

#: Allowed gap between (self times + untraced residual) and the traced wall.
SUM_TOLERANCE_S = 1e-6


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1, op id]
        self.spans: list[list] = []
        self.op: int | None = None
        #: while True, wrapped calls run unrecorded (the benchmark's own checks)
        self.paused = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every outermost call.

        A call nested directly inside a span of the same name (an override
        calling its base class) is folded into the outer span.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if recorder.paused or (stack and recorder.spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            with recorder._lock:
                idx = len(recorder.spans)
                recorder.spans.append(
                    [name, time.perf_counter(), None, stack[-1] if stack else -1,
                     recorder.op]
                )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.spans[idx][2] = time.perf_counter()

        return traced

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        self.replace(owner, attr, lambda fn: self.wrap(name, fn))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self):
        """Run the ``with`` body unrecorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- derived figures -----------------------------------------------------

    def closed(self) -> list[list]:
        return [s for s in self.spans if s[2] is not None]

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over closed spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.closed():
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s[2] is None:
                continue
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += (s[2] - s[1]) - child_time[i]
        return out

    def covered_s(self) -> float:
        """Length of the union of the top-level spans' intervals."""
        total, reach = 0.0, float("-inf")
        for start, end in sorted((s[1], s[2]) for s in self.closed() if s[3] < 0):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.closed() if s[0] == name]

    def write(self, path: Path) -> None:
        """Dump every span as JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for s in self.closed()
        ]
        path.write_text(json.dumps(rows))


@contextlib.contextmanager
def unrecorded(rec: Recorder | None):
    """:meth:`Recorder.pause` that also accepts ``None`` (untraced runs)."""
    if rec is None:
        yield
    else:
        with rec.pause():
            yield


def install_layer_spans(rec: Recorder) -> None:
    """Wrap each layer's public entry points where their callers find them."""
    import repro.dynamic.hopset as dyn_hopset
    import repro.hopsets.hopset as hopset_mod
    import repro.hopsets.multi_scale as multi_scale
    import repro.hopsets.single_scale as single_scale
    import repro.pram.primitives as primitives
    import repro.serve.server as server_mod
    import repro.sssp.mssp as mssp
    from repro.dynamic.engine import DynamicOracle
    from repro.hopsets.store import HopsetStore
    from repro.pram.backends.base import ExecutionBackend
    from repro.pram.backends.sharded import ShardedBackend
    from repro.sssp.oracle import HopsetDistanceOracle

    # hopsets (build, refresh, store) and graphs (union materialization)
    for mod in (multi_scale, dyn_hopset):
        rec.patch(mod, "build_single_scale", "hopsets.build_single_scale")
    rec.patch(single_scale, "neighbor_tables", "hopsets.neighbor_tables")
    rec.patch(single_scale, "ruling_set", "hopsets.ruling_set")
    rec.patch(single_scale, "bfs_from_clusters", "hopsets.bfs_from_clusters")
    for mod in (multi_scale, hopset_mod, dyn_hopset):
        rec.patch(mod, "union_with_edges", "graphs.union_graph")
    rec.patch(HopsetStore, "load", "hopsets.store_load")
    # pram fused kernels and the backend seams
    rec.patch(primitives, "pprune_entries", "pram.pprune_entries")
    rec.patch(primitives, "paggregate_entries", "pram.paggregate_entries")
    rec.patch(mssp, "prelax_arcs_batch", "pram.prelax_arcs_batch")
    for cls in (ExecutionBackend, ShardedBackend):
        rec.patch(cls, "entry_segmin", "pram_backends.entry_segmin")
        rec.patch(cls, "relax_segmin_batch", "pram_backends.relax_segmin_batch")
    # sssp oracle
    rec.patch(HopsetDistanceOracle, "explore_many", "sssp.explore_many")
    rec.patch(HopsetDistanceOracle, "invalidate_all", "sssp.invalidate")
    rec.patch(HopsetDistanceOracle, "invalidate_touching", "sssp.invalidate")
    rec.patch(server_mod, "tree_path", "sssp.tree_path")
    # serve front end
    rec.patch(server_mod.OracleServer, "serve_batch", "serve.serve_batch")
    rec.patch(server_mod, "parse_line", "serve.parse_line")
    for fmt in ("format_dist", "format_path", "format_update", "format_delete"):
        rec.patch(server_mod, fmt, "serve.format")
    # dynamic
    rec.patch(DynamicOracle, "apply", "dynamic.apply")
    rec.patch(DynamicOracle, "maintain", "dynamic.maintain")
