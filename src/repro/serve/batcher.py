"""The micro-batcher: concurrent queries → one ordered batch evaluation.

Transport threads (one per TCP connection) call :meth:`MicroBatcher.submit`
and wait on the returned future; a single collector thread hands whatever
is queued the moment it is free (up to ``max_batch``) — in strict arrival
order — to the ``evaluate`` callable in one go.  This is group commit:
nothing waits for company, a lone request starts at once, and requests
that arrive during an evaluation form the next batch.  The Elkin–Neiman
shape (arXiv:2004.07572): S concurrent queries against one hopset collapse
into a multi-source evaluation, so distinct sources in the batch cost one
β-hop exploration each and repeated sources cost none.

Batching is a *wall-clock* optimization only.  Because the server's answer
for each request is a pure function of the request (``docs/serving.md``),
any permutation of arrivals and any partition into batches yields
bit-identical per-query answers and identical per-source charged cost —
the Hypothesis property in ``tests/property/test_prop_serve.py`` pins
exactly that, and the evaluate callable never sees out-of-order items.

Evaluation runs on the collector thread alone, so the numeric tiers (NumPy
kernels, the shared workspace, the sharded backend's pipes) are accessed
single-threaded — no locks in the hot path.  Each submission is stamped
with its arrival time; while the collector evaluates a batch,
:meth:`MicroBatcher.arrivals` returns the batch's stamps on that thread,
which is how the server measures queue wait without changing the
evaluate signature.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Sequence

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Collect submissions into ordered batches for one evaluate callable.

    Parameters
    ----------
    evaluate:
        ``evaluate(items) -> results`` with ``len(results) == len(items)``,
        called with arrival-ordered batches on the collector thread.  A
        raised exception fails every future of that batch (and only that
        batch — the collector keeps serving).
    max_batch:
        Most requests one evaluation takes; the rest wait for the next.
    """

    def __init__(
        self, evaluate: Callable[[Sequence], Sequence], max_batch: int = 64
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._evaluate = evaluate
        self.max_batch = int(max_batch)
        self._cv = threading.Condition()
        self._pending: deque[tuple[object, Future, int]] = deque()
        self._closed = False
        self._thread: threading.Thread | None = None
        self._local = threading.local()
        self.batches = 0
        self.submitted = 0

    # -- client side ---------------------------------------------------------

    def submit(self, item) -> Future:
        """Enqueue one request; the future resolves to its evaluate result."""
        fut: Future = Future()
        arrived = time.perf_counter_ns()
        with self._cv:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._pending.append((item, fut, arrived))
            self.submitted += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="serve-batcher", daemon=True
                )
                self._thread.start()
            self._cv.notify()
        return fut

    def arrivals(self) -> list[int] | None:
        """``perf_counter_ns`` arrival stamps of the batch being evaluated.

        Aligned with the evaluate call's items; ``None`` on any thread
        other than the collector inside an evaluation.
        """
        return getattr(self._local, "arrivals", None)

    def close(self) -> None:
        """Stop the collector after draining whatever is already queued."""
        with self._cv:
            self._closed = True
            self._cv.notify()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- collector thread ----------------------------------------------------

    def _take_batch(self) -> list[tuple[object, Future, int]] | None:
        """Block until work is queued (or ``None`` at close-and-drained)."""
        with self._cv:
            while not self._pending:
                if self._closed:
                    return None
                self._cv.wait()
            batch = []
            while self._pending and len(batch) < self.max_batch:
                batch.append(self._pending.popleft())
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            items = [item for item, _, _ in batch]
            self._local.arrivals = [arrived for _, _, arrived in batch]
            try:
                results = self._evaluate(items)
                if len(results) != len(items):
                    raise RuntimeError(
                        f"evaluate returned {len(results)} results "
                        f"for {len(items)} items"
                    )
            except BaseException as exc:  # noqa: BLE001 - forwarded per-future
                for _, fut, _ in batch:
                    if not fut.cancelled():
                        fut.set_exception(exc)
                continue
            finally:
                self._local.arrivals = None
            self.batches += 1
            for (_, fut, _), res in zip(batch, results):
                if not fut.cancelled():
                    fut.set_result(res)
