"""The oracle serving layer: tiered-cache answering behind a micro-batcher.

:class:`OracleServer` is the in-process engine (tests and benchmarks drive
it directly); :func:`serve_tcp` wraps it in a threaded TCP front end that
speaks the line protocol of :mod:`repro.serve.protocol` — together they
are ``repro serve``.

**Answer tiers** (``docs/serving.md``):

0. *Exact-hit pair LRU* (:class:`~repro.serve.cache.PairCache`) —
   memoized ``dist U V`` floats under the directed key ``(U, V)``.
1. *Per-source vectors* — the
   :class:`~repro.sssp.oracle.HopsetDistanceOracle` LRU of ``(dist,
   parent)`` vectors, shared by every query naming that source.
2. *Hopset-limited Bellman–Ford* — a β-hop exploration of G ∪ H on the
   server's one :class:`~repro.pram.machine.PRAM`; every exploration
   reuses the same cached :class:`~repro.pram.primitives.RelaxPlan`, and
   under a sharded backend that plan lives in
   ``multiprocessing.shared_memory`` once, with W workers computing
   per-shard segment minima — W serving workers, one copy of the data.

**Determinism contract.**  ``dist U V`` is answered from source U's
vector, always — never from V's even when V happens to be cached (the
offline oracle's opportunistic swap).  Every served answer is therefore a
pure function of ``(graph, hopset, hop_budget, U, V)``: independent of
arrival order, batch partitioning, cache state, worker count, and
degradation events — which is what makes the pair cache transparent, a
recorded query log exactly replayable, and the serve-vs-offline
differential (``tests/serve/test_serve_diff.py``) a bitwise assertion
against ``HopsetDistanceOracle.distances_from(U)[V]``.

**Degradation.**  Under a sharded backend a worker death / round timeout
trips the backend's permanent serial fallback (docs/backends.md); the
server subscribes a failure listener and reports the event as
``serve.fallback.<kind>`` traffic, then keeps serving in-process —
bit-identical answers, serial wall-clock.  Malformed or out-of-range
request lines get structured ``err <code> ...`` replies and never
interrupt the batch, the connection, or the server.

Observability: ``serve.request`` / ``serve.batch`` / ``serve.cache.pair.*``
/ ``serve.error.<code>`` / ``serve.fallback.<kind>`` cost-model traffic
(the oracle tier adds ``oracle.cache.{hit,miss}``), per-request stage
histograms — ``serve.latency_us`` (arrival → reply encoded) and its three
parts ``serve.queue_wait_us`` (arrival → batch start), ``serve.explore_us``
(→ the request's segment pre-explored) and ``serve.answer_us`` (→ reply
encoded) — and the :func:`repro.obs.export.serve_health_report` table over
all of it.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from pathlib import Path

import numpy as np

from repro.dynamic import DynamicOracle, pair_codes
from repro.graphs.csr import Graph
from repro.graphs.errors import InvalidGraphError
from repro.hopsets.hopset import Hopset
from repro.obs.metrics import MetricsRegistry
from repro.pram.machine import PRAM
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PairCache
from repro.serve.protocol import (
    MUTATION_KINDS,
    ProtocolError,
    Request,
    format_delete,
    format_dist,
    format_error,
    format_path,
    format_stats,
    format_update,
    parse_line,
)
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK
from repro.sssp.oracle import HopsetDistanceOracle, tree_path

__all__ = ["OracleServer", "OracleTCPServer", "serve_tcp", "read_query_log"]


def read_query_log(path) -> list[str]:
    """The recorded request lines of a query log, in served order."""
    return [
        line for line in Path(path).read_text().splitlines() if line.strip()
    ]


class OracleServer:
    """Micro-batched, tiered-cache distance/path serving over one hopset.

    Parameters
    ----------
    graph, hopset:
        The base graph and its prebuilt hopset (one immutable copy serves
        every query).
    hop_budget, cache_size:
        Forwarded to the tier-1 :class:`HopsetDistanceOracle`.
    pair_cache:
        Tier-0 capacity (directed exact-hit entries); ``0`` disables.
    backend:
        Execution backend for the explorations — an instance, a spec
        string (``"sharded:2"``), or ``None`` for the ``REPRO_BACKEND``
        default.  The server never closes a backend it did not create
        (specs resolve to process-wide singletons).
    max_batch:
        Most requests one micro-batch evaluation takes
        (:class:`~repro.serve.batcher.MicroBatcher`).
    log_path:
        When given, every served ``dist``/``path`` request line is
        appended there in served order — a deterministic replay input
        (``stats`` lines are excluded: their replies are counters, not
        pure functions of the request).
    metrics:
        Optional externally-attached registry; by default the server
        attaches (and on :meth:`close` detaches) its own.
    mssp_block:
        Row-block width S >= 1 of the S×V matrix engine used when a
        micro-batch groups several uncached sources (``--mssp-block``);
        answers and charges are block-invariant.
    dynamic:
        When True the server accepts the mutation verbs ``update U V W``
        and ``delete U V``: a :class:`~repro.dynamic.engine.DynamicOracle`
        owns mutable G / H / G ∪ H, explorations run over its union, and
        each mutation invalidates exactly the cache entries it can have
        stained — everything on an improvement (cached vectors are stale
        upper bounds everywhere), only tree-touching or non-converged
        vectors on a worsening.  ``hopset`` may then be ``None`` (one is
        built path-reporting from ``params``); a prebuilt hopset must
        carry paths.  Without the flag, mutation verbs get
        ``err unsupported``.
    params, refresh_below, rebuild_below:
        Dynamic-mode knobs, forwarded to the
        :class:`~repro.dynamic.engine.DynamicOracle` (hopset build
        parameters and the lazy-maintenance thresholds).
    """

    def __init__(
        self,
        graph: Graph,
        hopset: Hopset | None,
        hop_budget: int | None = None,
        cache_size: int = 128,
        pair_cache: int = 4096,
        backend=None,
        max_batch: int = 64,
        log_path=None,
        metrics: MetricsRegistry | None = None,
        mssp_block: int = DEFAULT_MSSP_BLOCK,
        dynamic: bool = False,
        params=None,
        refresh_below: float = 0.5,
        rebuild_below: float = 0.2,
    ) -> None:
        self.pram = PRAM(backend=backend)
        self._own_registry = metrics is None
        self.registry = (
            metrics if metrics is not None else MetricsRegistry.attach(self.pram.cost)
        )
        if dynamic:
            self.dynamic: DynamicOracle | None = DynamicOracle(
                graph,
                hopset,
                params,
                pram=self.pram,
                refresh_below=refresh_below,
                rebuild_below=rebuild_below,
            )
            oracle_hopset = self.dynamic.hopset
            union = self.dynamic.union
        else:
            if hopset is None:
                raise InvalidGraphError(
                    "a static server needs a prebuilt hopset"
                )
            self.dynamic = None
            oracle_hopset = hopset
            union = None
        self.oracle = HopsetDistanceOracle(
            graph,
            oracle_hopset,
            hop_budget=hop_budget,
            cache_size=cache_size,
            pram=self.pram,
            metrics=self.registry,
            mssp_block=mssp_block,
            union=union,
        )
        self.pairs = PairCache(pair_cache)
        self.batcher = MicroBatcher(self.serve_batch, max_batch=max_batch)
        #: cumulative charged work attributed to each explored source
        self.source_charges: dict[int, int] = {}
        self.requests = 0
        self.errors = 0
        self.degraded: str | None = None
        self._lock = threading.RLock()
        self._log_fh = open(log_path, "a") if log_path else None
        self._limit_cb = None
        self._limit = None
        listen = getattr(self.pram.backend, "add_failure_listener", None)
        if listen is not None:
            listen(self._on_backend_failure)

    # -- degradation ---------------------------------------------------------

    def _on_backend_failure(self, kind: str, reason: str) -> None:
        """Backend tripped serial fallback mid-exploration: surface it."""
        self.degraded = kind
        self.pram.cost.traffic(f"serve.fallback.{kind}", elements=1)

    # -- answering (callers hold the lock) -----------------------------------

    def _check(self, w: int) -> None:
        if not 0 <= w < self.oracle.graph.n:
            raise ProtocolError(
                "out-of-range", f"vertex {w} outside [0, {self.oracle.graph.n})"
            )

    def _explore(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Tier-1/2 lookup with per-source charged-work attribution."""
        before = self.pram.cost.work
        vectors = self.oracle.vectors_from(source)
        delta = self.pram.cost.work - before
        if delta:
            self.source_charges[source] = (
                self.source_charges.get(source, 0) + delta
            )
        return vectors

    def _answer_dist(self, u: int, v: int) -> float:
        self._check(u)
        self._check(v)
        if u == v:
            return 0.0
        hit = self.pairs.get(u, v)
        if hit is not None:
            self.pram.cost.traffic("serve.cache.pair.hit", elements=1)
            return hit
        self.pram.cost.traffic("serve.cache.pair.miss", elements=1)
        value = float(self._explore(u)[0][v])
        self.pairs.put(u, v, value)
        return value

    def _answer_path(self, u: int, v: int) -> list[int] | None:
        self._check(u)
        self._check(v)
        if u == v:
            return [u]
        dist, parent = self._explore(u)
        if not np.isfinite(dist[v]):
            return None
        return tree_path(parent, u, v, self.oracle.graph.n)

    # -- mutation (dynamic mode) ---------------------------------------------

    def _answer_mutation(self, req: Request) -> None:
        """Apply one ``update``/``delete`` and invalidate what it stained."""
        if self.dynamic is None:
            raise ProtocolError(
                "unsupported",
                f"{req.kind} needs a server running with --dynamic",
            )
        self._check(req.u)
        self._check(req.v)
        if req.u == req.v:
            raise ProtocolError("bad-request", "self-loops are not edges")
        try:
            if req.kind == "delete":
                result = self.dynamic.apply("delete", req.u, req.v)
            else:
                result = self.dynamic.apply("update", req.u, req.v, req.w)
        except InvalidGraphError as exc:
            raise ProtocolError("bad-request", str(exc)) from None
        self.pram.cost.traffic(f"serve.update.{req.kind}", elements=1)
        if result["improved"]:
            # every cached vector is a stale upper bound somewhere
            evicted = self.oracle.invalidate_all()
            dropped = len(self.pairs)
            self.pairs.clear()
        else:
            # worsening: only vectors whose tree crosses an affected pair
            # (or that never provably converged) can have changed
            codes = pair_codes(result["pairs"], self.oracle.graph.n)
            evicted = self.oracle.invalidate_touching(codes)
            dropped = sum(self.pairs.evict_source(s) for s in evicted)
        if evicted:
            self.pram.cost.traffic(
                "serve.update.evicted_vectors", elements=len(evicted)
            )
        if dropped:
            self.pram.cost.traffic(
                "serve.update.evicted_pairs", elements=dropped
            )
        report = self.dynamic.maintain()
        if report.action != "none":
            # maintenance swapped the union object: re-point, restart cold
            self.oracle.union = self.dynamic.union
            self.oracle.invalidate_all()
            self.pairs.clear()
            self.pram.cost.traffic("serve.update.refresh", elements=1)

    def _serve_one(self, item) -> str:
        try:
            req = parse_line(item) if isinstance(item, str) else item
            if req.kind == "dist":
                reply = format_dist(req.u, req.v, self._answer_dist(req.u, req.v))
            elif req.kind == "path":
                reply = format_path(req.u, req.v, self._answer_path(req.u, req.v))
            elif req.kind == "update":
                self._answer_mutation(req)
                reply = format_update(req.u, req.v, req.w)
            elif req.kind == "delete":
                self._answer_mutation(req)
                reply = format_delete(req.u, req.v)
            elif req.kind == "stats":
                reply = format_stats(json.dumps(self.stats(), sort_keys=True))
            elif req.kind == "quit":
                reply = "ok bye"
            else:  # unreachable behind parse_line, defensive for Request users
                raise ProtocolError("bad-request", f"unknown kind {req.kind!r}")
            if self._log_fh is not None and req.kind in (
                "dist", "path", "update", "delete",
            ):
                self._log_fh.write(req.line() + "\n")
        except ProtocolError as exc:
            self.errors += 1
            self.pram.cost.traffic(f"serve.error.{exc.code}", elements=1)
            reply = format_error(exc.code, exc.message)
        self.requests += 1
        self.pram.cost.traffic("serve.request", elements=1)
        return reply

    def _observe(self, arrived: int, start: int, explored: int) -> None:
        """Book one request's stage histograms, reply encoded just now."""
        done = time.perf_counter_ns()
        hist = self.registry.histogram
        hist("serve.queue_wait_us").observe((start - arrived) / 1e3)
        hist("serve.explore_us").observe((explored - start) / 1e3)
        hist("serve.answer_us").observe((done - explored) / 1e3)
        hist("serve.latency_us").observe((done - arrived) / 1e3)

    # -- the batch entry points ----------------------------------------------

    def _pre_explore(self, items) -> None:
        """Advance the batch's distinct uncached sources as one S×V pass.

        The matrix-engine grouping (docs/mssp.md): instead of one β-hop
        exploration per first-naming request, every source the batch
        will need — named by a ``dist``/``path`` request, not already
        answered by tier 0 or resident in tier 1 — joins one
        :meth:`HopsetDistanceOracle.explore_many` matrix sweep.  Counters
        and per-source charges are booked exactly as the per-request
        flow would have booked them (the oracle's fresh-claim protocol),
        so any batch partitioning of a request stream is observationally
        identical; only wall-clock changes.
        """
        n = self.oracle.graph.n
        wanted: list[int] = []
        seen: set[int] = set()
        for item in items:
            try:
                req = parse_line(item) if isinstance(item, str) else item
            except ProtocolError:
                continue  # booked when the malformed line is served
            if req.kind not in ("dist", "path"):
                continue
            u, v = req.u, req.v
            if not (0 <= u < n and 0 <= v < n) or u == v or u in seen:
                continue
            if req.kind == "dist" and self.pairs.contains(u, v):
                continue  # tier 0 answers; the solo flow explores nothing
            seen.add(u)
            wanted.append(u)
        if not wanted:
            return
        charges = self.oracle.explore_many(wanted)
        if charges:
            self.pram.cost.traffic("serve.matrix.group", elements=len(charges))
        for s, delta in charges.items():
            if delta:
                self.source_charges[s] = self.source_charges.get(s, 0) + delta

    @staticmethod
    def _mutates(item) -> bool:
        """Whether a raw line / :class:`Request` is a mutation verb."""
        if isinstance(item, Request):
            return item.kind in MUTATION_KINDS
        parts = item.split(None, 1)
        return bool(parts) and parts[0] in MUTATION_KINDS

    def serve_batch(self, items) -> list[str]:
        """Answer one arrival-ordered batch; one reply line per item.

        ``items`` are raw request lines or parsed :class:`Request`\\ s.
        This is the micro-batcher's evaluate callable and the direct
        entry point for in-process callers (benchmarks, ``--probe``);
        the lock keeps direct calls and the collector thread serialized.
        Each segment's distinct uncached sources are explored up front
        as one S×V matrix pass (:meth:`_pre_explore`); the per-request
        answering then runs entirely against warm tiers.

        Mutation verbs (``update``/``delete``) are segment boundaries:
        the queries before one are answered as their own sub-batch, the
        mutation is applied solo, and batching resumes after — so every
        query observes exactly the graph state of its arrival position
        and no pre-explored vector leaks across an invalidation.  A
        mutation-free batch takes the single-segment path, byte- and
        counter-identical to a server without ``--dynamic``.

        Each request's stage histograms are booked as its reply is
        encoded.  Its arrival is the micro-batcher's submit stamp, or the
        batch start for direct callers; the batch starts once the lock
        is held.
        """
        arrivals = self.batcher.arrivals()
        with self._lock:
            start = time.perf_counter_ns()
            if arrivals is None:
                arrivals = [start] * len(items)
            self.pram.cost.traffic("serve.batch", elements=len(items))
            replies: list[str] = []
            segment: list = []

            def answer(item, explored: int) -> None:
                replies.append(self._serve_one(item))
                self._observe(arrivals[len(replies) - 1], start, explored)

            def flush() -> None:
                if not segment:
                    return
                self._pre_explore(segment)
                explored = time.perf_counter_ns()
                try:
                    for item in segment:
                        answer(item, explored)
                finally:
                    self.oracle.finish_batch()
                segment.clear()

            for item in items:
                if self._mutates(item):
                    flush()
                    answer(item, start)  # a mutation explores nothing
                else:
                    segment.append(item)
            flush()
            if self._log_fh is not None:
                self._log_fh.flush()
        if self._limit_cb is not None and self.requests >= (self._limit or 0):
            cb, self._limit_cb = self._limit_cb, None
            cb()
        return replies

    def submit_line(self, line: str):
        """Enqueue one request line with the micro-batcher; returns a future."""
        return self.batcher.submit(line)

    def handle_line(self, line: str) -> str:
        """Serve one request line immediately (a batch of one)."""
        return self.serve_batch([line])[0]

    def replay(self, lines) -> list[str]:
        """Re-serve a recorded query log; replies pin bitwise (the contract)."""
        return [self.handle_line(line) for line in lines]

    # -- convenience API ------------------------------------------------------

    def query(self, u: int, v: int) -> float:
        """The served ``dist u v`` value (tier-0/1/2, canonical source u)."""
        with self._lock:
            return self._answer_dist(u, v)

    def path(self, u: int, v: int) -> list[int] | None:
        """The served ``path u v`` vertex sequence (canonical source u)."""
        with self._lock:
            return self._answer_path(u, v)

    def on_request_limit(self, limit: int, callback) -> None:
        """Invoke ``callback`` once after ``limit`` requests were served."""
        self._limit = int(limit)
        self._limit_cb = callback

    def stats(self) -> dict:
        """One JSON-friendly dict of serving counters (the ``stats`` reply)."""
        info = self.oracle.cache_info()
        return {
            "requests": self.requests,
            "errors": self.errors,
            "batches": self.batcher.batches,
            "pair_cache": self.pairs.info(),
            "source_cache": info,
            "sources_charged": len(self.source_charges),
            "backend": self.pram.backend.describe(),
            "degraded": self.degraded,
            "dynamic": self.dynamic.stats() if self.dynamic else None,
        }

    def close(self) -> None:
        """Drain the batcher and release what the server owns.

        The execution backend is deliberately *not* closed: spec-resolved
        backends are process-wide singletons and instances belong to the
        caller.
        """
        self.batcher.close()
        if self._own_registry:
            self.registry.detach(self.pram.cost)
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None


class _LineHandler(socketserver.StreamRequestHandler):
    """One thread per connection: read lines, batch-submit, reply in order."""

    def handle(self) -> None:  # pragma: no cover - exercised via socket tests
        server: OracleServer = self.server.oracle_server  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            try:
                reply = server.submit_line(line).result()
            except RuntimeError as exc:  # batcher closed under us
                reply = format_error("shutdown", str(exc))
            try:
                self.wfile.write((reply + "\n").encode("utf-8"))
                self.wfile.flush()
            except OSError:
                return  # client went away mid-reply
            if line.split()[:1] == ["quit"]:
                return


class OracleTCPServer(socketserver.ThreadingTCPServer):
    """Threaded TCP transport for one :class:`OracleServer`."""

    allow_reuse_address = True
    daemon_threads = True
    oracle_server: OracleServer

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_tcp(
    server: OracleServer, host: str = "127.0.0.1", port: int = 0
) -> OracleTCPServer:
    """Bind the line-protocol TCP front end (``port=0`` picks a free port).

    The caller runs ``serve_forever()`` (or hands it to a thread) and later
    ``shutdown()`` + ``server_close()``; the :class:`OracleServer` itself
    is closed separately.
    """
    tcp = OracleTCPServer((host, port), _LineHandler)
    tcp.oracle_server = server
    return tcp
