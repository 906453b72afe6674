"""Command-line interface.

Usage::

    python -m repro build   graph.npz hopset.npz [--epsilon E --kappa K --rho R --beta B --paths --reduce]
                            [--store DIR [--warm]]
    python -m repro sssp    graph.npz hopset.npz --source S [--out dist.npz] [--engine {dense,sparse,auto}]
    python -m repro spt     graph.npz hopset.npz --source S [--out tree.npz]
    python -m repro oracle  graph.npz hopset.npz [--query U V ...] [--batch S1,S2,...]
                            [--mssp-block S]
    python -m repro certify graph.npz hopset.npz [--beta B --epsilon E]
    python -m repro info    artifact.npz
    python -m repro store   {ls,gc} DIR [--keep-newest N --max-bytes B]
    python -m repro gen     graph.npz --family er --n 100 [--seed 7 ...]
    python -m repro trace   {build,sssp,spt} ... --trace-out trace.json [--jsonl spans.jsonl]
    python -m repro profile {build,sssp} ... [--top N] [--flame-out flame.folded]
    python -m repro conformance [--strict] [--seed N] [--n N] [--families er,grid] [--trace-out t.json]
    python -m repro serve   graph.npz [hopset.npz] [--host H --port P] [--probe "dist U V" ...]
                            [--max-requests N --log queries.log --pair-cache K
                             --max-batch B --cache-size S --hops B --backend SPEC]
                            [--mssp-block S] [--store DIR --warm [--epsilon E --kappa K ...]]

``trace`` runs the wrapped command under the observability layer
(``repro.obs``): it writes a Chrome trace-event JSON (loadable in
``chrome://tracing`` / Perfetto) with per-scale/per-phase span attribution
and per-primitive metrics, prints a flame-style report, and evaluates the
paper's theorem bound watchdogs (measured constants, PASS/WARN).  Under a
sharded backend the trace gains one lane per worker (cross-process
telemetry, docs/observability.md) and a backend-health table.

``profile`` runs build/sssp under the tracer and prints per-scale,
per-phase, per-primitive *exclusive* wall attribution (the ROADMAP item 2
instrument), plus a folded flame file for flamegraph.pl / speedscope.

``conformance`` diffs every vectorized primitive against a literal CREW
program and sweeps the E-family smoke graphs under the shadow race
detector (``repro.conformance``, docs/conformance.md); exit status 0 iff
everything matches bit-exactly with zero race findings.

``serve`` loads a graph plus a saved hopset into an
:class:`~repro.serve.server.OracleServer` — micro-batched tiered-cache
distance/path serving over a line-protocol TCP socket (docs/serving.md).
``--probe`` answers the given request lines in-process and exits (no
socket; the CI smoke path); otherwise the server listens on
``--host``/``--port`` until interrupted (or until ``--max-requests``).
A serving-health table is printed on exit.

``oracle`` loads a graph plus a saved hopset into a
:class:`~repro.sssp.oracle.HopsetDistanceOracle` and answers point
(``--query U V``, repeatable) or batch (``--batch S1,S2,...``) distance
queries; with neither flag it reads ``query U V`` / ``stats`` / ``quit``
lines from stdin.  Cache hit statistics are printed on exit.

Query-side commands (``sssp``/``spt``/``oracle`` and their traced forms)
accept ``--backend serial|sharded[:W]`` to pick the execution backend
(docs/backends.md); the default follows ``REPRO_BACKEND``.

Edge-list ``.txt`` inputs (``u v w`` per line) are also accepted wherever a
graph archive is expected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.graphs.build import from_edges
from repro.graphs.csr import Graph
from repro.graphs.errors import VertexError
from repro.dynamic import DEFAULT_FALLBACK_FRAC, DynamicSSSP
from repro.graphs.generators import (
    as_rng,
    erdos_renyi,
    failure_burst_schedule,
    grid_graph,
    layered_hop_graph,
    path_graph,
    periodic_weight_schedule,
    preferential_attachment,
    random_geometric,
    road_network,
    wide_weight_graph,
)
from repro.hopsets.errors import PathReportingError
from repro.hopsets.hopset import Hopset
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams
from repro.hopsets.path_reporting import build_path_reporting_hopset
from repro.hopsets.store import HopsetStore, build_variant
from repro.hopsets.reduction_paths import (
    build_reduced_path_reporting_hopset,
    spt_hop_budget,
)
from repro.hopsets.verification import certify
from repro.hopsets.weight_reduction import build_reduced_hopset
from repro.obs.bounds import (
    evaluate_envelopes,
    query_envelopes,
    theorem_3_7_envelopes,
    watchdog_table,
)
from repro.obs.export import (
    backend_health_report,
    flame_report,
    op_wall_report,
    serve_health_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_report, write_folded_flame
from repro.obs.tracer import SpanTracer
from repro.pram.frontier import ENGINES
from repro.pram.machine import PRAM
from repro.serialize import load_graph, load_hopset, save_graph, save_hopset
from repro.serve.server import OracleServer, serve_tcp
from repro.sssp.mssp import DEFAULT_MSSP_BLOCK
from repro.sssp.oracle import HopsetDistanceOracle
from repro.sssp.spt import approximate_spt
from repro.sssp.sssp import approximate_sssp_with_hopset

__all__ = ["main"]

_FAMILIES = {
    "er": lambda a: erdos_renyi(a.n, a.p, seed=a.seed, w_range=(a.wmin, a.wmax)),
    "grid": lambda a: grid_graph(
        int(a.n**0.5), int(a.n**0.5), seed=a.seed, w_range=(a.wmin, a.wmax)
    ),
    "path": lambda a: path_graph(a.n, seed=a.seed, w_range=(a.wmin, a.wmax)),
    "layered": lambda a: layered_hop_graph(max(a.n // 4, 2), 4, seed=a.seed),
    "geometric": lambda a: random_geometric(a.n, a.radius, seed=a.seed),
    "powerlaw": lambda a: preferential_attachment(a.n, 2, seed=a.seed),
    "wide": lambda a: wide_weight_graph(a.n, a.aspect, seed=a.seed),
    "road": lambda a: road_network(
        max(int(a.n**0.5), 2), max(int(a.n**0.5), 2),
        seed=a.seed, w_range=(a.wmin, a.wmax),
    ),
}


def _read_graph(path: str) -> Graph:
    p = Path(path)
    if p.suffix == ".npz":
        return load_graph(p)
    triples = []
    n = 0
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v, w = line.split()
        triples.append((int(u), int(v), float(w)))
        n = max(n, int(u) + 1, int(v) + 1)
    return from_edges(n, triples)


def _params(args) -> HopsetParams:
    return HopsetParams(
        epsilon=args.epsilon, kappa=args.kappa, rho=args.rho, beta=args.beta
    )


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--kappa", type=int, default=2)
    p.add_argument("--rho", type=float, default=0.4)
    p.add_argument("--beta", type=int, default=None)


def cmd_build(args, pram: PRAM | None = None) -> int:
    g = _read_graph(args.graph)
    params = _params(args)
    pram = pram if pram is not None else PRAM()
    if args.warm and not args.store:
        print("--warm needs --store DIR (the artifact cache to load from)",
              file=sys.stderr)
        return 2
    variant = build_variant(paths=args.paths, reduce=args.reduce)
    store = HopsetStore(args.store) if args.store else None
    hopset = None
    if store is not None and args.warm:
        hopset = store.load(g, params, variant=variant, cost=pram.cost)
    warm = hopset is not None
    replayed = ""
    if hopset is None:
        if args.reduce and args.paths:
            hopset, _ = build_reduced_path_reporting_hopset(g, params, pram)
        elif args.reduce:
            hopset, _ = build_reduced_hopset(g, params, pram)
        else:
            build = build_path_reporting_hopset if args.paths else build_hopset
            hopset, report = build(g, params, pram)
            replayed = (
                f", {len(report.replayed_scales)} of {len(report.scales)} "
                "scales replayed"
            )
        if store is not None:
            store.save(g, params, hopset, variant=variant)
    save_hopset(args.out, hopset)
    source = "warm store hit" if warm else "built"
    print(
        f"{source} hopset: {hopset.num_records} records / {hopset.size()} pairs, "
        f"work={pram.cost.work:,}, depth={pram.cost.depth:,}{replayed} -> {args.out}"
    )
    return 0


def _query_pram(args, pram: PRAM | None) -> PRAM:
    """The machine a query command runs on, honouring ``--backend``."""
    if pram is not None:
        return pram
    return PRAM(backend=getattr(args, "backend", None))


def cmd_sssp(args, pram: PRAM | None = None) -> int:
    g = _read_graph(args.graph)
    hopset = load_hopset(args.hopset)
    pram = _query_pram(args, pram)
    budget = args.hops if args.hops else None
    if hopset.meta.get("reduction"):
        budget = budget or spt_hop_budget(hopset.beta)
    res = approximate_sssp_with_hopset(
        g, hopset, args.source, pram=pram, hop_budget=budget, engine=args.engine
    )
    reached = int(np.isfinite(res.dist).sum())
    print(
        f"sssp from {args.source}: reached {reached}/{g.n} vertices in "
        f"{res.rounds_used} rounds"
    )
    if args.out:
        np.savez_compressed(args.out, dist=res.dist, parent=res.parent)
        print(f"wrote {args.out}")
    else:
        head = ", ".join(f"{d:.3f}" for d in res.dist[: min(10, g.n)])
        print(f"dist[0:10] = [{head}]")
    return 0


def cmd_spt(args, pram: PRAM | None = None) -> int:
    g = _read_graph(args.graph)
    hopset = load_hopset(args.hopset)
    pram = _query_pram(args, pram)
    budget = args.hops or (
        spt_hop_budget(hopset.beta) if hopset.meta.get("reduction") else None
    )
    spt = approximate_spt(g, hopset, args.source, pram=pram, hop_budget=budget)
    print(
        f"spt rooted at {args.source}: {len(spt.tree_edges())} tree edges, "
        f"peeled {sum(spt.replacements.values())} hopset edges"
    )
    if args.out:
        np.savez_compressed(args.out, parent=spt.parent, dist=spt.dist)
        print(f"wrote {args.out}")
    return 0


def cmd_certify(args) -> int:
    g = _read_graph(args.graph)
    hopset = load_hopset(args.hopset)
    beta = args.beta or 2 * hopset.beta + 1
    cert = certify(g, hopset, beta=beta, epsilon=args.epsilon)
    print(
        f"certify(beta={beta}, eps={args.epsilon}): safe={cert.safe} "
        f"holds={cert.holds} max_stretch={cert.max_stretch:.4f} "
        f"pairs={cert.pairs_checked}"
    )
    return 0 if (cert.safe and cert.holds) else 1


def cmd_info(args) -> int:
    p = Path(args.artifact)
    with np.load(p, allow_pickle=False) as data:
        kind = str(data["kind"][0])
    if kind == "graph":
        g = load_graph(p)
        print(f"graph: n={g.n}, m={g.num_edges}, weights "
              f"[{g.min_weight():.4g}, {g.max_weight():.4g}]")
    else:
        h = load_hopset(p)
        print(
            f"hopset: n={h.n}, records={h.num_records}, pairs={h.size()}, "
            f"beta={h.beta}, eps={h.epsilon}, scales={h.scales()}, "
            f"kinds={h.kind_counts()}"
        )
    return 0


def cmd_oracle(args, pram: PRAM | None = None) -> int:
    if args.mssp_block < 1:
        print(f"--mssp-block must be >= 1, got {args.mssp_block}", file=sys.stderr)
        return 2
    g = _read_graph(args.graph)
    hopset = load_hopset(args.hopset)
    budget = args.hops or (
        spt_hop_budget(hopset.beta) if hopset.meta.get("reduction") else None
    )
    pram = _query_pram(args, pram)
    registry = MetricsRegistry.attach(pram.cost)
    oracle = HopsetDistanceOracle(
        g, hopset, hop_budget=budget, cache_size=args.cache_size,
        pram=pram, metrics=registry, mssp_block=args.mssp_block,
    )
    ran = False
    for u, v in args.query or ():
        print(f"dist({u}, {v}) ≈ {oracle.query(u, v):.6g}")
        ran = True
    if args.batch:
        sources = np.array(
            [int(s) for s in args.batch.split(",") if s.strip()], dtype=np.int64
        )
        mat = oracle.batch(sources)
        if args.out:
            np.savez_compressed(args.out, sources=sources, dist=mat)
            print(f"wrote {args.out}")
        else:
            for s, row in zip(sources, mat):
                print(f"source {int(s)}: reached {int(np.isfinite(row).sum())}/{g.n}")
        ran = True
    if not ran:
        # interactive: one `query U V` / `stats` / `quit` command per line
        for line in sys.stdin:
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] in ("quit", "exit"):
                    break
                elif parts[0] == "stats":
                    print(oracle.cache_info())
                elif parts[0] == "query" and len(parts) == 3:
                    print(f"dist({parts[1]}, {parts[2]}) ≈ "
                          f"{oracle.query(int(parts[1]), int(parts[2])):.6g}")
                else:
                    print(f"? unrecognized: {line.strip()!r} "
                          "(try: query U V | stats | quit)")
            except (ValueError, VertexError) as exc:
                print(f"error: {exc}")
    registry.detach(pram.cost)
    info = oracle.cache_info()
    print(
        f"oracle stats: {info['tier2_explorations']} tier-2 explorations "
        f"({info['matrix_passes']} matrix passes), "
        f"{info['tier1_vector_misses']} tier-1 vector misses, "
        f"{info['hits']} cache hits, {info['cached_sources']} sources cached"
    )
    print(
        "metrics: "
        f"oracle.cache.hit={registry.counter('oracle.cache.hit').value} "
        f"oracle.cache.miss={registry.counter('oracle.cache.miss').value}"
    )
    return 0


def _serve_hopset(args, g: Graph) -> tuple[Hopset | None, str]:
    """The hopset a ``repro serve`` boots from, plus where it came from.

    ``--warm --store DIR`` consults the content-addressed store first
    (key: graph content + build params).  Fail-soft by construction: a
    store miss falls back to the positional artifact if one was given,
    else to a fresh in-process build that is then filed in the store —
    the warm path can degrade, never break, the boot.
    """
    if args.warm:
        if not args.store:
            print("--warm needs --store DIR (the artifact cache to load from)",
                  file=sys.stderr)
            return None, ""
        params = _params(args)
        store = HopsetStore(args.store)
        hopset = store.load(g, params)
        if hopset is not None:
            return hopset, f"warm store hit ({args.store})"
        if args.hopset:
            return load_hopset(args.hopset), f"store miss -> {args.hopset}"
        hopset, _ = build_hopset(g, params, PRAM())
        store.save(g, params, hopset)
        return hopset, "store miss -> fresh build (filed)"
    if not args.hopset:
        print("need a hopset artifact (or --warm --store DIR)", file=sys.stderr)
        return None, ""
    return load_hopset(args.hopset), args.hopset


def cmd_serve(args, pram: PRAM | None = None) -> int:
    for flag, value, least in (
        ("--max-batch", args.max_batch, 1),
        ("--cache-size", args.cache_size, 1),
        ("--pair-cache", args.pair_cache, 0),
        ("--mssp-block", args.mssp_block, 1),
    ):
        if value < least:
            print(f"{flag} must be >= {least}, got {value}", file=sys.stderr)
            return 2
    g = _read_graph(args.graph)
    if args.dynamic and not args.hopset and not args.warm:
        # the DynamicOracle builds its own path-reporting hopset
        hopset, origin = None, "fresh path-reporting build"
    else:
        hopset, origin = _serve_hopset(args, g)
        if hopset is None:
            return 2
    budget = args.hops or (
        spt_hop_budget(hopset.beta)
        if hopset is not None and hopset.meta.get("reduction")
        else None
    )
    try:
        server = OracleServer(
            g,
            hopset,
            hop_budget=budget,
            cache_size=args.cache_size,
            pair_cache=args.pair_cache,
            backend=getattr(args, "backend", None),
            max_batch=args.max_batch,
            log_path=args.log,
            mssp_block=args.mssp_block,
            dynamic=args.dynamic,
            params=_params(args),
            refresh_below=args.refresh_below,
            rebuild_below=args.rebuild_below,
        )
    except PathReportingError:
        print(
            "--dynamic needs a path-reporting hopset (build with --paths) "
            "or no artifact at all (one is built fresh)",
            file=sys.stderr,
        )
        return 2
    rc = 0
    try:
        if args.probe:
            for reply in server.serve_batch(list(args.probe)):
                print(reply)
                if reply.startswith("err "):
                    rc = 1
        else:
            tcp = serve_tcp(server, host=args.host, port=args.port)
            if args.max_requests:
                server.on_request_limit(args.max_requests, tcp.shutdown)
            # flush: clients script against this line to learn the bound
            # port, and block-buffered pipes would hold it until exit
            verbs = "dist U V | path U V"
            if args.dynamic:
                verbs += " | update U V W | delete U V"
            print(
                f"serving {args.graph} + {origin} on "
                f"{args.host}:{tcp.port} (backend {server.pram.backend.describe()}; "
                f"protocol: {verbs} | stats | quit)",
                flush=True,
            )
            try:
                tcp.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive stop
                pass
            finally:
                tcp.shutdown()
                tcp.server_close()
    finally:
        registry = server.registry
        server.close()
    health = serve_health_report(registry)
    if health:
        print(health)
    info = server.oracle.cache_info()
    print(
        f"serve stats: {info['tier2_explorations']} tier-2 explorations "
        f"({info['matrix_passes']} matrix passes), "
        f"{info['tier1_vector_misses']} tier-1 vector misses, "
        f"{info['hits']} cache hits, {info['cached_sources']} sources cached"
    )
    if server.degraded:
        print(f"degraded to in-process serving ({server.degraded})")
    return rc


def _mixed_schedule(g: Graph, steps: int, rate: int, seed) -> list[list[tuple]]:
    """Random update/delete/re-insert batches, valid by construction.

    Mirrors the liveness every op induces while generating, so a delete
    always targets a live edge and a re-insert a dead one — the schedule
    replays cleanly against any consumer.
    """
    rng = as_rng(seed)
    live = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)
    }
    dead: dict[tuple[int, int], float] = {}
    batches: list[list[tuple]] = []
    for _ in range(steps):
        batch: list[tuple] = []
        for _ in range(rate):
            r = rng.random()
            if r < 0.15 and len(live) > 1:
                pairs = list(live)
                u, v = pairs[int(rng.integers(0, len(pairs)))]
                dead[(u, v)] = live.pop((u, v))
                batch.append(("delete", u, v, None))
            elif r < 0.3 and dead:
                pairs = list(dead)
                u, v = pairs[int(rng.integers(0, len(pairs)))]
                w = dead.pop((u, v))
                live[(u, v)] = w
                batch.append(("update", u, v, w))
            else:
                pairs = list(live)
                u, v = pairs[int(rng.integers(0, len(pairs)))]
                w = live[(u, v)] * float(rng.uniform(0.5, 2.0))
                live[(u, v)] = w
                batch.append(("update", u, v, w))
        batches.append(batch)
    return batches


def _dynamic_schedule(g: Graph, args) -> list[list[tuple]]:
    """Materialize the requested time-varying workload as op batches."""
    if args.schedule == "rush":
        frac = min(1.0, max(args.rate, 1) / max(g.num_edges, 1))
        return periodic_weight_schedule(g, args.steps, frac=frac, seed=args.seed)
    if args.schedule == "failures":
        burst_size = max(1, min(args.rate, g.num_edges // max(args.steps, 1)))
        return failure_burst_schedule(
            g, bursts=max(1, args.steps // 3), burst_size=burst_size,
            quiet=1, seed=args.seed,
        )
    return _mixed_schedule(g, args.steps, max(args.rate, 1), args.seed)


def cmd_dynamic(args, pram: PRAM | None = None) -> int:
    g = _read_graph(args.graph)
    pram = _query_pram(args, pram)
    dyn = DynamicSSSP(g, args.source, fallback_frac=args.fallback_frac, pram=pram)
    batches = _dynamic_schedule(g, args)
    print(
        f"dynamic sssp from {args.source}: n={g.n}, m={g.num_edges}, "
        f"schedule={args.schedule}, fallback_frac={dyn.fallback_frac}"
    )
    print(f"{'step':>4} {'ops':>4} {'repair':>6} {'rebuild':>7} "
          f"{'noop':>5} {'dirty':>6} {'work':>12} {'reached':>7}")
    for step, batch in enumerate(batches):
        modes = {"repair": 0, "rebuild": 0, "noop": 0}
        work = dirty = 0
        for op in batch:
            st = dyn.apply(tuple(op))
            modes[st.mode] += 1
            work += st.work
            dirty += st.dirty
        if args.verify:
            dyn.verify()
        reached = int(np.isfinite(dyn.dist).sum())
        print(
            f"{step:>4} {len(batch):>4} {modes['repair']:>6} "
            f"{modes['rebuild']:>7} {modes['noop']:>5} {dirty:>6} "
            f"{work:>12,} {reached:>7}"
        )
    print(
        f"totals: {dyn.updates} updates -> {dyn.repairs} repairs / "
        f"{dyn.rebuilds} rebuilds; charged work repair={dyn.repair_work:,} "
        f"rebuild={dyn.rebuild_work:,}"
        + (" (verified bit-exact each step)" if args.verify else "")
    )
    return 0


_TRACEABLE = {"build": cmd_build, "sssp": cmd_sssp, "spt": cmd_spt}


def _trace_envelopes(args, g: Graph):
    """Pick the theorem envelopes matching the traced subcommand."""
    # Λ bound as used by multi_scale.scale_range: normalized weighted diameter.
    aspect = (g.total_weight() / g.min_weight()) if g.num_edges else 2.0
    if args.traced == "build":
        return theorem_3_7_envelopes(g.n, g.num_edges, _params(args), aspect_ratio=aspect)
    hopset = load_hopset(args.hopset)
    budget = args.hops or (
        spt_hop_budget(hopset.beta) if hopset.meta.get("reduction") else None
    )
    beta = budget if budget is not None else 2 * hopset.beta + 1
    return query_envelopes(g.n, g.num_edges, hopset.num_records, beta)


def cmd_trace(args) -> int:
    runner = _TRACEABLE[args.traced]
    pram = _query_pram(args, None)
    tracer = SpanTracer.attach(pram.cost, root_name=args.traced)
    registry = MetricsRegistry.attach(pram.cost)
    try:
        rc = runner(args, pram)
    finally:
        root = tracer.finish()
        registry.detach(pram.cost)
    if rc != 0:
        return rc
    g = _read_graph(args.graph)
    verdicts = evaluate_envelopes(root, _trace_envelopes(args, g))
    extra = {
        "command": args.traced,
        "graph": {"n": g.n, "m": g.num_edges},
        "watchdogs": [v.to_dict() for v in verdicts],
    }
    write_chrome_trace(
        args.trace_out, tracer, metrics=registry, extra=extra,
        worker_rounds=getattr(pram.backend, "round_log", None),
    )
    if args.jsonl:
        write_jsonl(args.jsonl, tracer)
    print(flame_report(tracer, title=f"trace: {args.traced}"))
    print(op_wall_report(tracer, title=f"where real time goes: {args.traced}"))
    health = backend_health_report(registry)
    if health:
        print(health)
    print(watchdog_table(verdicts))
    print(
        f"span coverage: {100 * tracer.coverage():.1f}% of charged work; "
        f"wrote {args.trace_out}"
        + (f" and {args.jsonl}" if args.jsonl else "")
    )
    # WARN verdicts are advisory (tracked constants), not failures.
    return 0


def cmd_profile(args) -> int:
    runner = _TRACEABLE[args.profiled]
    pram = _query_pram(args, None)
    tracer = SpanTracer.attach(pram.cost, root_name=args.profiled)
    try:
        rc = runner(args, pram)
    finally:
        tracer.finish()
    if rc != 0:
        return rc
    print(profile_report(tracer, top=args.top))
    flame = args.flame_out or f"profile_{args.profiled}.folded"
    write_folded_flame(flame, tracer)
    print(f"wrote folded flame: {flame}")
    return 0


def cmd_conformance(args) -> int:
    from repro.conformance import (
        SMOKE_FAMILIES,
        ShadowCREW,
        all_clean,
        conformance_summary,
        graph_table,
        primitive_table,
        run_graph_conformance,
        run_primitive_diffs,
    )

    families = (
        tuple(f.strip() for f in args.families.split(",") if f.strip())
        if args.families
        else tuple(SMOKE_FAMILIES)
    )
    unknown = [f for f in families if f not in SMOKE_FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; options: {sorted(SMOKE_FAMILIES)}",
              file=sys.stderr)
        return 2

    prim_outcomes = run_primitive_diffs(seed=args.seed, strict=args.strict)

    # the graph sweep runs on one traced, metered, shadowed machine so the
    # flame report (and optional trace export) attributes the conformance
    # work and any race findings per family
    pram = PRAM()
    tracer = SpanTracer.attach(pram.cost, root_name="conformance")
    registry = MetricsRegistry.attach(pram.cost)
    shadow = ShadowCREW.attach(pram.cost, strict=args.strict)
    try:
        graph_outcomes = run_graph_conformance(
            n=args.n, seed=args.seed, strict=args.strict,
            families=families, pram=pram, shadow=shadow,
        )
    finally:
        shadow.detach(pram.cost)
        tracer.finish()
        registry.detach(pram.cost)

    print(primitive_table(prim_outcomes))
    print()
    print(graph_table(graph_outcomes))
    print()
    mode = "strict" if args.strict else "common"
    print(flame_report(tracer, title=f"conformance sweep ({mode} rule)"))
    summary = conformance_summary(prim_outcomes, graph_outcomes, shadow)
    if args.trace_out:
        write_chrome_trace(
            args.trace_out, tracer, metrics=registry,
            extra={"conformance": summary},
        )
        print(f"wrote {args.trace_out}")
    ok = all_clean(prim_outcomes, graph_outcomes)
    print(
        f"conformance ({mode}): "
        f"{summary['primitives']['passed']}/{summary['primitives']['cases']} "
        f"primitive cases, {sum(1 for r in graph_outcomes if r.ok)}/"
        f"{len(graph_outcomes)} graph families, "
        f"{len(shadow.findings)} race findings -> "
        + ("PASS" if ok else "FAIL")
    )
    return 0 if ok else 1


def _human_age(seconds: float) -> str:
    """Compact age rendering for the store listing (42s / 3.2h / 5.1d)."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def cmd_store(args) -> int:
    store = HopsetStore(args.dir)
    if args.store_action == "ls":
        entries = store.entries()
        total = sum(e.size for e in entries)
        print(f"store {args.dir}: {len(entries)} artifacts, {total:,} bytes")
        for e in entries:
            print(f"  {e.key[:16]}  {e.size:>12,} B  {_human_age(e.age_s):>7}  "
                  f"{e.path.name}")
        return 0
    if args.keep_newest is None and args.max_bytes is None:
        print("store gc needs --keep-newest N and/or --max-bytes B",
              file=sys.stderr)
        return 2
    removed = store.gc(keep_newest=args.keep_newest, max_bytes=args.max_bytes)
    freed = sum(e.size for e in removed)
    kept = store.entries()
    held = sum(e.size for e in kept)
    print(
        f"store gc {args.dir}: removed {len(removed)} artifacts "
        f"({freed:,} bytes), kept {len(kept)} ({held:,} bytes)"
    )
    return 0


def cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        print(f"unknown family {args.family!r}; options: {sorted(_FAMILIES)}",
              file=sys.stderr)
        return 2
    g = _FAMILIES[args.family](args)
    save_graph(args.out, g)
    print(f"generated {args.family}: n={g.n}, m={g.num_edges} -> {args.out}")
    return 0


def _add_build_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("out")
    _add_param_flags(p)
    p.add_argument("--paths", action="store_true", help="record memory paths (§4)")
    p.add_argument("--reduce", action="store_true", help="Klein–Sairam reduction (App. C/D)")
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed hopset store: built artifacts are filed "
             "under graph+params keys (docs/hopset_store.md)",
    )
    p.add_argument(
        "--warm", action="store_true",
        help="consult --store before building: a key hit loads the cached "
             "hopset instead of rebuilding (miss falls back to a build)",
    )


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("hopset")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="relaxation schedule: dense, sparse-frontier, or auto-switch "
             "(docs/frontier.md; sssp only)",
    )
    _add_backend_flag(p)


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", default=None, metavar="SPEC",
        help="execution backend: serial or sharded[:W] (docs/backends.md; "
             "default follows REPRO_BACKEND)",
    )


def _add_mssp_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mssp-block", type=int, default=DEFAULT_MSSP_BLOCK, metavar="S",
        help="S×V matrix-engine row-block width (S >= 1) for grouped "
             f"explorations (docs/mssp.md; default {DEFAULT_MSSP_BLOCK})",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro", description="Deterministic PRAM hopsets & approximate SSSP"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a hopset for a graph")
    _add_build_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sssp", help="(1+eps)-approximate single-source distances")
    _add_query_flags(p)
    p.set_defaults(func=cmd_sssp)

    p = sub.add_parser("spt", help="(1+eps)-approximate shortest-path tree")
    _add_query_flags(p)
    p.set_defaults(func=cmd_spt)

    p = sub.add_parser(
        "oracle", help="answer pair/batch distance queries from a saved hopset"
    )
    p.add_argument("graph")
    p.add_argument("hopset")
    p.add_argument(
        "--query", nargs=2, type=int, action="append", metavar=("U", "V"),
        help="approximate U-V distance (repeatable)",
    )
    p.add_argument(
        "--batch", default=None, metavar="S1,S2,...",
        help="comma-separated sources; full distance rows (aMSSD)",
    )
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--cache-size", type=int, default=32,
                   help="LRU source-vector cache size")
    p.add_argument("--out", default=None,
                   help="write the --batch matrix to this .npz")
    _add_backend_flag(p)
    _add_mssp_flag(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "serve",
        help="line-protocol query server over a saved hopset (docs/serving.md)",
    )
    p.add_argument("graph")
    p.add_argument("hopset", nargs="?", default=None,
                   help="saved hopset artifact (optional with --warm --store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0: pick a free ephemeral port)")
    p.add_argument(
        "--probe", action="append", default=None, metavar="LINE",
        help="serve this request line in-process and exit (repeatable; "
             "no socket — exit 1 if any reply is an error)",
    )
    p.add_argument("--max-requests", type=int, default=None,
                   help="shut the server down after serving this many requests")
    p.add_argument("--log", default=None, metavar="PATH",
                   help="append served dist/path request lines (replay input)")
    p.add_argument("--pair-cache", type=int, default=4096,
                   help="exact-hit pair cache entries (0 disables the tier)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="most requests one micro-batch evaluation takes")
    p.add_argument("--cache-size", type=int, default=128,
                   help="LRU source-vector cache size")
    p.add_argument("--hops", type=int, default=None)
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed hopset store to boot from with --warm "
             "(docs/hopset_store.md)",
    )
    p.add_argument(
        "--warm", action="store_true",
        help="boot from --store: a key hit loads the cached hopset; a miss "
             "falls back to the positional artifact or a fresh build",
    )
    p.add_argument(
        "--dynamic", action="store_true",
        help="accept update U V W / delete U V mutation verbs "
             "(docs/dynamic.md); needs a path-reporting hopset, or no "
             "artifact at all (one is built fresh)",
    )
    p.add_argument(
        "--refresh-below", type=float, default=0.5, metavar="F",
        help="refresh a hopset scale when its live fraction drops below F",
    )
    p.add_argument(
        "--rebuild-below", type=float, default=0.2, metavar="F",
        help="rebuild the whole hopset when overall liveness drops below F",
    )
    _add_param_flags(p)
    _add_backend_flag(p)
    _add_mssp_flag(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "dynamic",
        help="maintain exact SSSP under a time-varying update schedule "
             "(docs/dynamic.md)",
    )
    p.add_argument("graph")
    p.add_argument("--source", type=int, default=0)
    p.add_argument(
        "--schedule", choices=("rush", "failures", "mixed"), default="mixed",
        help="workload: periodic congestion, failure bursts, or random mix",
    )
    p.add_argument("--steps", type=int, default=12,
                   help="schedule steps (batches of updates)")
    p.add_argument(
        "--rate", type=int, default=4,
        help="updates per step (mixed), congested-edge count (rush), "
             "or burst size (failures)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fallback-frac", type=float, default=None, metavar="F",
        help="repair->rebuild threshold as a fraction of all CSR arcs "
             f"(default {DEFAULT_FALLBACK_FRAC})",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="assert bit-exactness against a full recompute after every step",
    )
    _add_backend_flag(p)
    p.set_defaults(func=cmd_dynamic)

    p = sub.add_parser(
        "trace", help="run build/sssp/spt under the tracer + theorem watchdogs"
    )
    tsub = p.add_subparsers(dest="traced", required=True)
    for name, adder in (
        ("build", _add_build_flags),
        ("sssp", _add_query_flags),
        ("spt", _add_query_flags),
    ):
        tp = tsub.add_parser(name, help=f"traced {name}")
        adder(tp)
        tp.add_argument(
            "--trace-out", required=True, help="Chrome trace-event JSON output path"
        )
        tp.add_argument("--jsonl", default=None, help="also write one span per line")
        tp.set_defaults(func=cmd_trace, traced=name)

    p = sub.add_parser(
        "profile",
        help="per-scale, per-primitive wall attribution + folded flame export",
    )
    psub = p.add_subparsers(dest="profiled", required=True)
    for name, adder in (("build", _add_build_flags), ("sssp", _add_query_flags)):
        pp = psub.add_parser(name, help=f"profiled {name}")
        adder(pp)
        pp.add_argument("--top", type=int, default=12,
                        help="rows in the hot-primitive table")
        pp.add_argument("--flame-out", default=None,
                        help="folded-stack output path "
                             "(default profile_<cmd>.folded)")
        pp.set_defaults(func=cmd_profile, profiled=name)

    p = sub.add_parser(
        "conformance",
        help="diff vectorized primitives vs literal CREW + shadow race scan",
    )
    p.add_argument("--strict", action="store_true",
                   help="reject equal-valued double writes too (strict CREW)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=32,
                   help="smoke graph size for the E-family sweep")
    p.add_argument("--families", default=None,
                   help="comma-separated subset of the smoke families")
    p.add_argument("--trace-out", default=None,
                   help="also write a Chrome trace with the conformance summary")
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser("certify", help="verify eq. (1) exhaustively")
    p.add_argument("graph")
    p.add_argument("hopset")
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("info", help="describe a saved artifact")
    p.add_argument("artifact")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "store", help="inspect / garbage-collect a content-addressed hopset store"
    )
    ssub = p.add_subparsers(dest="store_action", required=True)
    sp = ssub.add_parser("ls", help="list filed artifacts (size, age, key)")
    sp.add_argument("dir", help="store directory (the build --store DIR)")
    sp.set_defaults(func=cmd_store)
    sp = ssub.add_parser("gc", help="evict old artifacts to bound the store")
    sp.add_argument("dir", help="store directory (the build --store DIR)")
    sp.add_argument("--keep-newest", type=int, default=None, metavar="N",
                    help="keep only the N most recently filed artifacts")
    sp.add_argument("--max-bytes", type=int, default=None, metavar="B",
                    help="evict oldest-first until at most B bytes remain")
    sp.set_defaults(func=cmd_store)

    p = sub.add_parser("gen", help="generate a workload graph")
    p.add_argument("out")
    p.add_argument("--family", default="er")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wmin", type=float, default=1.0)
    p.add_argument("--wmax", type=float, default=4.0)
    p.add_argument("--radius", type=float, default=0.2)
    p.add_argument("--aspect", type=float, default=1e4)
    p.set_defaults(func=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
