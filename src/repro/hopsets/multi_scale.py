"""The multi-scale hopset driver: H = ⋃_{k ∈ [k0, λ]} H_k (Theorem 3.7).

Scales k = k0 .. λ are built bottom-up; the scale-k construction explores
``G_{k−1} = G ∪ H_{k−1}`` (only the *previous* scale's hopset is used,
Section 3.2).  Scales below k0 = ⌊log β⌋ are empty: a shortest path of
weight ≤ 2^{k0+1} ≤ 2β already has ≤ 2β edges when the minimum weight is 1.

Edge weights are normalized so the minimum weight is 1 (the paper's
Section 1.5 convention) and rescaled back on output.  The per-scale stretch
compounds as ε_k = (1+ε_{k−1})(1+ε') − 1 (Lemma 3.6); with
``params.scale_epsilon`` the per-scale ε' is ε / (2 · #scales) so the final
guarantee stays ≈ 1+ε (Section 3.4's rescaling).

``scale_range`` bounds λ by total weight ÷ min weight, which on most
inputs sits scales above the graph's largest distance; the top scales then
rebuild one output over and over.  With tight weights, a scale that cut no
exploration candidate at its distance threshold and emitted exactly its
predecessor's records is *saturated*: every later scale runs on the same
graph with larger thresholds and repeats it (docs/algorithms.md,
"Saturated scales").  Those scales are emitted as copies and the saturated
scale's recorded charge stream is replayed under their names, so records,
reports and charges are what building them would give.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.graphs.build import reweighted, union_with_edges
from repro.graphs.csr import Graph
from repro.hopsets.cluster_graph import ExplorePlan
from repro.hopsets.hopset import Hopset, HopsetEdge
from repro.hopsets.params import HopsetParams, PhaseSchedule
from repro.hopsets.single_scale import PhaseStats, build_single_scale
from repro.pram.machine import PRAM

import numpy as np

__all__ = ["BuildReport", "build_hopset", "scale_range"]

#: A saturated scale: its index, charge tape, records and phase stats.
_Saturated = tuple[int, list, list[HopsetEdge], list[PhaseStats]]


@dataclass
class BuildReport:
    """Construction record: per-scale stats plus total work/depth.

    ``replayed_scales`` lists the scales emitted as copies of a saturated
    scale rather than rebuilt; their stats, records and charges are the
    ones building them would give.
    """

    scales: list[int] = field(default_factory=list)
    per_scale_stats: dict[int, list[PhaseStats]] = field(default_factory=dict)
    per_scale_edges: dict[int, int] = field(default_factory=dict)
    work: int = 0
    depth: int = 0
    replayed_scales: list[int] = field(default_factory=list)


def scale_range(graph: Graph, beta: int) -> tuple[int, int]:
    """(k0, λ): the scale indices [⌊log β⌋, ⌈log Λ⌉ − 1] after normalization.

    Λ is bounded by the normalized weighted diameter (total weight / min
    weight): no vertex pair is farther than that, so higher scales are empty.
    """
    if graph.num_edges == 0:
        return 0, -1
    k0 = max(int(math.floor(math.log2(max(beta, 1)))), 0)
    diameter_bound = graph.total_weight() / graph.min_weight()
    lam = max(int(math.ceil(math.log2(max(diameter_bound, 2.0)))) - 1, k0)
    return k0, lam


def build_hopset(
    graph: Graph,
    params: HopsetParams | None = None,
    pram: PRAM | None = None,
    record_paths: bool = False,
) -> tuple[Hopset, BuildReport]:
    """Deterministically build a (1+ε, β)-hopset for ``graph``.

    Returns the hopset and a :class:`BuildReport`.  The construction is
    fully deterministic: identical inputs yield identical hopsets (the
    derandomization claim of the paper, tested in E5).
    """
    params = params if params is not None else HopsetParams()
    pram = pram if pram is not None else PRAM()
    n = graph.n
    hopset = Hopset(n=n, beta=params.beta_for(n), epsilon=params.epsilon)
    report = BuildReport()
    if graph.num_edges == 0 or n < 2:
        return hopset, report

    w_min = graph.min_weight()
    scaled = reweighted(graph, 1.0 / w_min) if w_min != 1.0 else graph
    beta = params.beta_for(n)
    k0, lam = scale_range(scaled, beta)
    num_scales = max(lam - k0 + 1, 1)
    eps_scale = params.epsilon / (2 * num_scales) if params.scale_epsilon else params.epsilon

    # Saturation needs tight weights (faithful weights depend on k), and a
    # race detector needs every round's write footprints, which a replay
    # does not re-emit: under one, every scale runs.
    replayable = params.tight_weights and not pram.cost.wants_footprints
    start = pram.snapshot()
    eps_prev = 0.0
    prev_scale_edges: list[HopsetEdge] = []
    saturated: _Saturated | None = None
    for k in range(k0, lam + 1):
        schedule = PhaseSchedule.for_scale(n, k, params, eps=eps_scale, eps_prev=eps_prev)
        if saturated is not None:
            edges_k, stats_k = _replay_scale(pram, saturated, schedule)
            report.replayed_scales.append(k)
        else:
            if prev_scale_edges:
                u = np.array([e.u for e in prev_scale_edges], dtype=np.int64)
                v = np.array([e.v for e in prev_scale_edges], dtype=np.int64)
                w = np.array([e.weight for e in prev_scale_edges], dtype=np.float64)
                g_prev = union_with_edges(scaled, u, v, w)
            else:
                g_prev = scaled
            plan = ExplorePlan(g_prev)
            with pram.cost.recording() if replayable else nullcontext() as tape:
                with pram.phase(f"scale{k}"):
                    edges_k, stats_k = build_single_scale(
                        pram,
                        g_prev,
                        schedule,
                        tight_weights=params.tight_weights,
                        record_paths=record_paths,
                        plan=plan,
                    )
            if replayable and _saturated(plan, edges_k, prev_scale_edges):
                saturated = (k, tape, edges_k, stats_k)
        hopset.add(edges_k)
        report.scales.append(k)
        report.per_scale_stats[k] = stats_k
        report.per_scale_edges[k] = len(edges_k)
        prev_scale_edges = edges_k
        eps_prev = (1 + eps_prev) * (1 + eps_scale) - 1

    if w_min != 1.0:
        hopset.edges = [
            HopsetEdge(
                u=e.u, v=e.v, weight=e.weight * w_min,
                scale=e.scale, phase=e.phase, kind=e.kind, path=e.path,
            )
            for e in hopset.edges
        ]
    delta = pram.snapshot() - start
    report.work = delta.work
    report.depth = delta.depth
    hopset.meta.update(
        {
            "k0": k0,
            "lambda": lam,
            "eps_per_scale": eps_scale,
            "eps_compounded": eps_prev,
            "work": report.work,
            "depth": report.depth,
        }
    )
    return hopset, report


def _saturated(plan: ExplorePlan, edges: list[HopsetEdge], prev: list[HopsetEdge]) -> bool:
    """Whether a scale makes every later scale a copy of itself.

    It must have cut no candidate and emitted exactly its predecessor's
    records, in order: endpoints, weight, phase, kind and memory path.
    Weights compare with ``==``, which is bit equality here: a
    :class:`HopsetEdge` weight is positive, so never NaN or −0.
    """
    return (
        plan.cut == 0
        and len(edges) == len(prev)
        and all(
            (a.u, a.v, a.weight, a.phase, a.kind, a.path)
            == (b.u, b.v, b.weight, b.phase, b.kind, b.path)
            for a, b in zip(edges, prev)
        )
    )


def _replay_scale(
    pram: PRAM, saturated: _Saturated, schedule: PhaseSchedule
) -> tuple[list[HopsetEdge], list[PhaseStats]]:
    """Scale ``schedule.k`` as a copy of the saturated scale.

    The saturated scale's tape is replayed under ``scale{k}``; its records
    get the scale field ``k`` and its stats this scale's thresholds.
    """
    k_sat, tape, edges, stats = saturated
    k = schedule.k
    pram.cost.replay(tape, rename=(f"scale{k_sat}", f"scale{k}"))
    copies = [
        HopsetEdge(
            u=e.u, v=e.v, weight=e.weight,
            scale=k, phase=e.phase, kind=e.kind, path=e.path,
        )
        for e in edges
    ]
    return copies, [replace(s, distance_threshold=schedule.threshold(s.phase)) for s in stats]
