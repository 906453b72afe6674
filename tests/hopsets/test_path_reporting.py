"""Section 4: the memory property of path-reporting hopsets."""

import numpy as np
import pytest

from repro.conformance.diff import SMOKE_FAMILIES
from repro.graphs.generators import erdos_renyi, layered_hop_graph, path_graph
from repro.hopsets.errors import PathReportingError
from repro.hopsets.multi_scale import build_hopset
from repro.hopsets.params import HopsetParams, PhaseSchedule
from repro.hopsets.path_reporting import build_path_reporting_hopset, memory_path_stats
from repro.hopsets.verification import verify_memory_paths
from repro.hopsets.errors import CertificationError
from repro.pram.machine import PRAM


def test_every_edge_carries_a_path():
    g = erdos_renyi(30, 0.12, seed=31, w_range=(1.0, 3.0))
    H, _ = build_path_reporting_hopset(g, HopsetParams(beta=6))
    assert H.num_records > 0
    assert all(e.path is not None for e in H.edges)


def test_memory_property_verified():
    """Paths live in E ∪ H_{<k} and weigh at most the edge (§4.1)."""
    for gen, seed in ((erdos_renyi, 32), (layered_hop_graph, 33)):
        g = (
            erdos_renyi(25, 0.15, seed=seed, w_range=(1.0, 2.0))
            if gen is erdos_renyi
            else layered_hop_graph(8, 3, seed=seed)
        )
        H, _ = build_path_reporting_hopset(g, HopsetParams(beta=6))
        verify_memory_paths(g, H)  # raises on violation


def test_memory_property_in_faithful_weight_mode():
    g = path_graph(20, w_range=(1.0, 2.0), seed=34)
    H, _ = build_path_reporting_hopset(
        g, HopsetParams(beta=6, tight_weights=False)
    )
    verify_memory_paths(g, H)


def test_verify_rejects_missing_path():
    g = path_graph(10, weight=1.0)
    H, _ = build_hopset(g, HopsetParams(beta=4))  # no paths recorded
    if H.num_records:
        with pytest.raises(CertificationError):
            verify_memory_paths(g, H)


def test_path_stats_within_sigma():
    g = erdos_renyi(30, 0.12, seed=35)
    params = HopsetParams(beta=6)
    H, _ = build_path_reporting_hopset(g, params)
    sched = PhaseSchedule.for_scale(g.n, max(H.scales()), params, 0.25, 0.0)
    stats = memory_path_stats(H, sched.sigma)
    assert stats.num_edges == H.num_records
    assert stats.max_hops >= 1
    assert stats.within_bound  # eq. (20) is a generous bound


def test_path_stats_requires_paths():
    g = path_graph(10)
    H, _ = build_hopset(g, HopsetParams(beta=4))
    if H.num_records:
        with pytest.raises(PathReportingError):
            memory_path_stats(H, 100.0)


def test_tight_weight_equals_path_weight():
    """In tight mode the edge weight IS the realized memory-path weight."""
    from repro.graphs.distances import path_weight

    g = erdos_renyi(25, 0.15, seed=36, w_range=(1.0, 2.0))
    H, _ = build_path_reporting_hopset(g, HopsetParams(beta=6, tight_weights=True))
    for e in H.edges:
        lower = H.union_graph_up_to_scale(g, e.scale - 1)
        w = path_weight(lower, list(e.path))
        assert w == pytest.approx(e.weight, rel=1e-9)


_POINTS = {
    "k2": HopsetParams(epsilon=0.25, kappa=2, rho=0.4, beta=8),
    "k3": HopsetParams(epsilon=0.25, kappa=3, rho=0.45, beta=8),
}


@pytest.mark.parametrize("point", sorted(_POINTS))
@pytest.mark.parametrize("family", sorted(SMOKE_FAMILIES))
def test_path_recording_does_not_change_weights(family, point):
    """Recording is observational: the same hopset, edge for edge and in
    order, and the same charged work, depth and phase totals."""
    g = SMOKE_FAMILIES[family](24, 7)
    runs = []
    for record_paths in (False, True):
        pram = PRAM()
        h, _ = build_hopset(g, _POINTS[point], pram=pram, record_paths=record_paths)
        edges = [(e.u, e.v, e.weight, e.scale, e.phase, e.kind) for e in h.edges]
        c = pram.cost
        runs.append((edges, c.work, c.depth, dict(c.phase_totals)))
    assert runs[0] == runs[1]
