"""Applications: (1+ε)-approximate SSSP / multi-source / SPT extraction."""

from repro.sssp.bellman_ford import BellmanFordResult, bellman_ford
from repro.sssp.oracle import HopsetDistanceOracle
from repro.sssp.multi_source import MultiSourceResult, approximate_mssd
from repro.sssp.spt import SPTResult, approximate_spt
from repro.sssp.sssp import SSSPResult, approximate_sssp, approximate_sssp_with_hopset

__all__ = [
    "bellman_ford",
    "HopsetDistanceOracle",
    "BellmanFordResult",
    "approximate_sssp",
    "approximate_sssp_with_hopset",
    "SSSPResult",
    "approximate_mssd",
    "MultiSourceResult",
    "approximate_spt",
    "SPTResult",
]
