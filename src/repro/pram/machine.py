"""The CREW PRAM machine façade.

A :class:`PRAM` bundles a cost model with the vectorized primitives, so that
algorithm code reads like PRAM pseudocode::

    pram = PRAM()
    dist = pram.broadcast(np.inf, n)
    dist[s] = 0.0
    for _ in range(beta):
        pram.scatter_min(dist, heads, dist[tails] + w)

All resource metering flows into ``pram.cost``; ``pram.cost.time_on(p)``
yields the Brent-scheduled running time on ``p`` processors, the quantity
the paper's processor bounds (e.g. Theorem 3.7's O((|E| + n^{1+1/κ})·n^ρ))
speak about.
"""

from __future__ import annotations

import numpy as np

from repro.pram import pointer_jumping, primitives, scan, sort
from repro.pram.backends.base import ExecutionBackend, resolve_backend
from repro.pram.cost import CostModel, CostSnapshot
from repro.pram.workspace import Workspace

__all__ = ["PRAM"]


class PRAM:
    """A simulated CREW PRAM: vectorized execution + work/depth metering.

    ``workspace`` is the machine's scratch-buffer pool (see
    :mod:`repro.pram.workspace`): the fused fast-path kernels draw their
    per-round temporaries from it, so repeated rounds reallocate nothing.
    Pass a shared :class:`~repro.pram.workspace.Workspace` to let several
    machines (e.g. the per-source explorations of aMSSD) reuse one pool.

    ``backend`` selects where the numeric kernels execute (see
    :mod:`repro.pram.backends` and ``docs/backends.md``): an
    :class:`~repro.pram.backends.ExecutionBackend` instance, a spec
    string (``"serial"`` / ``"sharded"`` / ``"sharded:4"``), or ``None``
    to follow the ``REPRO_BACKEND`` environment default.  Backends are
    observationally invisible — bit-equal outputs, bit-identical charged
    costs — only wall-clock changes.
    """

    def __init__(
        self,
        cost: CostModel | None = None,
        workspace: Workspace | None = None,
        backend: ExecutionBackend | str | None = None,
    ) -> None:
        self.cost = cost if cost is not None else CostModel()
        self.workspace = workspace if workspace is not None else Workspace()
        self.backend = resolve_backend(backend)

    # -- bookkeeping --------------------------------------------------------

    def charge(self, work: int, depth: int = 1, label: str = "") -> None:
        """Charge raw work/depth (for costs not covered by a primitive)."""
        self.cost.charge(work=work, depth=depth, label=label)

    def snapshot(self) -> CostSnapshot:
        return self.cost.snapshot()

    def phase(self, name: str):
        return self.cost.phase(name)

    def subphase(self, name: str):
        """Phase nested path-style under the innermost open phase."""
        return self.cost.subphase(name)

    # -- primitives ---------------------------------------------------------

    def map(self, fn, *arrays: np.ndarray, label: str = "map") -> np.ndarray:
        return primitives.elementwise(self.cost, fn, *arrays, label=label)

    def reduce(self, op: str, arr: np.ndarray, label: str = "reduce"):
        return primitives.preduce(self.cost, op, arr, label=label)

    def broadcast(self, value, n: int, dtype=None, label: str = "broadcast") -> np.ndarray:
        return primitives.pbroadcast(self.cost, value, n, dtype=dtype, label=label)

    def scatter(self, target, idx, values, label: str = "scatter") -> np.ndarray:
        """Exclusive-write scatter (CREW-legal only for conflict-free idx)."""
        return primitives.pscatter(self.cost, target, idx, values, label=label)

    def scatter_min(self, target, idx, values, label: str = "scatter_min") -> np.ndarray:
        return primitives.scatter_min(self.cost, target, idx, values, label=label)

    def scatter_min_arg(
        self, target, payload, idx, values, value_payload, label: str = "scatter_min_arg"
    ):
        return primitives.scatter_min_arg(
            self.cost, target, payload, idx, values, value_payload, label=label
        )

    def gather_csr(
        self, indptr: np.ndarray, frontier: np.ndarray, label: str = "gather_csr"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather the CSR out-arc ranges of the frontier vertices.

        Returns ``(slots, arcs)``: per gathered arc, its frontier slot and
        its index into the CSR ``indices``/``weights`` arrays.
        """
        return primitives.pgather_csr(self.cost, indptr, frontier, label=label)

    def gather_add(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        frontier: np.ndarray,
        base: np.ndarray,
        label: str = "gather_csr",
        add_label: str = "relax",
        deg_all: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused CSR gather + candidate add (see ``primitives.pgather_add``)."""
        return primitives.pgather_add(
            self.cost, indptr, indices, weights, frontier, base,
            workspace=self.workspace, label=label, add_label=add_label,
            deg_all=deg_all,
        )

    def prune_entries(
        self,
        vert: np.ndarray,
        src: np.ndarray,
        dist: np.ndarray,
        ties: tuple[np.ndarray, ...],
        x: int,
        label: str = "algo3_sort",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Algorithm 3 entry prune (see ``primitives.pprune_entries``)."""
        return primitives.pprune_entries(
            self.cost, vert, src, dist, ties, x,
            workspace=self.workspace, backend=self.backend, label=label,
        )

    def aggregate_entries(
        self,
        cl: np.ndarray,
        src: np.ndarray,
        dist: np.ndarray,
        ties: tuple[np.ndarray, ...],
        x: int,
        label: str = "aggregate",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Per-cluster aggregation (see ``primitives.paggregate_entries``)."""
        return primitives.paggregate_entries(
            self.cost, cl, src, dist, ties, x,
            workspace=self.workspace, backend=self.backend, label=label,
        )

    def relax_arcs(
        self,
        dist: np.ndarray,
        parent: np.ndarray,
        tails: np.ndarray,
        heads: np.ndarray,
        weights: np.ndarray,
        plan: primitives.RelaxPlan | None = None,
        changed: str = "frontier",
        label: str = "relax",
        changed_label: str = "converged",
        frontier_label: str = "frontier",
    ):
        """One fused relaxation round (see ``primitives.prelax_arcs``)."""
        return primitives.prelax_arcs(
            self.cost, dist, parent, tails, heads, weights,
            plan=plan, workspace=self.workspace, backend=self.backend,
            changed=changed, label=label,
            changed_label=changed_label, frontier_label=frontier_label,
        )

    def select(self, mask: np.ndarray, label: str = "select") -> np.ndarray:
        return primitives.pselect(self.cost, mask, label=label)

    def compact(self, arr: np.ndarray, mask: np.ndarray, label: str = "compact") -> np.ndarray:
        return primitives.pcompact(self.cost, arr, mask, label=label)

    def prefix_sum(self, arr: np.ndarray, inclusive: bool = True) -> np.ndarray:
        return scan.prefix_sum(self.cost, arr, inclusive=inclusive)

    def prefix_max(self, arr: np.ndarray) -> np.ndarray:
        return scan.prefix_max(self.cost, arr)

    def segmented_sum(self, values, segment_ids, num_segments: int) -> np.ndarray:
        return scan.segmented_sum(self.cost, values, segment_ids, num_segments)

    def sort(self, keys: np.ndarray, network: str = "aks", label: str = "sort") -> np.ndarray:
        return sort.parallel_sort(self.cost, keys, network=network, label=label)

    def lexsort(self, keys, network: str = "aks", label: str = "lexsort") -> np.ndarray:
        return sort.parallel_lexsort(self.cost, keys, network=network, label=label)

    def pointer_jump(self, parent, weight=None):
        return pointer_jumping.pointer_jump(self.cost, parent, weight)

    def list_rank(self, nxt):
        return pointer_jumping.list_rank(self.cost, nxt)
