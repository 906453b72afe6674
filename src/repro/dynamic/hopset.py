"""Lazy hopset maintenance: cover-aware invalidation, per-scale refresh.

The §4.1 memory property is what makes a hopset maintainable at all:
every record's weight equals the weight of an explicit path in
E ∪ H_{k−1}, so a record stays a *certified upper bound* exactly as long
as every step of that path can still be spanned at no greater cost.
:class:`DynamicHopset` keeps the machinery live over a
:class:`~repro.dynamic.graph.DynamicGraph`:

* **Cover-aware invalidation.**  A scale-k record's memory path lives
  in E ∪ H_{k−1}, so each of its steps is certified by the step pair's
  *support below k*: ``min(live graph weight, cheapest live record of
  scale < k)`` on that pair.  A worsened edge kills a dependent record
  only when the support at the record's scale actually **rose** — if
  the graph edge or a surviving lower-scale record still spans the step
  at the old cost, the memory path remains certified at no greater
  weight.  This is a strict refinement of the unconditional rule that
  kills every transitive dependent, and the scale restriction is
  what keeps it sound: support is well-founded by induction over scales
  (two same-scale records may never certify each other, else a deleted
  bridge could survive as a mutually-supporting ghost cycle).  Kills
  propagate through a worklist — a killed record raises the support its
  own pair offered to higher scales, compromising them in turn.
* **Scale-by-scale refresh.**  Instead of a monolithic rebuild,
  :meth:`maintain` rebuilds only the scales whose *own* live
  fraction fell below ``refresh_below``, ascending, each over
  ``G ∪ (live H_{k−1})`` — surviving lower-scale records are reused, and
  a refreshed lower scale mends the higher scales' substrate before they
  are judged.  Normalization reuses the construction-time ``w_min`` so
  refreshed scales stay aligned with the original scale ladder, and the
  compounded stretch a scale assumes from below is the build-time
  ``ε_k = (1+ε')^{k−k0} − 1``.  Only when the *global* live fraction
  drops under ``rebuild_below`` does a full (counted) rebuild run.

Refreshes and rebuilds surface as ``dynamic.rebuild.scale`` /
``dynamic.rebuild.full`` traffic; kills as ``dynamic.repair.kill``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.graphs.build import reweighted, union_with_edges
from repro.graphs.csr import Graph
from repro.graphs.errors import InvalidGraphError
from repro.hopsets.hopset import Hopset, HopsetEdge
from repro.hopsets.params import HopsetParams, PhaseSchedule
from repro.hopsets.errors import PathReportingError
from repro.hopsets.path_reporting import build_path_reporting_hopset
from repro.hopsets.single_scale import build_single_scale
from repro.pram.machine import PRAM

__all__ = ["DynamicHopset", "MaintenanceReport"]


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class MaintenanceReport:
    """What one :meth:`DynamicHopset.maintain` call did.

    ``action`` is ``"none"`` (everything healthy), ``"refresh"``
    (``scales_refreshed`` rebuilt individually), or ``"rebuild"`` (the
    global live fraction fell under ``rebuild_below`` and the whole
    hopset was reconstructed).  ``live_before``/``live_after`` bracket
    the live fraction and ``work`` is the charged cost of the call.
    """

    action: str = "none"
    scales_refreshed: list[int] = field(default_factory=list)
    live_before: float = 1.0
    live_after: float = 1.0
    records_before: int = 0
    records_after: int = 0
    work: int = 0


class DynamicHopset:
    """A path-reporting hopset maintained lazily under edge updates.

    Parameters
    ----------
    graph:
        The :class:`DynamicGraph` the hopset certifies paths in.  The
        caller mutates it and *then* notifies this object
        (:meth:`on_weight_increase` / :meth:`on_delete`; improvements
        need no notification — records are upper bounds).
    hopset:
        An existing **path-reporting** hopset to adopt (every record must
        carry its memory path); built fresh when omitted.
    params:
        Hopset parameters for refreshes and rebuilds.
    refresh_below:
        Per-scale live-fraction threshold under which :meth:`maintain`
        rebuilds that single scale.
    rebuild_below:
        Global live-fraction threshold under which :meth:`maintain`
        abandons per-scale repair and rebuilds everything.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        hopset: Hopset | None = None,
        params: HopsetParams | None = None,
        *,
        pram: PRAM | None = None,
        refresh_below: float = 0.5,
        rebuild_below: float = 0.2,
    ) -> None:
        if not 0.0 <= rebuild_below <= 1.0 or not 0.0 <= refresh_below <= 1.0:
            raise InvalidGraphError("refresh/rebuild thresholds must lie in [0, 1]")
        if rebuild_below > refresh_below:
            raise InvalidGraphError(
                "rebuild_below must not exceed refresh_below (rebuild is the "
                "last resort under per-scale refresh)"
            )
        self.graph = graph
        self.params = params if params is not None else HopsetParams()
        self.pram = pram if pram is not None else PRAM()
        self.refresh_below = float(refresh_below)
        self.rebuild_below = float(rebuild_below)
        self.scale_refreshes = 0
        self.full_rebuilds = 0
        self.kills = 0
        if hopset is None:
            self._build_full()
        else:
            for e in hopset.edges:
                if e.path is None:
                    raise PathReportingError(
                        "DynamicHopset needs a path-reporting hopset: record "
                        f"({e.u},{e.v}) carries no memory path"
                    )
            self._adopt(hopset)

    # -- construction & indexing --------------------------------------------

    def _build_full(self) -> None:
        hopset, _ = build_path_reporting_hopset(
            self.graph.snapshot(), self.params, self.pram
        )
        self._adopt(hopset)

    def _adopt(self, hopset: Hopset) -> None:
        """Take ownership of ``hopset``'s records and rebuild all indexes."""
        self.records: list[HopsetEdge] = list(hopset.edges)
        self.beta = hopset.beta
        self.epsilon = hopset.epsilon
        meta = hopset.meta
        snap = self.graph.snapshot()
        self._w_min = float(snap.min_weight()) if snap.num_edges else 1.0
        self._k0 = int(meta["k0"]) if "k0" in meta else 0
        self._lam = int(meta["lambda"]) if "lambda" in meta else -1
        if "eps_per_scale" in meta:
            self._eps_scale = float(meta["eps_per_scale"])
        else:
            num_scales = max(self._lam - self._k0 + 1, 1)
            self._eps_scale = (
                self.params.epsilon / (2 * num_scales)
                if self.params.scale_epsilon
                else self.params.epsilon
            )
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the parallel arrays and both pair indexes from records."""
        recs = self.records
        self._alive = np.ones(len(recs), dtype=bool)
        self._rec_u = np.array([e.u for e in recs], dtype=np.int64)
        self._rec_v = np.array([e.v for e in recs], dtype=np.int64)
        self._rec_w = np.array([e.weight for e in recs], dtype=np.float64)
        self._scale_of = np.array([e.scale for e in recs], dtype=np.int64)
        # rebound, never mutated: maintain() iterates the list it was
        # handed while _refresh_scale reindexes
        self._scales: list[int] = np.unique(self._scale_of).tolist()
        self._records_on_pair: dict[tuple[int, int], list[int]] = {}
        self._dependents: dict[tuple[int, int], list[int]] = {}
        for idx, e in enumerate(recs):
            self._records_on_pair.setdefault(_key(e.u, e.v), []).append(idx)
            for a, b in zip(e.path, e.path[1:]):
                self._dependents.setdefault(_key(int(a), int(b)), []).append(idx)

    # -- covers ---------------------------------------------------------------

    def record_cover(self, u: int, v: int) -> float:
        """The cheapest *live* record weight on pair (u, v); inf if none."""
        best = float("inf")
        for idx in self._records_on_pair.get(_key(u, v), ()):
            if self._alive[idx] and self._rec_w[idx] < best:
                best = float(self._rec_w[idx])
        return best

    def cover(self, u: int, v: int) -> float:
        """min(live graph weight, cheapest live record) spanning (u, v)."""
        return min(self.graph.edge_weight(u, v), self.record_cover(u, v))

    def _rec_below(self, pair: tuple[int, int], k: int) -> float:
        """Cheapest live record on ``pair`` of scale strictly below ``k``.

        The record half of a scale-k step's *support* — what certifies
        one step of a scale-k memory path besides the graph edge itself.
        The strict inequality is the soundness linchpin (module
        docstring): support must stay well-founded over scales.
        """
        best = float("inf")
        for idx in self._records_on_pair.get(pair, ()):
            if (
                self._alive[idx]
                and self._scale_of[idx] < k
                and self._rec_w[idx] < best
            ):
                best = float(self._rec_w[idx])
        return best

    # -- liveness -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Vertex count (the dynamic graph's — hopsets never add vertices)."""
        return self.graph.n

    @property
    def live_fraction(self) -> float:
        """Fraction of all hopset records still certified."""
        if self._alive.size == 0:
            return 1.0
        return float(self._alive.sum()) / self._alive.size

    def live_fraction_of_scale(self, k: int) -> float:
        """Fraction of scale-``k`` records still certified (1.0 if none)."""
        mask = self._scale_of == k
        total = int(mask.sum())
        if total == 0:
            return 1.0
        return float(self._alive[mask].sum()) / total

    def live_records(self) -> int:
        """Number of records still certified."""
        return int(self._alive.sum())

    def num_records(self) -> int:
        """Total records, dead included."""
        return len(self.records)

    def scales(self) -> list[int]:
        """The distinct scale indices present, ascending (shared: do not mutate)."""
        return self._scales

    def live_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live records as (u, v, w) arrays — the query-side hopset."""
        mask = self._alive
        return self._rec_u[mask], self._rec_v[mask], self._rec_w[mask]

    def union_graph(self) -> Graph:
        """G ∪ (live H) as an immutable graph for β-hop exploration."""
        return union_with_edges(self.graph.snapshot(), *self.live_edge_arrays())

    # -- invalidation ---------------------------------------------------------

    def on_weight_increase(
        self, u: int, v: int, old_weight: float, new_weight: float
    ) -> list[tuple[int, int]]:
        """Note that live edge (u, v) worsened; returns compromised pairs.

        Call *after* mutating the graph.  Kills exactly the records whose
        memory paths rely on a step whose scale-aware support rose (see
        the module docstring); the returned pairs are every pair whose
        overall cover rose — the serving layer uses them to patch its
        G ∪ H union weights.
        """
        pair = _key(u, v)
        risen: list[tuple[int, int]] = []
        rec_all = self.record_cover(u, v)
        if min(new_weight, rec_all) > min(old_weight, rec_all):
            risen.append(pair)
        pending = []
        for idx in self._dependents.get(pair, ()):
            if not self._alive[idx]:
                continue
            rb = self._rec_below(pair, int(self._scale_of[idx]))
            if min(new_weight, rb) > min(old_weight, rb):
                pending.append(idx)
        risen.extend(self._kill(pending))
        return risen

    def on_delete(self, u: int, v: int, old_weight: float) -> list[tuple[int, int]]:
        """Note that live edge (u, v) was deleted; returns compromised pairs."""
        return self.on_weight_increase(u, v, old_weight, float("inf"))

    def _kill(self, pending: list[int]) -> list[tuple[int, int]]:
        """Kill ``pending`` records and propagate support rises upward.

        Each kill may raise the support its pair offers to higher-scale
        dependents; those whose support rose join the worklist.  Every
        record dies at most once, so the loop terminates; the returned
        pairs are those whose *overall* cover rose (for union patching).
        """
        risen: list[tuple[int, int]] = []
        killed = 0
        while pending:
            idx = pending.pop()
            if not self._alive[idx]:
                continue
            e = self.records[idx]
            q = _key(e.u, e.v)
            graph_w = self.graph.edge_weight(e.u, e.v)
            deps = [
                j
                for j in self._dependents.get(q, ())
                if self._alive[j] and j != idx
            ]
            before = {
                j: min(graph_w, self._rec_below(q, int(self._scale_of[j])))
                for j in deps
            }
            cover_before = min(graph_w, self.record_cover(e.u, e.v))
            self._alive[idx] = False
            self.kills += 1
            killed += 1
            if min(graph_w, self.record_cover(e.u, e.v)) > cover_before:
                risen.append(q)
            for j in deps:
                if min(graph_w, self._rec_below(q, int(self._scale_of[j]))) > before[j]:
                    pending.append(j)
        if killed:
            self.pram.cost.traffic("dynamic.repair.kill", elements=killed)
        return risen

    # -- maintenance ----------------------------------------------------------

    def maintain(self) -> MaintenanceReport:
        """Repair decayed scales (or rebuild everything when too far gone).

        The laziness contract: call this between update bursts — updates
        themselves only flip alive bits.  Ascending order matters: a
        refreshed scale k−1 is the substrate scale k rebuilds over, and
        each scale's health is re-checked *after* lower refreshes may
        have compromised it further.
        """
        report = MaintenanceReport(
            live_before=self.live_fraction,
            records_before=self.num_records(),
        )
        before = self.pram.cost.work
        if self.live_fraction < self.rebuild_below:
            self.full_rebuilds += 1
            self.pram.cost.traffic("dynamic.rebuild.full", elements=1)
            self._build_full()
            report.action = "rebuild"
        else:
            for k in self.scales():
                if self.live_fraction_of_scale(k) < self.refresh_below:
                    self._refresh_scale(k)
                    report.scales_refreshed.append(k)
            if report.scales_refreshed:
                report.action = "refresh"
        report.live_after = self.live_fraction
        report.records_after = self.num_records()
        report.work = self.pram.cost.work - before
        return report

    def _refresh_scale(self, k: int) -> None:
        """Rebuild scale ``k`` alone over G ∪ (live H_{k−1}), in place.

        The single-scale construction mirrors one iteration of
        :func:`~repro.hopsets.multi_scale.build_hopset`'s loop:
        normalization by the *original* ``w_min`` keeps the refreshed
        scale on the same ladder, and ``eps_prev = (1+ε')^{k−k0} − 1``
        is the stretch the build-time recurrence had compounded below
        scale k.  After replacement, any pair whose cover rose (records
        the old scale had, the new one lacks) compromises its dependents
        — which live on higher scales only, hence refreshing ascending.
        """
        self.scale_refreshes += 1
        self.pram.cost.traffic("dynamic.rebuild.scale", elements=1)
        snap = self.graph.snapshot()
        w_min = self._w_min
        scaled = reweighted(snap, 1.0 / w_min) if w_min != 1.0 else snap
        prev = self._alive & (self._scale_of == (k - 1))
        if prev.any():
            g_prev = union_with_edges(
                scaled,
                self._rec_u[prev],
                self._rec_v[prev],
                self._rec_w[prev] / w_min,
            )
        else:
            g_prev = scaled
        eps_prev = (1 + self._eps_scale) ** (k - self._k0) - 1
        schedule = PhaseSchedule.for_scale(
            snap.n, k, self.params, eps=self._eps_scale, eps_prev=eps_prev
        )
        with self.pram.phase(f"refresh_scale{k}"):
            edges_k, _ = build_single_scale(
                self.pram,
                g_prev,
                schedule,
                tight_weights=self.params.tight_weights,
                record_paths=True,
            )
        if w_min != 1.0:
            edges_k = [
                HopsetEdge(
                    u=e.u, v=e.v, weight=e.weight * w_min,
                    scale=e.scale, phase=e.phase, kind=e.kind, path=e.path,
                )
                for e in edges_k
            ]
        # pre-swap supports of every pair the outgoing scale spanned, at
        # every scale a dependent might live on, then swap and re-examine
        old_mask = self._scale_of == k
        touched = {
            _key(int(u), int(v))
            for u, v in zip(self._rec_u[old_mask], self._rec_v[old_mask])
        }
        ks = self.scales()
        support_before = {
            (p, kk): min(self.graph.edge_weight(*p), self._rec_below(p, kk))
            for p in touched
            for kk in ks
        }
        survivors = [
            e
            for idx, e in enumerate(self.records)
            if self._alive[idx] and self._scale_of[idx] != k
        ]
        self.records = survivors + edges_k
        self._reindex()
        pending = []
        for p in touched:
            graph_w = self.graph.edge_weight(*p)
            for j in self._dependents.get(p, ()):
                kk = int(self._scale_of[j])
                if min(graph_w, self._rec_below(p, kk)) > support_before[(p, kk)]:
                    pending.append(j)
        self._kill(pending)

    def stats(self) -> dict:
        """Counters for the serving layer's ``stats`` verb."""
        return {
            "records": self.num_records(),
            "live_records": self.live_records(),
            "live_fraction": self.live_fraction,
            "scale_refreshes": self.scale_refreshes,
            "full_rebuilds": self.full_rebuilds,
            "kills": self.kills,
        }
