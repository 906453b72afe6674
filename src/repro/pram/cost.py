"""Work/depth cost accounting for the CREW PRAM simulator.

The paper's theorems bound two resources of a PRAM algorithm:

* **depth** (parallel time): the number of synchronous rounds, and
* **work**: the total number of elementary operations over all processors.

Because CPython cannot execute fine-grained synchronous PRAM rounds in real
parallel, every algorithm in this repository runs *sequentially but
vectorized*, and charges its cost to a :class:`CostModel`.  The charged
figures are the quantities compared against the paper's bounds in the
benchmark harness; Brent's scheduling theorem (``T_p <= W/p + D``) converts
them into a running-time estimate for any concrete processor count.

Charges may be grouped into named *phases* (nested), so that experiments can
attribute work to e.g. ``superclustering`` vs ``interconnection``.  Phase
accounting keeps two views per phase name:

* ``phase_totals`` — **inclusive**: a charge counts toward every enclosing
  phase, so a phase row reads as "everything that happened inside this
  block".  A re-entrant phase (the same name open twice on the stack)
  counts each charge **once**, not once per occurrence.  Summing inclusive
  rows of *nested* phases over-reports the total; sum only sibling leaves
  (``repro.analysis.breakdown`` does).
* ``phase_self_totals`` — **exclusive (self)**: a charge counts only toward
  the innermost open phase.  Exclusive rows partition the phased work, so
  they always sum to ≤ the total charged work.

Both views are computed from **phase-exit deltas**: :meth:`CostModel.charge`
itself only bumps the two integer totals (plus optional step recording and
hook dispatch), and the per-phase dictionaries are updated once per
``with cost.phase(...)`` block from the (work, depth) delta between enter
and exit.  This is the wall-clock fast path — a charge in the hot loop is a
bounds check and two integer adds, no per-charge dict churn — and it is
also what makes the once-per-distinct-name rule exact: only the outermost
open occurrence of a name folds its delta into ``phase_totals``.  The
dictionaries are therefore fully populated only once the phases have
exited (mid-phase readers should snapshot ``work``/``depth`` instead).

Observability subscribers (``repro.obs``) may attach via
:meth:`CostModel.subscribe`.  The hook dispatch is gated on a single list
truthiness check, so an un-instrumented run pays no allocation and no
indirect calls — the *zero-overhead-when-disabled* contract that the
hot-loop benchmarks (E10) guard.

A block's event stream — phase enters and exits, charges, traffic — can be
**recorded** (:meth:`CostModel.recording`) and later **replayed**
(:meth:`CostModel.replay`) under a renamed leading phase, which re-emits
every event through :meth:`~CostModel.phase`, :meth:`~CostModel.charge`
and :meth:`~CostModel.traffic`: totals, both phase views, recorded steps
and every subscriber see what re-running the block would produce.  Only
execution backends' reports (``backend.*`` traffic) are not replayed:
they describe rounds that really ran.  The hopset build uses this for
scales that can only repeat their predecessor (docs/algorithms.md,
"Saturated scales").  With no recording open, a charge pays one extra
``None`` test.

Conformance subscribers (``repro.conformance``) additionally receive
**write-footprint** events: each primitive declares, per synchronous round,
the set of shared-memory cells it writes together with the values and the
CREW legality *rule* the writes claim (see :meth:`CostModel.footprint`).
Footprints can be expensive to materialize, so they are double-gated: a
hook must opt in with ``wants_footprints = True``, and primitives only
build the footprint arrays when :attr:`CostModel.wants_footprints` is
true.  A plain observability run (tracer/metrics) therefore never pays
for them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.pram.errors import InvalidStepError

__all__ = [
    "StepRecord",
    "CostModel",
    "CostSnapshot",
    "CostHook",
    "BACKEND_TRAFFIC_PREFIX",
    "RACE_TRAFFIC_PREFIX",
    "WRITE_RULES",
]

#: Traffic label prefix under which race detectors report findings, so that
#: existing observability sinks (metrics counters, span op stats) record
#: them without new plumbing: a finding against primitive ``L`` surfaces as
#: one ``traffic`` call labeled ``f"{RACE_TRAFFIC_PREFIX}{L}"``.
RACE_TRAFFIC_PREFIX = "crew_race:"

#: Traffic label prefix of execution backends' reports (rounds sent to
#: workers, worker wall time, fallbacks): facts about what really ran, not
#: about the model, so a recording leaves them out and a replay, which
#: runs nothing, re-emits none.
BACKEND_TRAFFIC_PREFIX = "backend."

#: The CREW legality rules a write-footprint may claim (docs/conformance.md):
#:
#: * ``"exclusive"`` — raw CREW writes: at most one write per cell per round;
#:   equal-valued duplicates commit under the COMMON relaxation unless the
#:   checker runs in strict mode (mirrors ``CREWMemory``).
#: * ``"common"``    — a declared tie-set: duplicate writes carry equal
#:   values by construction (e.g. the min-achieving updates of a combining
#:   scatter); equal duplicates are legal even in strict mode, differing
#:   values are a conflict in every mode.
#: * ``"combine"``   — colliding updates are merged by a balanced combine
#:   tree (the primitive charged the tree's depth); any value multiset per
#:   cell is legal, but the charged depth must cover the tallest tree.
WRITE_RULES = ("exclusive", "common", "combine")


@dataclass(frozen=True)
class StepRecord:
    """One charged parallel step (or batch of identical steps).

    ``phases`` preserves the phase stack open at charge time (outermost
    first), so a labeled step recorded inside ``scale3/phase1/ruling``
    keeps both its own ``label`` and the phase context — traces can group
    steps by either.
    """

    label: str
    work: int
    depth: int
    phases: tuple[str, ...] = ()


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable (work, depth) pair, used for deltas between two points."""

    work: int
    depth: int

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(self.work - other.work, self.depth - other.depth)


class CostHook:
    """No-op base class for :class:`CostModel` subscribers.

    Subclasses (see :mod:`repro.obs`) override any subset of the callbacks.
    All callbacks must be cheap and must not mutate the cost model.

    Hooks that set the class attribute ``wants_footprints = True`` (see
    :class:`repro.conformance.ShadowCREW`) additionally receive the
    write-footprint stream (:meth:`on_footprint` / :meth:`on_round_commit`);
    their presence flips :attr:`CostModel.wants_footprints`, which is what
    primitives consult before materializing footprint arrays.
    """

    __slots__ = ()

    #: Opt-in flag for the write-footprint event stream.
    wants_footprints = False

    def on_charge(self, work: int, depth: int, label: str) -> None:
        """One :meth:`CostModel.charge` call (after totals were updated)."""

    def on_traffic(
        self, label: str, calls: int, elements: int, reads: int, writes: int
    ) -> None:
        """CREW memory-traffic report from one primitive invocation."""

    def on_footprint(self, label: str, space: str, cells, values, rule: str) -> None:
        """A primitive declared part of its per-round write-set.

        ``cells`` is an integer array of written cells in the named address
        ``space`` (one primitive may write several spaces, e.g. ``target``
        and ``payload``); ``values`` is a parallel array of written values,
        or ``None`` for opaque writes; ``rule`` is one of :data:`WRITE_RULES`.
        Only delivered to hooks with ``wants_footprints = True``.
        """

    def on_round_commit(self, label: str) -> None:
        """The declaring primitive ended one synchronous round.

        All footprints declared since the previous commit belong to the
        round being committed — the granularity at which CREW exclusivity
        is defined (and at which ``CREWMemory.end_round`` checks it).
        """

    def on_phase_enter(self, name: str) -> None:
        """A ``with cost.phase(name)`` block was entered."""

    def on_phase_exit(self, name: str) -> None:
        """The matching phase block was exited (also on exceptions)."""


class _PhaseFrame:
    """Bookkeeping for one open ``with cost.phase(...)`` block."""

    __slots__ = ("name", "work0", "depth0", "outermost", "child_work", "child_depth")

    def __init__(self, name: str, work0: int, depth0: int, outermost: bool) -> None:
        self.name = name
        self.work0 = work0
        self.depth0 = depth0
        #: True when no enclosing frame carries the same name — only the
        #: outermost occurrence folds its delta into the inclusive totals,
        #: so a re-entrant phase counts each charge exactly once.
        self.outermost = outermost
        self.child_work = 0
        self.child_depth = 0


@dataclass
class CostModel:
    """Accumulates the work and depth of a simulated PRAM execution.

    Attributes
    ----------
    work:
        Total operations charged so far.
    depth:
        Total synchronous rounds charged so far.
    phase_totals:
        Inclusive per-phase totals (a charge counts toward every enclosing
        phase, each distinct name once).  Updated on phase exit.
    phase_self_totals:
        Exclusive per-phase totals (a charge counts only toward the
        innermost open phase).  Updated on phase exit.
    """

    work: int = 0
    depth: int = 0
    record_steps: bool = False
    steps: list[StepRecord] = field(default_factory=list)
    phase_totals: dict[str, CostSnapshot] = field(default_factory=dict)
    phase_self_totals: dict[str, CostSnapshot] = field(default_factory=dict)
    _phase_stack: list[str] = field(default_factory=list, repr=False)
    _frames: list[_PhaseFrame] = field(default_factory=list, repr=False)
    _open_counts: dict[str, int] = field(default_factory=dict, repr=False)
    _subscribers: list[CostHook] = field(default_factory=list, repr=False)
    _footprint_hooks: list[CostHook] = field(default_factory=list, repr=False)
    _tape: list | None = field(default=None, repr=False)

    def charge(self, work: int, depth: int = 1, label: str = "") -> None:
        """Charge ``work`` operations spread over ``depth`` rounds.

        ``depth`` may be 0 for pure bookkeeping work folded into an
        already-charged round; ``work`` may be 0 for synchronization-only
        rounds.  Negative charges are rejected.

        This is the simulator's hottest call: with no step recording, no
        subscribers and no open recording it is two integer adds.  Phase
        attribution happens on phase *exit* (see :meth:`phase`), never here.
        """
        if work < 0 or depth < 0:
            raise InvalidStepError(
                f"negative cost charge (work={work}, depth={depth})"
            )
        self.work += int(work)
        self.depth += int(depth)
        if self._tape is not None:
            self._tape.append((_CHARGE, work, depth, label))
        if self.record_steps:
            stack = self._phase_stack
            self.steps.append(
                StepRecord(
                    label or (stack[-1] if stack else ""), work, depth, tuple(stack)
                )
            )
        if self._subscribers:
            for hook in self._subscribers:
                hook.on_charge(work, depth, label)

    def traffic(
        self,
        label: str,
        *,
        calls: int = 1,
        elements: int = 0,
        reads: int = 0,
        writes: int = 0,
    ) -> None:
        """Report model-level CREW memory traffic for one primitive call.

        ``reads``/``writes`` count shared-memory cells touched under the
        primitive's charging convention (see ``docs/model.md``).  This is a
        pure observability event: it never affects ``work``/``depth`` and
        is a no-op unless a subscriber is attached.
        """
        if not self._subscribers:
            return
        if self._tape is not None and not label.startswith(BACKEND_TRAFFIC_PREFIX):
            self._tape.append((_TRAFFIC, label, calls, elements, reads, writes))
        for hook in self._subscribers:
            hook.on_traffic(label, calls, elements, reads, writes)

    # -- write footprints (conformance) --------------------------------------

    @property
    def wants_footprints(self) -> bool:
        """True when a footprint-consuming hook (a race detector) is attached.

        Primitives gate the *construction* of footprint arrays on this flag,
        so un-shadowed runs never pay for them.
        """
        return bool(self._footprint_hooks)

    def footprint(
        self, label: str, space: str, cells, values=None, rule: str = "exclusive"
    ) -> None:
        """Declare part of the current round's write-set of one primitive.

        ``cells``/``values`` are parallel arrays of written cells in the
        address ``space`` and the values written there (``values=None`` for
        opaque writes that cannot be compared for the COMMON rule).  ``rule``
        is one of :data:`WRITE_RULES`.  A no-op without footprint hooks.
        """
        if not self._footprint_hooks:
            return
        if rule not in WRITE_RULES:
            raise InvalidStepError(f"unknown write rule {rule!r}")
        for hook in self._footprint_hooks:
            hook.on_footprint(label, space, cells, values, rule)

    def commit_round(self, label: str = "") -> None:
        """Close the declaring primitive's current round of footprints.

        Analogous to ``CREWMemory.end_round``: everything declared via
        :meth:`footprint` since the last commit is one synchronous round.
        A no-op without footprint hooks.
        """
        if not self._footprint_hooks:
            return
        for hook in self._footprint_hooks:
            hook.on_round_commit(label)

    # -- observability hooks -------------------------------------------------

    def subscribe(self, hook: CostHook) -> CostHook:
        """Attach an observability hook; returns it for chaining."""
        self._subscribers.append(hook)
        if getattr(hook, "wants_footprints", False):
            self._footprint_hooks.append(hook)
        return hook

    def unsubscribe(self, hook: CostHook) -> None:
        """Detach a hook previously attached with :meth:`subscribe`."""
        if hook in self._subscribers:
            self._subscribers.remove(hook)
        if hook in self._footprint_hooks:
            self._footprint_hooks.remove(hook)

    @property
    def has_subscribers(self) -> bool:
        return bool(self._subscribers)

    def snapshot(self) -> CostSnapshot:
        """Return the current (work, depth) totals as an immutable value."""
        return CostSnapshot(self.work, self.depth)

    def time_on(self, processors: int) -> int:
        """Brent's-theorem running-time bound with ``processors`` processors.

        ``T_p <= work / p + depth`` — the standard upper bound for greedy
        scheduling of a work/depth computation on ``p`` processors.
        """
        if processors <= 0:
            raise InvalidStepError(f"processor count must be positive, got {processors}")
        return int(math.ceil(self.work / processors)) + self.depth

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the ``with`` block to ``name``.

        Phases nest; a charge inside nested phases is attributed to each
        enclosing phase in ``phase_totals`` (inclusive, each distinct name
        once even when re-entered) and to the innermost phase only in
        ``phase_self_totals`` (exclusive).  Attribution is computed from
        the (work, depth) delta between enter and exit, so the charge hot
        path stays dictionary-free; a block that charged nothing leaves no
        totals entry.
        """
        frame = _PhaseFrame(
            name, self.work, self.depth, self._open_counts.get(name, 0) == 0
        )
        self._open_counts[name] = self._open_counts.get(name, 0) + 1
        self._phase_stack.append(name)
        self._frames.append(frame)
        if self._tape is not None:
            self._tape.append((_ENTER, name))
        if self._subscribers:
            for hook in self._subscribers:
                hook.on_phase_enter(name)
        try:
            yield
        finally:
            if self._tape is not None:
                self._tape.append((_EXIT, name))
            self._phase_stack.pop()
            self._frames.pop()
            left = self._open_counts[name] - 1
            if left:
                self._open_counts[name] = left
            else:
                del self._open_counts[name]
            dw = self.work - frame.work0
            dd = self.depth - frame.depth0
            if frame.outermost and (dw or dd):
                prev = self.phase_totals.get(name, _ZERO)
                self.phase_totals[name] = CostSnapshot(prev.work + dw, prev.depth + dd)
            sw = dw - frame.child_work
            sd = dd - frame.child_depth
            if sw or sd:
                prev = self.phase_self_totals.get(name, _ZERO)
                self.phase_self_totals[name] = CostSnapshot(
                    prev.work + sw, prev.depth + sd
                )
            if self._frames:
                parent = self._frames[-1]
                parent.child_work += dw
                parent.child_depth += dd
            if self._subscribers:
                for hook in self._subscribers:
                    hook.on_phase_exit(name)

    @contextmanager
    def recording(self) -> Iterator[list]:
        """Record the block's event stream; yields the tape it fills.

        The tape holds every phase enter and exit, every charge, and (when
        subscribers are attached) every traffic report except a backend's
        execution reports (:data:`BACKEND_TRAFFIC_PREFIX`), in order — what
        :meth:`replay` needs to re-emit the block.  Recordings nest: an
        enclosing recording receives the inner tape's events when the
        inner block ends.
        """
        outer = self._tape
        tape: list = []
        self._tape = tape
        try:
            yield tape
        finally:
            self._tape = outer
            if outer is not None:
                outer.extend(tape)

    def replay(self, tape: list, rename: tuple[str, str]) -> None:
        """Re-emit a :meth:`recording` tape as if its block ran again.

        Every event goes through :meth:`phase`, :meth:`charge` and
        :meth:`traffic`, so totals, both phase views, recorded steps and
        subscribers see exactly what re-running the block produces, bar
        the backend's execution reports: a replay runs no round.
        ``rename=(old, new)`` replaces a phase name's leading path
        component ``old`` by ``new`` — exactly that component, so
        ``scale1`` renames ``scale1/phase0`` but not ``scale10``.  Write
        footprints are not recorded, so a replay refuses to run while a
        footprint hook (a race detector) is attached.
        """
        if self._footprint_hooks:
            raise InvalidStepError("a replay cannot re-emit write footprints")
        old, new = rename
        blocks: list = []
        try:
            for event in tape:
                kind = event[0]
                if kind is _CHARGE:
                    self.charge(event[1], event[2], event[3])
                elif kind is _ENTER:
                    head, sep, rest = event[1].partition("/")
                    block = self.phase((new if head == old else head) + sep + rest)
                    block.__enter__()
                    blocks.append(block)
                elif kind is _EXIT:
                    blocks.pop().__exit__(None, None, None)
                else:
                    _, label, calls, elements, reads, writes = event
                    self.traffic(
                        label, calls=calls, elements=elements, reads=reads, writes=writes
                    )
        finally:
            while blocks:
                blocks.pop().__exit__(None, None, None)

    def subphase(self, name: str):
        """A phase named *under* the innermost open phase, path-style.

        ``with cost.phase("scale3/phase1/ruling"): with cost.subphase("bit4")``
        opens the phase ``scale3/phase1/ruling/bit4``.  Library code uses
        this to add finer spans without knowing its enclosing phase name,
        while keeping the ``a/b/c`` naming convention that
        :func:`repro.analysis.breakdown.cost_breakdown` relies on to
        identify leaves.
        """
        parent = self._phase_stack[-1] if self._phase_stack else ""
        return self.phase(f"{parent}/{name}" if parent else name)

    def current_phase_path(self) -> tuple[str, ...]:
        """The currently open phase stack, outermost first."""
        return tuple(self._phase_stack)

    def _current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else ""

    def reset(self) -> None:
        """Zero all counters and recorded steps (subscribers stay attached)."""
        self.work = 0
        self.depth = 0
        self.steps.clear()
        self.phase_totals.clear()
        self.phase_self_totals.clear()
        self._phase_stack.clear()
        self._frames.clear()
        self._open_counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostModel(work={self.work}, depth={self.depth})"


_ZERO = CostSnapshot(0, 0)

# recording-tape event kinds (see CostModel.recording)
_CHARGE, _TRAFFIC, _ENTER, _EXIT = "charge", "traffic", "enter", "exit"
