"""CostModel: charging, phases, Brent scheduling."""

import pytest

from repro.pram.cost import CostHook, CostModel, CostSnapshot
from repro.pram.errors import InvalidStepError


def test_charge_accumulates_work_and_depth():
    c = CostModel()
    c.charge(work=10, depth=2)
    c.charge(work=5, depth=1)
    assert c.work == 15
    assert c.depth == 3


def test_zero_depth_charge_allowed():
    c = CostModel()
    c.charge(work=7, depth=0)
    assert c.work == 7
    assert c.depth == 0


def test_negative_charge_rejected():
    c = CostModel()
    with pytest.raises(InvalidStepError):
        c.charge(work=-1)
    with pytest.raises(InvalidStepError):
        c.charge(work=1, depth=-2)


def test_snapshot_delta():
    c = CostModel()
    c.charge(work=4, depth=1)
    a = c.snapshot()
    c.charge(work=6, depth=2)
    delta = c.snapshot() - a
    assert delta == CostSnapshot(work=6, depth=2)


def test_brent_time_bound():
    c = CostModel()
    c.charge(work=1000, depth=10)
    # T_p <= W/p + D
    assert c.time_on(1) == 1010
    assert c.time_on(100) == 20
    assert c.time_on(10**9) == 11  # ceil(1000/1e9)=1


def test_time_on_requires_positive_processors():
    c = CostModel()
    with pytest.raises(InvalidStepError):
        c.time_on(0)


def test_phase_attribution_is_inclusive():
    c = CostModel()
    with c.phase("outer"):
        c.charge(work=5, depth=1)
        with c.phase("inner"):
            c.charge(work=3, depth=1)
    assert c.phase_totals["outer"].work == 8
    assert c.phase_totals["inner"].work == 3
    assert c.phase_totals["outer"].depth == 2


def test_phase_stack_unwinds_on_exception():
    c = CostModel()
    with pytest.raises(RuntimeError):
        with c.phase("p"):
            raise RuntimeError("boom")
    c.charge(work=1)
    # the charge after the exception is not attributed to the dead phase
    assert c.phase_totals.get("p") is None


def test_record_steps():
    c = CostModel(record_steps=True)
    c.charge(work=2, depth=1, label="a")
    c.charge(work=3, depth=1, label="b")
    assert [s.label for s in c.steps] == ["a", "b"]
    assert [s.work for s in c.steps] == [2, 3]


def test_reset_clears_everything():
    c = CostModel(record_steps=True)
    with c.phase("x"):
        c.charge(work=9, depth=3)
    c.reset()
    assert c.work == 0 and c.depth == 0
    assert not c.steps and not c.phase_totals
    assert not c.phase_self_totals


def test_reentrant_phase_name_counts_once():
    # A phase name open twice on the stack (a/b/a) must attribute each
    # charge to its inclusive total exactly once, not once per occurrence.
    c = CostModel()
    with c.phase("a"):
        with c.phase("b"):
            with c.phase("a"):
                c.charge(work=5, depth=2)
    assert c.phase_totals["a"] == CostSnapshot(5, 2)
    assert c.phase_totals["b"] == CostSnapshot(5, 2)


def test_reentrant_phase_self_totals_attribute_to_inner():
    c = CostModel()
    with c.phase("a"):
        c.charge(work=1, depth=1)
        with c.phase("a"):
            c.charge(work=3, depth=1)
    assert c.phase_totals["a"] == CostSnapshot(4, 2)
    # self rows: outer keeps its own charge, inner occurrence's charge
    # folds into the same name's exclusive row
    assert c.phase_self_totals["a"] == CostSnapshot(4, 2)


def test_phase_self_totals_are_exclusive():
    c = CostModel()
    with c.phase("outer"):
        c.charge(work=5, depth=1)
        with c.phase("inner"):
            c.charge(work=3, depth=1)
        c.charge(work=2, depth=1)
    assert c.phase_self_totals["outer"] == CostSnapshot(7, 2)
    assert c.phase_self_totals["inner"] == CostSnapshot(3, 1)
    # exclusive rows partition the phased work
    total_self = sum(s.work for s in c.phase_self_totals.values())
    assert total_self == c.work


def test_step_records_keep_phase_context():
    c = CostModel(record_steps=True)
    with c.phase("a"):
        with c.phase("b"):
            c.charge(work=1, depth=1, label="scan")
    c.charge(work=1, depth=1, label="free")
    assert c.steps[0].label == "scan"
    assert c.steps[0].phases == ("a", "b")
    assert c.steps[1].phases == ()


def test_unlabeled_step_records_fall_back_to_innermost_phase():
    c = CostModel(record_steps=True)
    with c.phase("p"):
        c.charge(work=1, depth=1)
    assert c.steps[0].label == "p"


def test_subphase_nests_path_style():
    c = CostModel()
    with c.phase("scale3/phase1/ruling"):
        with c.subphase("bit4"):
            c.charge(work=2, depth=1)
    assert c.phase_totals["scale3/phase1/ruling/bit4"].work == 2
    # a subphase with no enclosing phase is just a phase
    with c.subphase("solo"):
        c.charge(work=1, depth=1)
    assert c.phase_totals["solo"].work == 1


def test_current_phase_path():
    c = CostModel()
    assert c.current_phase_path() == ()
    with c.phase("a"):
        with c.phase("b"):
            assert c.current_phase_path() == ("a", "b")


class _RecordingHook(CostHook):
    def __init__(self):
        self.events = []

    def on_charge(self, work, depth, label):
        self.events.append(("charge", work, depth, label))

    def on_traffic(self, label, calls, elements, reads, writes):
        self.events.append(("traffic", label, calls, elements, reads, writes))

    def on_phase_enter(self, name):
        self.events.append(("enter", name))

    def on_phase_exit(self, name):
        self.events.append(("exit", name))


class _ExplodingHook(CostHook):
    """Fails the test if any callback fires (fast-path guard)."""

    def on_charge(self, work, depth, label):
        raise AssertionError("hook dispatched with no subscription")

    on_traffic = on_phase_enter = on_phase_exit = on_charge


def test_subscribers_receive_all_events_in_order():
    c = CostModel()
    hook = c.subscribe(_RecordingHook())
    with c.phase("p"):
        c.charge(work=4, depth=1, label="scan")
        c.traffic("scan", elements=4, reads=8, writes=4)
    assert hook.events == [
        ("enter", "p"),
        ("charge", 4, 1, "scan"),
        ("traffic", "scan", 1, 4, 8, 4),
        ("exit", "p"),
    ]


def test_phase_exit_notified_on_exception():
    c = CostModel()
    hook = c.subscribe(_RecordingHook())
    with pytest.raises(RuntimeError):
        with c.phase("p"):
            raise RuntimeError("boom")
    assert hook.events == [("enter", "p"), ("exit", "p")]


def test_unsubscribed_hook_never_fires():
    c = CostModel()
    hook = c.subscribe(_ExplodingHook())
    c.unsubscribe(hook)
    c.unsubscribe(hook)  # double-unsubscribe is a no-op
    assert not c.has_subscribers
    with c.phase("p"):
        c.charge(work=1, depth=1)
        c.traffic("x", elements=1)
    # accounting still happened normally
    assert c.work == 1


def test_disabled_path_records_nothing():
    """The zero-overhead contract: no subscribers, no step recording →
    charge/traffic leave no observability residue."""
    c = CostModel()
    c.charge(work=5, depth=1, label="scan")
    c.traffic("scan", elements=5, reads=10, writes=5)
    assert c.steps == []
    assert not c.has_subscribers
    assert c.work == 5 and c.depth == 1


def _scale_block(c, k):
    """A miniature scale: nested phases, labeled and unlabeled charges, a
    model traffic report and a backend execution report."""
    with c.phase(f"scale{k}"):
        c.charge(work=3, depth=1, label="distribute")
        with c.phase(f"scale{k}/phase0/detect"):
            with c.subphase("explore"):
                c.charge(work=10, depth=2)
                c.traffic("relax", elements=10, reads=20, writes=10)
                c.traffic("backend.entry_round", elements=10)
        with c.phase("scale10/phase0/interconnect"):  # not scale{k}'s child
            c.charge(work=5, depth=1, label="interconnect")


def test_replay_repeats_a_recorded_block_under_its_new_name():
    """Replaying scale1's tape as scale2 leaves every view as building
    scale2 would, bar the backend's report; ``scale10`` is a different
    leading component, so it is not renamed."""
    ran = CostModel(record_steps=True)
    ran_log = ran.subscribe(_RecordingHook())
    _scale_block(ran, 1)
    _scale_block(ran, 2)

    replayed = CostModel(record_steps=True)
    log = replayed.subscribe(_RecordingHook())
    with replayed.recording() as tape:
        _scale_block(replayed, 1)
    replayed.replay(tape, rename=("scale1", "scale2"))

    assert (replayed.work, replayed.depth) == (ran.work, ran.depth)
    assert replayed.phase_totals == ran.phase_totals
    assert replayed.phase_self_totals == ran.phase_self_totals
    assert replayed.steps == ran.steps
    half = len(ran_log.events) // 2  # the events of scale1, then of scale2
    backend_report = ("traffic", "backend.entry_round", 1, 10, 0, 0)
    assert backend_report in ran_log.events[half:]
    assert log.events[:half] == ran_log.events[:half]
    assert log.events[half:] == [e for e in ran_log.events[half:] if e != backend_report]
    assert "scale20/phase0/interconnect" not in replayed.phase_totals


def test_recordings_nest_and_close():
    c = CostModel()
    with c.recording() as outer:
        c.charge(work=1, depth=1, label="a")
        with c.recording() as inner:
            with c.phase("p"):
                c.charge(work=2, depth=1, label="b")
        c.charge(work=4, depth=1, label="c")
    c.charge(work=8, depth=1, label="d")  # no recording open
    assert len(inner) == 3
    assert len(outer) == 5
    replay = CostModel()
    replay.replay(outer, rename=("p", "q"))
    assert (replay.work, replay.depth) == (7, 3)
    assert replay.phase_totals == {"q": CostSnapshot(2, 1)}


def test_replay_refuses_under_a_footprint_hook():
    class Detector(CostHook):
        wants_footprints = True

    c = CostModel()
    with c.recording() as tape:
        c.charge(work=1, depth=1)
    c.subscribe(Detector())
    with pytest.raises(InvalidStepError):
        c.replay(tape, rename=("a", "b"))
    assert c.work == 1
