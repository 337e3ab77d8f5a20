"""Tests for the ring-network extension.

``ring_bfl`` and ``RingSchedule``'s bulk check are compared with the
reference implementations in ``tests/ring_oracle.py``: perfbench's
``offline`` check of the ring cell runs the same kernel on the in-memory
instance, so it cannot catch a kernel fault, and these tests are the guard.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.bfl import bfl
from repro.core.instance import Instance, MessageTable
from repro.core.message import Message
from repro.core.schedule import SegmentTable
from repro.topology import ring as ring_module
from repro.topology import get_topology, topology_of
from repro.topology.ring import ring_bfl
from repro.topology.ring_exact import opt_ring_bufferless
from repro.topology.ring import (
    BufferedRingTrajectory,
    RingInstance,
    RingMessage,
    RingSchedule,
    RingTrajectory,
    ring_schedule_problems,
    validate_ring_schedule,
)

from .ring_oracle import reference_ring_bfl, reference_slot_check


def random_ring(rng, *, n_lo=3, n_hi=9, k_hi=8, max_release=6, max_slack=5):
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, k_hi + 1))
    msgs = []
    for i in range(k):
        s = int(rng.integers(0, n))
        span = int(rng.integers(1, n))
        r = int(rng.integers(0, max_release + 1))
        sl = int(rng.integers(0, max_slack + 1))
        msgs.append(RingMessage(i, s, (s + span) % n, r, r + span + sl, n))
    return RingInstance(n, tuple(msgs))


class TestRingModel:
    def test_wraparound_span(self):
        m = RingMessage(0, 5, 1, 0, 10, n=6)
        assert m.span == 2
        assert m.slack == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            RingMessage(0, 0, 1, 0, 5, n=2)
        with pytest.raises(ValueError, match="source == dest"):
            RingMessage(0, 2, 2, 0, 5, n=6)
        with pytest.raises(ValueError, match="time window"):
            RingMessage(0, 0, 1, 5, 3, n=6)

    def test_helix_is_modular(self):
        m = RingMessage(0, 1, 3, 0, 30, n=5)
        # departures n apart land on the same helix
        assert m.helix(2) == m.helix(7)
        assert m.helix(2) != m.helix(3)

    def test_trajectory_edges_wrap(self):
        t = RingTrajectory(message_id=0, source=4, depart=0, span=3, n=6)
        assert list(t.edges()) == [(4, 0), (5, 1), (0, 2)]

    def test_schedule_conflict_detection(self):
        a = RingTrajectory(0, 0, 0, 2, 6)
        b = RingTrajectory(1, 1, 1, 2, 6)  # both cross link 1 at time 1
        with pytest.raises(ValueError, match="share"):
            RingSchedule((a, b))

    def test_instance_checks_ring_size(self):
        with pytest.raises(ValueError, match="built for"):
            RingInstance(6, (RingMessage(0, 0, 1, 0, 5, n=5),))


class TestRingBFL:
    def test_empty(self):
        assert ring_bfl(RingInstance(4, ())).throughput == 0

    def test_single_message_wrapping(self):
        inst = RingInstance(5, (RingMessage(0, 3, 1, 0, 10, n=5),))
        sched = ring_bfl(inst)
        assert sched.throughput == 1
        validate_ring_schedule(inst, sched)

    @pytest.mark.parametrize("seed", range(30))
    def test_factor_two_vs_exact(self, seed):
        rng = np.random.default_rng(9500 + seed)
        inst = random_ring(rng)
        greedy = ring_bfl(inst)
        exact = opt_ring_bufferless(inst)
        validate_ring_schedule(inst, greedy)
        validate_ring_schedule(inst, exact.schedule)
        assert greedy.throughput <= exact.throughput
        assert 2 * greedy.throughput >= exact.throughput

    def test_matches_line_bfl_on_arc_instances(self):
        """Traffic confined to an arc never wraps; ring throughput must be
        at least line-BFL's (both are earliest-completion greedies, but the
        ring greedy is not segment-blocked by the sweep order)."""
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = 12
            k = int(rng.integers(2, 8))
            line_msgs, ring_msgs = [], []
            for i in range(k):
                s = int(rng.integers(0, n - 2))
                d = int(rng.integers(s + 1, n - 1))
                r = int(rng.integers(0, 5))
                sl = int(rng.integers(0, 4))
                line_msgs.append(Message(i, s, d, r, r + (d - s) + sl))
                ring_msgs.append(RingMessage(i, s, d, r, r + (d - s) + sl, n))
            line = Instance(n, tuple(line_msgs))
            ring = RingInstance(n, tuple(ring_msgs))
            line_opt = len(bfl(line).delivered_ids)
            ring_got = ring_bfl(ring).throughput
            # both are 2-approximations of the same optimum
            from repro.exact import opt_bufferless

            exact = opt_bufferless(line).throughput
            assert 2 * ring_got >= exact
            assert 2 * line_opt >= exact

    def test_wrap_contention(self):
        # two messages whose paths share the wrap link (n-1 -> 0), zero slack
        n = 4
        inst = RingInstance(
            n,
            (
                RingMessage(0, 3, 1, 0, 2, n),  # crosses link 3 at 0, link 0 at 1
                RingMessage(1, 3, 1, 0, 2, n),  # identical: collides
            ),
        )
        assert ring_bfl(inst).throughput == 1
        assert opt_ring_bufferless(inst).throughput == 1


class TestRingExact:
    def test_empty(self):
        assert opt_ring_bufferless(RingInstance(4, ())).throughput == 0

    def test_slack_clipping_preserves_validity(self):
        inst = RingInstance(5, (RingMessage(0, 0, 2, 0, 1000, n=5),))
        res = opt_ring_bufferless(inst)
        assert res.throughput == 1
        validate_ring_schedule(inst, res.schedule)

    def test_infeasible_ignored(self):
        inst = RingInstance(5, (RingMessage(0, 0, 3, 0, 2, n=5),))
        assert opt_ring_bufferless(inst).throughput == 0


# --------------------------------------------------------------------- #
# the helix-end greedy against the slot-set oracle
# --------------------------------------------------------------------- #

@st.composite
def ring_instances(draw, arc_only=False):
    """Rings of 3..12 nodes whose slack reaches 3n (several candidates per
    helix), with infeasible messages (negative slack) and k = 0 allowed;
    ``arc_only`` keeps every path off link ``n-1``, so nothing wraps."""
    n = draw(st.integers(3, 12))
    k = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(0, 60), min_size=k, max_size=k, unique=True))
    messages = []
    for mid in ids:
        if arc_only:
            source = draw(st.integers(0, n - 2))
            span = draw(st.integers(1, n - 1 - source))
        else:
            source = draw(st.integers(0, n - 1))
            span = draw(st.integers(1, n - 1))
        release = draw(st.integers(0, 2 * n))
        slack = draw(st.integers(-span, 3 * n))
        messages.append(
            RingMessage(mid, source, (source + span) % n, release, release + span + slack, n)
        )
    return RingInstance(n, tuple(messages))


def _parsed(inst):
    """``inst`` through its version-2 document: a table-built instance."""
    return api.parse_instance(json.dumps(topology_of(inst).instance_to_dict(inst)))


class TestHelixGreedyMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(ring_instances())
    def test_same_trajectories_in_same_order(self, inst):
        want = reference_ring_bfl(inst).trajectories
        assert ring_bfl(inst).trajectories == want
        parsed = _parsed(inst)
        assert ring_bfl(parsed).trajectories == want
        assert "messages" not in vars(parsed)

    @settings(max_examples=200, deadline=None)
    @given(ring_instances(arc_only=True))
    def test_arc_only_instances(self, inst):
        assert ring_bfl(inst).trajectories == reference_ring_bfl(inst).trajectories

    def test_random_rings_with_large_slack(self):
        rng = np.random.default_rng(2301)
        for _ in range(300):
            inst = random_ring(rng, n_lo=3, n_hi=19, k_hi=25, max_release=20, max_slack=57)
            assert ring_bfl(inst).trajectories == reference_ring_bfl(inst).trajectories

    def test_offline_cell_size(self):
        from repro.workloads.rings import random_ring_instance

        inst = random_ring_instance(
            np.random.default_rng(4), n=32, k=270, max_release=85, max_slack=8
        )
        got = ring_bfl(_parsed(inst))
        assert got.trajectories == reference_ring_bfl(inst).trajectories
        validate_ring_schedule(inst, got)

    def test_empty_and_infeasible(self):
        assert ring_bfl(RingInstance(5, ())).trajectories == ()
        inst = RingInstance(5, (RingMessage(0, 0, 3, 2, 4, 5), RingMessage(1, 4, 1, 0, 2, 5)))
        assert ring_bfl(inst).trajectories == reference_ring_bfl(inst).trajectories
        assert ring_bfl(inst).delivered_ids == {1}

    def test_one_helix_many_departures(self):
        # slack 3n: a message's departures d and d+n sit on the same helix
        n = 4
        msgs = tuple(RingMessage(i, 0, 2, 0, 2 + 3 * n, n) for i in range(6))
        inst = RingInstance(n, msgs)
        got = ring_bfl(inst)
        assert got.trajectories == reference_ring_bfl(inst).trajectories
        assert got.throughput == 6
        validate_ring_schedule(inst, got)


class TestSolveBuildsNoMessages:
    def test_parsed_document(self, monkeypatch):
        from repro.workloads.rings import random_ring_instance

        inst = random_ring_instance(np.random.default_rng(8), n=16, k=60, max_slack=20)
        text = json.dumps(topology_of(inst).instance_to_dict(inst))
        want = api.solve(inst, "bufferless", "bfl").to_dict()

        def no_messages(self):
            raise AssertionError("a RingMessage was built")

        monkeypatch.setattr(ring_module.RingMessage, "__post_init__", no_messages)
        parsed = api.parse_instance(text)
        result = api.solve(parsed, "bufferless", "bfl")
        got = json.loads(json.dumps(result.to_dict()))
        assert "messages" not in vars(parsed)
        monkeypatch.undo()
        for doc in (got, want):
            doc.pop("telemetry")
        assert got == json.loads(json.dumps(want))
        assert result.schedule == ring_bfl(inst)


# --------------------------------------------------------------------- #
# RingSchedule's scan-line check against the per-slot loop
# --------------------------------------------------------------------- #


@st.composite
def ring_trajectory_sets(draw):
    """Small rings crowded with bufferless and buffered rows, so repeated
    ids, shared slots, wrapping spans and a stray ring size all occur."""
    n = draw(st.integers(3, 6))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        mid = draw(st.integers(0, 6))
        size = draw(st.sampled_from([n, n, n, n, n + 1]))
        source = draw(st.integers(0, size - 1))
        depart = draw(st.integers(0, 8))
        span = draw(st.integers(1, size + 1))
        if draw(st.integers(0, 3)) == 0:
            waits = draw(st.lists(st.integers(0, 2), min_size=span, max_size=span))
            times, t = [], depart - 1
            for w in waits:
                t += 1 + w
                times.append(t)
            if times:
                rows.append(
                    BufferedRingTrajectory(mid, source, depart, span, size, hop_times=tuple(times))
                )
                continue
        rows.append(RingTrajectory(mid, source, depart, span, size))
    return tuple(rows)


def _outcome(fn, *args):
    try:
        fn(*args)
        return ("ok",)
    except Exception as exc:  # the exception itself is the observable
        return ("error", type(exc), str(exc))


class TestBulkCheckMatchesSlotLoop:
    @settings(max_examples=600, deadline=None)
    @given(ring_trajectory_sets())
    def test_accepts_and_rejects_alike(self, trajectories):
        assert _outcome(RingSchedule, trajectories) == _outcome(
            reference_slot_check, trajectories
        )

    def test_conflicts_on_one_helix(self):
        a = RingTrajectory(0, 0, 0, 3, 5)  # helix 0, [0, 3)
        b = RingTrajectory(1, 2, 2, 2, 5)  # helix 0, [2, 4): link 2 at time 2
        c = RingTrajectory(2, 3, 3, 2, 5)  # helix 0, [3, 5): after a, overlaps b
        RingSchedule((a, c))
        for rows in [(a, b), (b, c), (a, c, b)]:
            with pytest.raises(ValueError) as got:
                RingSchedule(rows)
            with pytest.raises(ValueError) as want:
                reference_slot_check(rows)
            assert str(got.value) == str(want.value)

    def test_valid_bufferless_schedule_skips_the_slot_loop(self, monkeypatch):
        from repro.workloads.rings import random_ring_instance

        inst = random_ring_instance(np.random.default_rng(6), n=16, k=80, max_slack=10)
        trajectories = ring_bfl(inst).trajectories

        def no_slot_loop(rows):
            raise AssertionError("the per-slot loop ran")

        monkeypatch.setattr(ring_module, "_claim_slots", no_slot_loop)
        assert RingSchedule(trajectories).trajectories == trajectories

    def test_duplicate_id_message(self):
        a = RingTrajectory(0, 0, 0, 1, 5)
        with pytest.raises(ValueError, match="message 0 scheduled twice"):
            RingSchedule((a, RingTrajectory(0, 3, 7, 1, 5)))


# --------------------------------------------------------------------- #
# table-built ring instances
# --------------------------------------------------------------------- #


class TestRingInstanceTable:
    def test_from_table_is_lazy_and_equal(self):
        inst = RingInstance(6, (RingMessage(3, 5, 1, 0, 4, 6), RingMessage(1, 0, 4, 2, 9, 6)))
        built = RingInstance.from_table(6, inst.table, buffer_capacity=None)
        assert "messages" not in vars(built)
        assert len(built) == 2
        assert built.table == MessageTable((3, 1), (5, 0), (1, 4), (0, 2), (4, 9))
        assert built == inst and built.messages == inst.messages
        assert pickle.loads(pickle.dumps(built)) == inst

    @pytest.mark.parametrize(
        "n,rows,cap,match",
        [
            (2, [(0, 0, 1, 0, 3)], None, "at least 3"),
            (5, [(0, 0, 5, 0, 9)], None, "endpoints outside the ring"),
            (5, [(0, 2, 2, 0, 9)], None, "source == dest"),
            (5, [(0, 1, 2, 4, 3)], None, "bad time window"),
            (5, [(0, 1, 2, 0, 3), (0, 2, 3, 0, 3)], None, "duplicate message id 0"),
            (5, [(0, 1, 2, 0, 3)], -1, "non-negative"),
        ],
    )
    def test_failing_table_raises_the_constructors_error(self, n, rows, cap, match):
        table = MessageTable(*zip(*rows))
        with pytest.raises(ValueError, match=match) as got:
            RingInstance.from_table(n, table, buffer_capacity=cap)
        with pytest.raises(ValueError) as want:
            RingInstance(n, tuple(RingMessage(*row, n) for row in rows), cap)
        assert str(got.value) == str(want.value)

    def test_empty_two_node_ring_is_accepted_as_before(self):
        assert RingInstance.from_table(2, MessageTable.of(())) == RingInstance(2, ())

    def test_getitem_by_id(self):
        msgs = (RingMessage(7, 5, 1, 0, 4, 6), RingMessage(2, 0, 4, 2, 9, 6))
        inst = _parsed(RingInstance(6, msgs))
        assert inst[2] == RingMessage(2, 0, 4, 2, 9, 6)
        assert inst[7].span == 2
        with pytest.raises(KeyError):
            inst[3]

    def test_schedule_problems_on_a_parsed_instance(self):
        from repro.workloads.rings import random_ring_instance

        inst = random_ring_instance(np.random.default_rng(3), n=32, k=270, max_release=85)
        parsed = _parsed(inst)
        sched = ring_bfl(parsed)
        assert ring_schedule_problems(parsed, sched, require_bufferless=True) == []
        stray = RingSchedule((RingTrajectory(999, 0, 0, 1, 32),))
        assert ring_schedule_problems(parsed, stray) == ["message 999: not in instance"]


# --------------------------------------------------------------------- #
# RingSchedule on the line's segment table
# --------------------------------------------------------------------- #


RING = get_topology("ring")


def _ring_doc_of(schedule):
    return json.loads(json.dumps(RING.schedule_to_dict(schedule)))


@pytest.fixture
def kernel_schedule():
    """A ``ring_bfl`` schedule at the offline cell's size and the reference
    greedy's object-built twin."""
    from repro.workloads.rings import random_ring_instance

    inst = random_ring_instance(np.random.default_rng(4), n=32, k=270, max_release=85)
    return ring_bfl(_parsed(inst)), reference_ring_bfl(inst)


class TestSegmentBackedRingSchedule:
    @pytest.mark.parametrize("span", [0, -3])
    def test_trajectory_refuses_an_empty_span(self, span):
        for cls in (RingTrajectory, BufferedRingTrajectory):
            with pytest.raises(ValueError, match="^trajectory for message 4 crosses no link$"):
                cls(4, 0, 0, span, 5)

    @pytest.mark.parametrize("n", [-4, 0, 1, 2])
    def test_trajectory_refuses_a_ring_under_three_nodes(self, n):
        with pytest.raises(
            ValueError, match="^trajectory for message 4: a ring needs at least 3 nodes$"
        ):
            RingTrajectory(4, 0, 0, 1, n)

    def test_kernel_returns_segments_only(self, kernel_schedule):
        sched, ref = kernel_schedule
        assert set(vars(sched)) == {"segments", "n"}
        assert sched.n == 32 and sched.segments == ref.segments

    def test_kernel_to_document_and_back_builds_no_trajectory(self, monkeypatch):
        inst = _parsed(random_ring(np.random.default_rng(9), k_hi=20))
        built = []
        monkeypatch.setattr(RingTrajectory, "__post_init__", lambda t: built.append(t))
        doc = _ring_doc_of(ring_bfl(inst))
        again = RING.schedule_to_dict(RING.schedule_from_dict(doc))
        assert built == [] and again == doc
        assert doc["version"] == 2 and doc["throughput"] > 0

    def test_read_holds_segments_and_size(self, kernel_schedule):
        sched, ref = kernel_schedule
        read = RING.schedule_from_dict(_ring_doc_of(sched))
        assert set(vars(read)) == {"segments", "n"}
        assert read.throughput == ref.throughput
        assert read.delivered_ids == ref.delivered_ids
        assert _ring_doc_of(read) == _ring_doc_of(ref)
        assert set(vars(read)) == {"segments", "n"}
        assert read.trajectories == ref.trajectories
        assert read == ref and hash(read) == hash(ref)

    def test_pickle_holds_one_form(self, kernel_schedule):
        sched, ref = kernel_schedule
        again = pickle.loads(pickle.dumps(sched))
        assert set(vars(again)) == {"segments", "n"} and again == ref
        sched.trajectories  # the objects are pickled once they exist
        assert set(sched.__getstate__()) == {"trajectories"}
        again = pickle.loads(pickle.dumps(sched))
        assert again.trajectories == ref.trajectories
        assert again.segments == ref.segments and again.n == 32

    def test_object_built_schedules_derive_segments(self):
        rows = (RingTrajectory(4, 0, 2, 3, 5), RingTrajectory(1, 3, 5, 4, 5))
        sched = RingSchedule(rows)
        assert sched.segments == SegmentTable((4, 1), (0, 3), (2, 5), (3, 4))
        assert sched.n == 5
        buffered = BufferedRingTrajectory(9, 1, 0, 2, 5, hop_times=(0, 3))
        assert RingSchedule(rows + (buffered,)).segments is None
        mixed = RingSchedule(rows + (RingTrajectory(9, 1, 0, 2, 6),))
        assert mixed.segments is None and mixed.n == 5
        assert RingSchedule().segments == SegmentTable((), (), (), ())
        assert RingSchedule().n is None

    def test_from_segments_refuses_what_the_objects_refuse(self):
        with pytest.raises(ValueError, match="^trajectory for message 4 crosses no link$"):
            RingSchedule.from_segments(5, SegmentTable((1, 4), (0, 3), (0, 5), (2, 0)))
        with pytest.raises(ValueError, match="^message 1 scheduled twice$"):
            RingSchedule.from_segments(5, SegmentTable((1, 1), (0, 3), (0, 5), (2, 1)))
        with pytest.raises(ValueError, match="^messages 1 and 2 share link 1 at time 1$"):
            RingSchedule.from_segments(5, SegmentTable((1, 2), (0, 1), (0, 1), (3, 1)))
        with pytest.raises(ValueError, match="a ring needs at least 3 nodes"):
            RingSchedule.from_segments(2, SegmentTable((1,), (0,), (0,), (1,)))
        with pytest.raises(ValueError, match="segment table columns differ in length"):
            RingSchedule.from_segments(5, SegmentTable((1, 2), (0, 1), (0,), (3, 1)))
        assert RingSchedule.from_segments(None, SegmentTable((), (), (), ())) == RingSchedule()

    def test_parent_era_pickle_loads(self):
        # An object-built schedule, pickled before RingSchedule kept segments.
        data = Path(__file__).parent / "data"
        old = pickle.loads((data / "ring_schedule_parent.pickle").read_bytes())
        assert set(vars(old)) == {"trajectories", "segments", "n"}
        fresh = ring_bfl(api.parse_instance((data / "v1" / "ring_instance.json").read_text()))
        assert _ring_doc_of(old) == _ring_doc_of(fresh)
        assert old == fresh and old.segments == fresh.segments
