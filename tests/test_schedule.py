"""Unit tests for Schedule."""

import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import parse_instance
from repro.core.bfl import bfl
from repro.core.bfl_fast import bfl_fast
from repro.core.schedule import (
    ConflictError,
    Schedule,
    SegmentTable,
    TrajectoryTable,
    _disjoint_segments,
)
from repro.core.trajectory import Trajectory
from repro.io import schedule_from_dict, schedule_to_dict
from repro.topology.ring import RingSchedule, RingTrajectory
from repro.workloads import general_instance

from .ring_oracle import reference_slot_check


def straight(mid, source, depart, span):
    return Trajectory(mid, source, tuple(range(depart, depart + span)))


class TestConstruction:
    def test_empty(self):
        s = Schedule()
        assert s.throughput == 0 and len(s) == 0
        assert s.bufferless

    def test_detects_edge_conflict(self):
        a = straight(0, 0, 0, 4)  # edges (0,0),(1,1),(2,2),(3,3)
        b = straight(1, 2, 2, 3)  # edges (2,2),(3,3),(4,4)
        with pytest.raises(ConflictError) as exc:
            Schedule((a, b))
        assert exc.value.edge == (2, 2)

    def test_allows_shared_endpoint(self):
        # a arrives at node 3 at time 3; b departs node 3 at time 3
        a = straight(0, 0, 0, 3)
        b = straight(1, 3, 3, 2)
        s = Schedule((a, b))
        assert s.throughput == 2

    def test_allows_parallel_lines(self):
        a = straight(0, 0, 0, 4)
        b = straight(1, 0, 1, 4)
        assert Schedule((a, b)).throughput == 2

    def test_rejects_duplicate_message(self):
        with pytest.raises(ValueError, match="twice"):
            Schedule((straight(0, 0, 0, 2), straight(0, 5, 9, 2)))

    def test_riser_sharing_is_legal(self):
        # both wait inside node 2's buffer over the same steps
        a = Trajectory(0, 1, (0, 5))
        b = Trajectory(1, 1, (1, 6))
        s = Schedule((a, b))
        assert s.total_wait == 8


class TestAccessors:
    def test_membership_and_lookup(self):
        s = Schedule((straight(3, 0, 0, 2),))
        assert 3 in s and 4 not in s
        assert s[3].depart == 0
        with pytest.raises(KeyError):
            s[4]

    def test_delivered_ids(self):
        s = Schedule((straight(1, 0, 0, 2), straight(2, 4, 0, 2)))
        assert s.delivered_ids == frozenset({1, 2})

    def test_edge_owner(self):
        s = Schedule((straight(1, 0, 5, 2),))
        assert s.edge_owner() == {(0, 5): 1, (1, 6): 1}

    def test_delivery_lines(self):
        s = Schedule((straight(1, 0, 0, 3),))  # final hop crosses (2,3) at t=2
        assert s.delivery_lines() == {1: 0}

    def test_bufferless_flag(self):
        assert Schedule((straight(0, 0, 0, 3),)).bufferless
        assert not Schedule((Trajectory(0, 0, (0, 4)),)).bufferless


class TestTransforms:
    def test_extended_with_revalidates(self):
        s = Schedule((straight(0, 0, 0, 4),))
        with pytest.raises(ConflictError):
            s.extended_with(straight(1, 2, 2, 3))
        s2 = s.extended_with(straight(1, 0, 1, 4))
        assert s2.throughput == 2

    def test_without(self):
        s = Schedule((straight(0, 0, 0, 2), straight(1, 4, 0, 2)))
        assert s.without(0).delivered_ids == frozenset({1})

    def test_merged_with(self):
        a = Schedule((straight(0, 0, 0, 2),))
        b = Schedule((straight(1, 4, 0, 2),))
        assert a.merged_with(b).throughput == 2

    def test_translated(self):
        s = Schedule((straight(0, 0, 0, 2),)).translated(dnode=2, dtime=3)
        assert s[0].source == 2 and s[0].depart == 3


class TestBufferOccupancy:
    def test_no_buffering(self):
        s = Schedule((straight(0, 0, 0, 4),))
        assert s.max_buffer_occupancy() == {}

    def test_peak_occupancy(self):
        # three messages all wait in node 1's buffer with overlapping stays
        a = Trajectory(0, 0, (0, 10))  # in buffer of node 1 during [1, 10)
        b = Trajectory(1, 0, (1, 11))  # [2, 11)
        c = Trajectory(2, 0, (2, 12))  # [3, 12)
        s = Schedule((a, b, c))
        assert s.max_buffer_occupancy() == {1: 3}

    def test_disjoint_stays_do_not_stack(self):
        a = Trajectory(0, 0, (0, 3))  # node 1 during [1, 3)
        b = Trajectory(1, 0, (4, 8))  # node 1 during [5, 8)
        assert Schedule((a, b)).max_buffer_occupancy() == {1: 1}


def reference_owner(trajectories):
    """The eager per-edge check ``Schedule`` ran on every construction
    before the bulk check: the oracle for which sets are accepted and
    for the exact error a rejected set raises."""
    owner = {}
    ids = set()
    for traj in trajectories:
        if traj.message_id in ids:
            raise ValueError(f"message {traj.message_id} scheduled twice")
        ids.add(traj.message_id)
        for edge in traj.diagonal_edges():
            if edge in owner:
                raise ConflictError(edge, owner[edge], traj.message_id)
            owner[edge] = traj.message_id
    return owner


@st.composite
def trajectory_sets(draw):
    """Random trajectories on a small lattice, so shared edges occur, plus
    injected duplicate ids and injected copies of another's edge."""
    out = []
    for i in range(draw(st.integers(0, 7))):
        source = draw(st.integers(0, 5))
        depart = draw(st.integers(0, 6))
        waits = draw(st.lists(st.integers(0, 2), min_size=0, max_size=4))
        crossings, t = [depart], depart
        for w in waits:
            t += 1 + w
            crossings.append(t)
        out.append(Trajectory(i, source, tuple(crossings)))
    for _ in range(draw(st.integers(0, 2))):
        if not out:
            break
        victim = draw(st.sampled_from(out))
        kind = draw(st.sampled_from(["dup_id", "shared_edge"]))
        if kind == "dup_id":
            clone = Trajectory(
                victim.message_id, draw(st.integers(0, 5)), (draw(st.integers(0, 9)),)
            )
        else:
            j = draw(st.integers(0, len(victim.crossings) - 1))
            clone = Trajectory(
                100 + len(out), victim.source + j, (victim.crossings[j],)
            )
        out.insert(draw(st.integers(0, len(out))), clone)
    return out


@st.composite
def table_rows(draw):
    """Arbitrary ``(message_id, source, crossings)`` rows on a small
    lattice: bufferless runs (often on one scan line, overlapping or only
    touching), buffered and non-increasing crossings, empty rows and
    repeated ids."""
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        mid = draw(st.integers(0, 9))
        source = draw(st.integers(0, 6))
        kind = draw(st.sampled_from(["run", "run", "run", "buffered", "any", "empty"]))
        if kind == "run":
            depart = draw(st.integers(0, 5))
            crossings = tuple(range(depart, depart + draw(st.integers(1, 4))))
        elif kind == "buffered":
            crossings = tuple(
                sorted(draw(st.sets(st.integers(0, 9), min_size=2, max_size=4)))
            )
        elif kind == "any":
            crossings = tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)))
        else:
            crossings = ()
        rows.append((mid, source, crossings))
    if rows and draw(st.booleans()):
        # a segment that starts where another ends, on the same scan line
        mid, source, crossings = draw(st.sampled_from(rows))
        if crossings:
            end = source + len(crossings)
            depart = crossings[0] + len(crossings)
            rows.append((100 + len(rows), end, (depart, depart + 1)))
    return rows


def _valid_trajectories(rows):
    """The rows that make a valid ``Trajectory`` (non-empty, increasing)."""
    return [
        Trajectory(*row)
        for row in rows
        if row[2] and all(a < b for a, b in zip(row[2], row[2][1:]))
    ]


class TestBulkCheck:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(trajectory_sets(), table_rows().map(_valid_trajectories)))
    def test_accepts_and_raises_exactly_as_reference(self, trajectories):
        try:
            expected = reference_owner(trajectories)
        except ValueError as ref_exc:
            with pytest.raises(type(ref_exc)) as exc_info:
                Schedule(tuple(trajectories))
            got = exc_info.value
            assert type(got) is type(ref_exc)
            assert str(got) == str(ref_exc)
            if isinstance(ref_exc, ConflictError):
                assert (got.edge, got.first, got.second) == (
                    ref_exc.edge,
                    ref_exc.first,
                    ref_exc.second,
                )
        else:
            s = Schedule(tuple(trajectories))
            assert s.edge_owner() == expected


#: ``pickle.dumps(Schedule(...), protocol=4)`` as written by releases that
#: kept an eager ``_edge_owner`` map in the instance state.
EAGER_OWNER_PICKLE = (
    b"\x80\x04\x95\xbc\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.core.schedule"
    b"\x94\x8c\x08Schedule\x94\x93\x94)\x81\x94}\x94(\x8c\x0ctrajectories\x94"
    b"\x8c\x15repro.core.trajectory\x94\x8c\nTrajectory\x94\x93\x94)\x81\x94]"
    b"\x94(K\x01K\x00K\x05K\x06\x86\x94ebh\x08)\x81\x94]\x94(K\x02K\x01K\x00K"
    b"\x03\x86\x94eb\x86\x94\x8c\x0b_edge_owner\x94}\x94(K\x00K\x05\x86\x94K"
    b"\x01K\x01K\x06\x86\x94K\x01K\x01K\x00\x86\x94K\x02K\x02K\x03\x86\x94K"
    b"\x02uub."
)


class TestNoEagerEdgeMap:
    def test_no_edge_map_in_instance_state(self):
        s = Schedule((straight(1, 0, 5, 2), straight(2, 1, 0, 3)))
        assert "_edge_owner" not in vars(s)
        assert set(vars(s)) == {"trajectories"}

    def test_edge_owner_is_a_fresh_map(self):
        s = Schedule((straight(1, 0, 5, 2),))
        owner = s.edge_owner()
        owner[(9, 9)] = 7
        assert s.edge_owner() == {(0, 5): 1, (1, 6): 1}

    def test_roundtrip_pickle(self):
        s = Schedule((straight(1, 0, 5, 2), Trajectory(2, 1, (0, 3))))
        back = pickle.loads(pickle.dumps(s))
        assert back == s and "_edge_owner" not in vars(back)

    def test_pickle_with_eager_edge_map_loads(self):
        loaded = pickle.loads(EAGER_OWNER_PICKLE)
        expected = Schedule((Trajectory(1, 0, (5, 6)), Trajectory(2, 1, (0, 3))))
        assert loaded == expected
        assert "_edge_owner" not in vars(loaded)
        assert loaded.edge_owner() == {(0, 5): 1, (1, 6): 1, (1, 0): 2, (2, 3): 2}


# ---------------------------------------------------------------------- #
# The trajectory table: Schedule.from_table against the object-built path
# ---------------------------------------------------------------------- #


def _outcome(build):
    try:
        return build(), None
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return None, exc


def _object_built(rows):
    return Schedule(tuple(Trajectory(*row) for row in rows))


def _table(rows):
    if not rows:
        return TrajectoryTable((), (), ())
    ids, sources, crossings = zip(*rows)
    return TrajectoryTable(ids, sources, crossings)


class TestFromTable:
    @settings(max_examples=600, deadline=None)
    @given(table_rows())
    def test_matches_object_built(self, rows):
        expected, ref_exc = _outcome(lambda: _object_built(rows))
        got, exc = _outcome(lambda: Schedule.from_table(_table(rows)))
        if ref_exc is not None:
            assert type(exc) is type(ref_exc)
            assert str(exc) == str(ref_exc)
            return
        assert exc is None
        if expected.bufferless:  # kept as columns until read
            assert "trajectories" not in vars(got)
        assert got == expected and hash(got) == hash(expected)
        assert got.trajectories == expected.trajectories
        assert got.table == expected.table == _table(rows)

    def test_touching_segments_are_legal(self):
        # (0, 0..3) ends at node 3 at time 3, where (1, 3..5) departs: the
        # same scan line, no shared edge.
        table = TrajectoryTable((0, 1), (0, 3), ((0, 1, 2), (3, 4)))
        s = Schedule.from_table(table)
        assert len(s) == s.throughput == 2 and "trajectories" not in vars(s)

    def test_overlap_on_one_line_raises_the_first_conflict(self):
        table = TrajectoryTable((0, 1), (0, 2), ((0, 1, 2, 3), (2, 3, 4)))
        with pytest.raises(ConflictError) as exc:
            Schedule.from_table(table)
        assert (exc.value.edge, exc.value.first, exc.value.second) == ((2, 2), 0, 1)

    @pytest.mark.parametrize(
        "crossings, match",
        [(((0, 1), ()), "crosses no link"), (((0, 1), (3, 3)), "not strictly increasing")],
    )
    def test_bad_rows_raise_trajectory_errors(self, crossings, match):
        with pytest.raises(ValueError, match=match):
            Schedule.from_table(TrajectoryTable((0, 1), (0, 4), crossings))

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="message 3 scheduled twice"):
            Schedule.from_table(TrajectoryTable((3, 3), (0, 4), ((0,), (0,))))

    def test_mixed_schedule_is_object_backed(self):
        table = TrajectoryTable((0, 1), (0, 1), ((0, 1), (0, 4)))
        s = Schedule.from_table(table)
        assert "trajectories" in vars(s) and s.total_wait == 3

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            Schedule.from_table(TrajectoryTable((0, 1), (0,), ((0,), (1,))))


@pytest.fixture
def twins():
    rows = [(4, 0, (2, 3, 4)), (1, 3, (5, 6)), (9, 1, (0,))]
    return Schedule.from_table(_table(rows)), _object_built(rows)


class TestTableBackedSchedule:
    def test_reads_columns_only(self, twins):
        built, twin = twins
        assert len(built) == built.throughput == 3
        assert built.delivered_ids == twin.delivered_ids == frozenset({1, 4, 9})
        assert 4 in built and 5 not in built
        assert set(vars(built)) == {"_segments", "_table"}

    def test_equality_and_hash(self, twins):
        built, twin = twins
        assert built == twin and hash(built) == hash(twin)
        assert repr(built) == repr(twin)
        assert built.trajectories == twin.trajectories
        assert built.table == twin.table

    def test_pickle_round_trip(self, twins):
        built, twin = twins
        again = pickle.loads(pickle.dumps(built))
        assert set(vars(again)) == {"_segments"}
        assert again == twin and hash(again) == hash(twin)

    def test_pickle_holds_one_form(self, twins):
        built, twin = twins
        built.trajectories  # build the objects
        assert set(vars(pickle.loads(pickle.dumps(built)))) == {"trajectories"}
        twin.table  # derive the columns
        assert set(vars(pickle.loads(pickle.dumps(twin)))) == {"trajectories"}

    def test_dataclasses_replace(self, twins):
        built, twin = twins
        assert dataclasses.replace(built) == twin
        empty = dataclasses.replace(built, trajectories=())
        assert empty == Schedule() and len(empty) == 0
        assert "trajectories" not in vars(Schedule.from_table(built.table))

    def test_parent_era_pickle_loads(self):
        # Pickled before schedules carried a trajectory table.
        path = Path(__file__).parent / "data" / "schedule_parent.pickle"
        mixed, empty = pickle.loads(path.read_bytes())
        assert mixed == Schedule(
            (
                Trajectory(1, 0, (5, 6)),
                Trajectory(2, 1, (0, 3)),
                Trajectory(7, 2, (2, 3, 4)),
            )
        )
        assert mixed.table.crossings == ((5, 6), (0, 3), (2, 3, 4))
        assert mixed.delivered_ids == frozenset({1, 2, 7}) and mixed.total_wait == 2
        assert empty == Schedule() and len(empty) == 0
        assert "_edge_owner" not in vars(pickle.loads(EAGER_OWNER_PICKLE))

    def test_served_bfl_builds_no_trajectory(self, monkeypatch):
        inst = general_instance(np.random.default_rng(3), n=16, k=40)
        expected = bfl(inst)
        built = []
        original = Trajectory.__post_init__

        def counting(self):
            built.append(self.message_id)
            original(self)

        monkeypatch.setattr(Trajectory, "__post_init__", counting)
        sent = api.solve(inst, "bufferless", "bfl").to_dict()
        result = api.ScheduleResult.from_dict(json.loads(json.dumps(sent)))
        assert result.to_dict() == sent
        assert result.delivered == len(expected)
        assert built == []
        monkeypatch.undo()
        assert result.schedule == expected


# ---------------------------------------------------------------------- #
# Segment-backed schedules: the BFL kernel and version-3 documents
# ---------------------------------------------------------------------- #


@pytest.fixture
def segment_read():
    """A served-size BFL schedule read back from its version-3 document,
    and the reference BFL's object-built twin."""
    inst = general_instance(np.random.default_rng(3), n=16, k=40)
    doc = json.loads(json.dumps(api.solve(inst, "bufferless", "bfl").to_dict()))
    assert doc["schedule"]["version"] == 3
    return schedule_from_dict(doc["schedule"]), bfl(inst)


class TestSegmentBackedSchedule:
    def test_reads_segments_only(self, segment_read):
        sched, ref = segment_read
        assert len(sched) == sched.throughput == len(ref)
        assert sched.delivered_ids == ref.delivered_ids
        assert sched.bufferless and sched.total_wait == 0
        doc = schedule_to_dict(sched)
        # neither Trajectory objects nor crossing tuples were built
        assert set(vars(sched)) == {"_segments"}
        assert doc == schedule_to_dict(ref)

    def test_crossings_and_objects_on_demand(self, segment_read):
        sched, ref = segment_read
        assert sched.table == ref.table
        assert set(vars(sched)) == {"_segments", "_table"}
        assert sched.trajectories == ref.trajectories
        assert sched == ref and hash(sched) == hash(ref)

    def test_pickle_round_trip(self, segment_read):
        sched, ref = segment_read
        sched.table  # a derived form is not pickled
        again = pickle.loads(pickle.dumps(sched))
        assert set(vars(again)) == {"_segments"}
        assert again.trajectories == ref.trajectories
        sched.trajectories
        again = pickle.loads(pickle.dumps(sched))
        assert set(vars(again)) == {"trajectories"}
        assert again.trajectories == ref.trajectories

    def test_kernel_returns_segments_only(self):
        inst = general_instance(np.random.default_rng(8), n=32, k=200)
        sched = bfl_fast(inst)
        assert set(vars(sched)) == {"_segments"}
        assert sched.segments == SegmentTable.of(bfl(inst).table)

    def test_object_built_schedules_derive_segments(self):
        rows = (Trajectory(4, 0, (2, 3, 4)), Trajectory(1, 3, (5, 6)))
        assert Schedule(rows).segments == SegmentTable((4, 1), (0, 3), (2, 5), (3, 2))
        assert Schedule(rows + (Trajectory(9, 5, (0, 2)),)).segments is None
        assert Schedule().segments == SegmentTable((), (), (), ())

    def test_from_segments_refuses_what_the_objects_refuse(self):
        with pytest.raises(ValueError, match="message 4 crosses no link"):
            Schedule.from_segments(SegmentTable((1, 4), (0, 3), (0, 5), (2, 0)))
        with pytest.raises(ValueError, match="message 1 scheduled twice"):
            Schedule.from_segments(SegmentTable((1, 1), (0, 3), (0, 5), (2, 1)))
        with pytest.raises(ConflictError):
            Schedule.from_segments(SegmentTable((1, 2), (0, 1), (0, 1), (3, 1)))
        with pytest.raises(ValueError, match="segment table columns differ in length"):
            Schedule.from_segments(SegmentTable((1, 2), (0, 1), (0,), (3, 1)))

    def test_table_era_pickle_loads(self):
        # Pickled when a bufferless schedule was kept as its crossings table.
        path = Path(__file__).parent / "data" / "schedule_table_parent.pickle"
        old = pickle.loads(path.read_bytes())
        assert set(vars(old)) == {"_segments", "_table"}
        v1 = Path(__file__).parent / "data" / "v1"
        inst = parse_instance((v1 / "instance.json").read_text())
        fresh = bfl_fast(inst)
        assert schedule_to_dict(old) == schedule_to_dict(fresh)
        assert old == fresh and old.table == fresh.table


# ---------------------------------------------------------------------- #
# one scan-line check for line and ring schedules
# ---------------------------------------------------------------------- #


@st.composite
def segment_tables(draw, ring=None):
    """``(n, segments)``: a table on a line (``n`` None) or on a ring of
    3..6 nodes, crowded onto a few scan lines, so repeated ids,
    overlapping and touching segments, wrapping spans and empty or
    negative hop counts all occur."""
    if ring is None:
        ring = draw(st.booleans())
    n = draw(st.integers(3, 6)) if ring else None
    k = draw(st.integers(0, 7))

    def column(values):
        return draw(st.lists(values, min_size=k, max_size=k))

    ids = column(st.integers(0, 6))
    sources = column(st.integers(0, (n or 6) - 1))
    departs = column(st.integers(0, 8))
    hops = column(st.integers(1, (n or 4) + 1))
    if k and draw(st.integers(0, 5)) == 0:
        hops[draw(st.integers(0, k - 1))] = draw(st.sampled_from([0, -2]))
    return n, SegmentTable(*map(tuple, (ids, sources, departs, hops)))


def _ring_rows(n, segments):
    return tuple(map(RingTrajectory, *segments, [n] * len(segments.message_id)))


class TestOneScanLineCheck:
    """``_disjoint_segments`` is the bulk check of line and ring schedules:
    it accepts exactly what the slot loops accept (``reference_owner`` on
    the line, ``tests/ring_oracle.py``'s on the ring), and a table it
    refuses raises the loop's error."""

    @settings(max_examples=600, deadline=None)
    @given(segment_tables())
    def test_accepts_and_rejects_as_the_slot_loops(self, drawn):
        n, segments = drawn
        if n is None:
            _, want = _outcome(lambda: reference_owner(segments.to_trajectories()))
            _, got = _outcome(lambda: Schedule.from_segments(segments))
        else:
            _, want = _outcome(lambda: reference_slot_check(_ring_rows(n, segments)))
            _, got = _outcome(lambda: RingSchedule.from_segments(n, segments))
        assert _disjoint_segments(segments, n) == (want is None)
        assert (type(got), str(got)) == (type(want), str(want))

    @settings(max_examples=300, deadline=None)
    @given(
        segment_tables(ring=True),
        st.sampled_from(["source", "depart", "span", "n"]),
        st.sampled_from([0.0, 0.5]),
    )
    def test_object_rows_with_a_float_field(self, drawn, field, fraction):
        # the rows reach the slot loop, which rejects a fractional span
        n, segments = drawn
        rows = [row for row in zip(*segments) if row[3] >= 1]
        if not rows:
            return
        rows = list(_ring_rows(n, SegmentTable(*zip(*rows))))
        rows[0] = dataclasses.replace(rows[0], **{field: getattr(rows[0], field) + fraction})
        _, want = _outcome(lambda: reference_slot_check(rows))
        _, got = _outcome(lambda: RingSchedule(tuple(rows)))
        assert (type(got), str(got)) == (type(want), str(want))
