"""Property-based tests for the ring, mesh, and serialization extensions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.ring import ring_bfl
from repro.io import instance_from_dict, instance_to_dict, schedule_from_dict, schedule_to_dict
from repro.core.bfl import bfl
from repro.topology.mesh import MeshInstance, MeshMessage, xy_schedule
from repro.topology.mesh import _feasible, mesh_schedule_problems
from repro.topology.ring import RingInstance, RingMessage, validate_ring_schedule

from .conftest import lr_instances


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #


@st.composite
def ring_instances(draw, *, n: int = 8, max_messages: int = 8):
    k = draw(st.integers(0, max_messages))
    msgs = []
    for i in range(k):
        s = draw(st.integers(0, n - 1))
        span = draw(st.integers(1, n - 1))
        r = draw(st.integers(0, 8))
        slack = draw(st.integers(0, 6))
        msgs.append(RingMessage(i, s, (s + span) % n, r, r + span + slack, n))
    return RingInstance(n, tuple(msgs))


@st.composite
def mesh_instances(draw, *, rows: int = 4, cols: int = 5, max_messages: int = 8):
    k = draw(st.integers(0, max_messages))
    msgs = []
    for i in range(k):
        src = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
        dst = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
        if src == dst:
            dst = ((src[0] + 1) % rows, src[1])
        span = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        r = draw(st.integers(0, 6))
        slack = draw(st.integers(0, 6))
        msgs.append(MeshMessage(i, src, dst, r, r + span + slack))
    return MeshInstance(rows, cols, tuple(msgs))


# --------------------------------------------------------------------- #
# ring properties
# --------------------------------------------------------------------- #


class TestRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(ring_instances())
    def test_ring_bfl_always_valid(self, inst: RingInstance):
        sched = ring_bfl(inst)
        validate_ring_schedule(inst, sched)

    @settings(max_examples=60, deadline=None)
    @given(ring_instances())
    def test_ring_bfl_deterministic(self, inst: RingInstance):
        assert ring_bfl(inst).delivered_ids == ring_bfl(inst).delivered_ids

    @settings(max_examples=60, deadline=None)
    @given(ring_instances())
    def test_ring_helix_consistency(self, inst: RingInstance):
        """Every scheduled trajectory's helix matches its message's formula."""
        for traj in ring_bfl(inst).trajectories:
            m = inst[traj.message_id]
            assert traj.helix == m.helix(traj.depart)
            assert m.release <= traj.depart <= m.latest_departure


# --------------------------------------------------------------------- #
# mesh properties
# --------------------------------------------------------------------- #


class TestMeshProperties:
    @settings(max_examples=50, deadline=None)
    @given(mesh_instances(), st.integers(0, 2))
    def test_xy_schedule_always_valid(self, inst: MeshInstance, conv: int):
        sched = xy_schedule(inst, conversion_delay=conv)
        assert mesh_schedule_problems(inst, sched, conversion_delay=conv) == []

    @settings(max_examples=50, deadline=None)
    @given(mesh_instances())
    def test_costly_turns_deliver_only_free_turn_feasible(self, inst: MeshInstance):
        """Conversion cost only shrinks the set of messages that can make it."""
        delivered = xy_schedule(inst, conversion_delay=3).delivered_ids
        assert delivered <= {m.id for m in _feasible(inst, 0)}

    def test_conversion_delay_not_monotone(self):
        """Throughput can rise with the delay: at delay 0 the column leg of
        message 3 takes edge 1->0 of column 2 at t=7, which message 0 needs
        in the same step; any delay moves it clear."""
        inst = MeshInstance(
            4,
            5,
            (
                MeshMessage(0, (2, 2), (0, 2), 6, 8),
                MeshMessage(1, (0, 0), (1, 0), 0, 1),
                MeshMessage(2, (0, 0), (1, 0), 0, 1),
                MeshMessage(3, (1, 0), (0, 2), 5, 11),
            ),
        )
        assert xy_schedule(inst, conversion_delay=0).throughput == 2
        assert xy_schedule(inst, conversion_delay=1).throughput == 3

    @settings(max_examples=50, deadline=None)
    @given(mesh_instances())
    def test_turn_waits_nonnegative_and_consistent(self, inst: MeshInstance):
        sched = xy_schedule(inst, conversion_delay=1)
        for traj in sched.trajectories:
            assert traj.turn_wait >= 0
            if traj.row_leg is not None and traj.col_leg is not None:
                assert traj.col_leg.depart - traj.row_leg.arrive == traj.turn_wait


# --------------------------------------------------------------------- #
# serialization properties
# --------------------------------------------------------------------- #


class TestSerializationProperties:
    @settings(max_examples=60, deadline=None)
    @given(lr_instances())
    def test_instance_roundtrip(self, inst):
        assert instance_from_dict(instance_to_dict(inst)) == inst

    @settings(max_examples=60, deadline=None)
    @given(lr_instances())
    def test_schedule_roundtrip_preserves_lines(self, inst):
        sched = bfl(inst)
        again = schedule_from_dict(schedule_to_dict(sched))
        assert again.delivery_lines() == sched.delivery_lines()
