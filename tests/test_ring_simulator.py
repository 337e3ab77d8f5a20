"""Tests for ring simulation on the unified topology-aware simulator."""

import numpy as np
import pytest

from repro.baselines import EDFPolicy, FCFSPolicy, MinLaxityPolicy
from repro.network import simulate
from repro.network.packet import Packet, PacketStatus
from repro.topology.ring import RingInstance, RingMessage
from repro.workloads.rings import random_ring_instance, ring_hotspot


class TestRingPacket:
    """The generic Packet handles modular ring routing via next_node."""

    def test_wrapping_lifecycle(self):
        p = Packet(RingMessage(0, 4, 1, 0, 10, n=5))
        p.status = PacketStatus.IN_NETWORK
        assert p.remaining_hops() == 2
        p.record_hop(0, next_node=(4 + 1) % 5)
        assert p.node == 0  # wrapped
        p.record_hop(1, next_node=1)
        assert p.status is PacketStatus.DELIVERED

    def test_laxity(self):
        p = Packet(RingMessage(0, 0, 3, 0, 6, n=5))
        assert p.laxity(0) == 3
        assert p.can_meet_deadline(3) and not p.can_meet_deadline(4)


class TestRingSimulation:
    def test_single_message_straight(self):
        inst = RingInstance(5, (RingMessage(0, 3, 1, 2, 10, n=5),))
        res = simulate(inst, EDFPolicy())
        assert res.delivered_ids == {0}
        traj = res.schedule.trajectories[0]
        assert traj.depart == 2
        # edges wrap past node 0
        assert [v for v, _ in traj.edges()] == [3, 4, 0]

    def test_contention_forces_buffering_or_drop(self):
        # two packets fight for link 0 at the same moment; slack lets the
        # loser wait one step
        inst = RingInstance(
            4,
            (
                RingMessage(0, 0, 2, 0, 3, n=4),
                RingMessage(1, 0, 2, 0, 3, n=4),
            ),
        )
        res = simulate(inst, EDFPolicy())
        assert res.throughput == 2
        # the loser waits at its source and departs one step later
        departs = sorted(t.depart for t in res.schedule.trajectories)
        assert departs == [0, 1]

    def test_infeasible_dropped(self):
        inst = RingInstance(5, (RingMessage(0, 0, 3, 0, 2, n=5),))
        res = simulate(inst, EDFPolicy())
        assert res.dropped_ids == {0}

    @pytest.mark.parametrize("policy_cls", [EDFPolicy, MinLaxityPolicy, FCFSPolicy])
    def test_valid_schedules_random(self, policy_cls):
        rng = np.random.default_rng(5)
        for _ in range(8):
            inst = random_ring_instance(rng, n=8, k=10)
            res = simulate(inst, policy_cls())
            # RingSchedule construction verifies per-(link, step) capacity
            assert res.delivered_ids | res.dropped_ids == {m.id for m in inst}

    def test_bounded_by_feasible_count(self):
        rng = np.random.default_rng(6)
        inst = random_ring_instance(rng, n=8, k=12)
        res = simulate(inst, MinLaxityPolicy())
        assert res.throughput <= sum(1 for m in inst if m.feasible)

    def test_buffered_policy_can_beat_bufferless_greedy(self):
        """Over many hotspot draws, buffered LLF should at least once beat
        the bufferless exact optimum's *greedy* (sanity that buffers help
        on rings, mirroring Section 4)."""
        rng = np.random.default_rng(7)
        from repro.topology.ring import ring_bfl

        wins = 0
        for _ in range(10):
            inst = ring_hotspot(rng, n=8, k=15, max_slack=3)
            buffered = simulate(inst, MinLaxityPolicy()).throughput
            bufferless = ring_bfl(inst).throughput
            if buffered > bufferless:
                wins += 1
        assert wins >= 1

    def test_buffer_capacity_zero(self):
        rng = np.random.default_rng(8)
        inst = random_ring_instance(rng, n=8, k=12, max_slack=4)
        res = simulate(inst, EDFPolicy(), buffer_capacity=0)
        # with zero intermediate buffering every delivered packet is straight
        for traj in res.schedule.trajectories:
            assert traj.arrive - traj.depart == traj.span

    def test_negative_capacity_rejected(self):
        from repro.network.simulator import LinearNetworkSimulator

        inst = RingInstance(4, ())
        with pytest.raises(ValueError):
            LinearNetworkSimulator(inst, EDFPolicy(), buffer_capacity=-1)

    def test_stats_consistency(self):
        rng = np.random.default_rng(9)
        inst = random_ring_instance(rng, n=8, k=10)
        res = simulate(inst, EDFPolicy())
        assert res.stats.delivered == res.throughput
        assert res.stats.delivered + res.stats.dropped == len(inst)

