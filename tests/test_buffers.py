"""The bounded-buffer model dimension, end to end.

Covers the ``repro.buffers`` vocabulary (capacity checks, admission
policies, :class:`BoundedBuffer` properties), the ``None`` ==
byte-identical-to-history guarantee across every serialization layer,
the v5 ``buffers`` provenance block, the ``method="ca"`` family through
the facade *and* a live HTTP server.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro import api
from repro.approx import ca_schedule
from repro.baselines import EDFPolicy
from repro.buffers import (
    ADMISSION_POLICIES,
    BoundedBuffer,
    DEFAULT_ADMISSION,
    admission_victim,
    check_admission,
    check_capacity,
)
from repro.core.instance import Instance, make_instance
from repro.core.validate import schedule_problems, validate_schedule
from repro.io import instance_from_dict, instance_to_dict
from repro.network.simulator import simulate
from repro.trace.format import WorkloadTrace, read_trace, write_trace
from repro.workloads import general_instance, saturated_instance


def _rand_inst(seed=0, n=10, k=8):
    return general_instance(np.random.default_rng(seed), n=n, k=k)


@pytest.fixture
def inst():
    return _rand_inst()


# --------------------------------------------------------------------- #
# The vocabulary module
# --------------------------------------------------------------------- #


class Item:
    def __init__(self, id, deadline, crossings=(1,)):
        self.id = id
        self.deadline = deadline
        self.crossings = crossings

    def __repr__(self):
        return f"Item({self.id}, dl={self.deadline})"


class TestVocabulary:
    def test_check_capacity(self):
        assert check_capacity(None) is None
        assert check_capacity(0) == 0
        assert check_capacity(7) == 7
        with pytest.raises(ValueError):
            check_capacity(-1)
        with pytest.raises(ValueError):
            check_capacity(True)  # bools are not capacities
        with pytest.raises(ValueError):
            check_capacity(2.0)

    def test_check_admission(self):
        for name in ADMISSION_POLICIES:
            assert check_admission(name) == name
        with pytest.raises(ValueError, match="unknown admission"):
            check_admission("drop-oldest")

    def test_drop_new_always_rejects_arrival(self):
        buf = [Item(1, 5), Item(2, 9)]
        inc = Item(3, 1)
        assert admission_victim(buf, inc, "drop-new") is inc

    def test_farthest_deadline_contest(self):
        buf = [Item(1, 5), Item(2, 9)]
        assert admission_victim(buf, Item(3, 1), "drop-farthest-deadline") is buf[1]
        # the arrival loses when it is the least urgent
        inc = Item(3, 99)
        assert admission_victim(buf, inc, "drop-farthest-deadline") is inc

    def test_source_packets_are_never_evicted(self):
        # crossings == () marks a packet still at its own source
        src = Item(1, 99, crossings=())
        inc = Item(2, 1)
        assert admission_victim([src], inc, "drop-farthest-deadline") is inc

    def test_evict_lowest_priority_needs_a_key(self):
        with pytest.raises(ValueError, match="priority key"):
            admission_victim([Item(1, 5)], Item(2, 1), "evict-lowest-priority")
        loser = admission_victim(
            [Item(1, 5)], Item(2, 1), "evict-lowest-priority", lambda p: (p.deadline, p.id)
        )
        assert loser.id == 1


class TestBoundedBuffer:
    def test_fifo_order(self):
        buf = BoundedBuffer(3)
        for i in range(3):
            assert buf.offer(Item(i, i)) is None
        assert [buf.extract().id for _ in range(3)] == [0, 1, 2]

    def test_unbounded_never_full(self):
        buf = BoundedBuffer(None)
        for i in range(100):
            assert buf.offer(Item(i, i)) is None
        assert not buf.is_full() and len(buf) == 100

    def test_eviction_counts(self):
        buf = BoundedBuffer(1, admission="drop-farthest-deadline")
        assert buf.offer(Item(1, 9)) is None
        loser = buf.offer(Item(2, 1))  # more urgent: displaces item 1
        assert loser.id == 1 and buf.evicted == 1 and buf.rejected == 0
        loser = buf.offer(Item(3, 99))  # least urgent: bounces
        assert loser.id == 3 and buf.rejected == 1

    def test_append_extract_plain_fifo(self):
        buf = BoundedBuffer(1)
        assert buf.append("a") is True
        assert buf.append("b") is False
        assert buf.extract() == "a"
        with pytest.raises(IndexError):
            buf.extract()

    @pytest.mark.parametrize("admission", ADMISSION_POLICIES)
    def test_retained_set_is_monotone_in_capacity(self, admission):
        # property: whatever a capacity-c buffer retains after any offer
        # sequence is at most what a capacity-(c+1) buffer retains, and
        # every buffer's content is a subset of the offered items
        rng = random.Random(42)
        for trial in range(50):
            items = [Item(i, rng.randint(0, 20)) for i in range(rng.randint(0, 12))]
            sizes = []
            for cap in (0, 1, 2, 3, None):
                buf = BoundedBuffer(cap, admission=admission)
                for it in items:
                    buf.offer(it)
                ids = {it.id for it in buf}
                assert ids <= {it.id for it in items}
                assert buf.rejected + buf.evicted + len(buf) == len(items)
                sizes.append(len(buf))
            assert sizes == sorted(sizes), f"trial={trial} {admission}"


# --------------------------------------------------------------------- #
# None == byte-identical: the unbounded corpus must not notice this PR
# --------------------------------------------------------------------- #


class TestNoneIsInvisible:
    def test_instance_document_has_no_capacity_key(self, inst):
        doc = instance_to_dict(inst)
        assert "buffer_capacity" not in doc
        assert instance_to_dict(inst.with_buffer_capacity(None)) == doc
        bounded = instance_to_dict(inst.with_buffer_capacity(2))
        assert bounded["buffer_capacity"] == 2
        assert instance_from_dict(bounded).buffer_capacity == 2

    def test_content_hash_unchanged_for_unbounded(self, inst):
        assert inst.content_hash == inst.with_buffer_capacity(None).content_hash
        assert inst.content_hash != inst.with_buffer_capacity(2).content_hash

    def test_canonical_form_tags_capacity(self, inst):
        assert ("buffer_capacity", 2) in inst.with_buffer_capacity(2).canonical_form()
        assert ("buffer_capacity", 2) not in inst.canonical_form()

    def test_transformations_preserve_capacity(self, inst):
        capped = inst.with_buffer_capacity(3)
        assert capped.mirrored().buffer_capacity == 3
        assert capped.restrict(m.id for m in capped).buffer_capacity == 3
        assert capped.filter(lambda m: True).buffer_capacity == 3
        assert capped.translated(0, 1).buffer_capacity == 3

    def test_trace_roundtrip_carries_capacity(self, tmp_path, inst):
        capped = inst.with_buffer_capacity(2)
        trace = WorkloadTrace.from_instance(capped, trace_id="tr-cap")
        assert trace.buffer_capacity == 2
        path = tmp_path / "cap.jsonl"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.buffer_capacity == 2
        rebuilt = back.to_instance()
        assert rebuilt.buffer_capacity == 2
        # record order is the trace's (release-sorted); compare canonically
        assert rebuilt.canonical_form() == capped.canonical_form()

    def test_unbounded_trace_header_is_legacy_shaped(self, tmp_path, inst):
        path = tmp_path / "plain.jsonl"
        write_trace(path, WorkloadTrace.from_instance(inst, trace_id="tr-plain"))
        head = json.loads(path.read_text().splitlines()[0])
        assert "buffer_capacity" not in head

    def test_facade_payload_unchanged_when_unbounded(self, inst):
        payload = api.solve(inst, "buffered", "greedy", policy="edf").to_dict()
        # the block is omitted entirely for the unbounded model
        assert "buffers" not in payload
        # from_dict of a v4-era document (no buffers key) still parses
        payload.pop("buffers", None)
        payload["version"] = 4
        assert api.ScheduleResult.from_dict(payload).buffers is None


# --------------------------------------------------------------------- #
# Simulator enforcement + validation
# --------------------------------------------------------------------- #


class TestSimulatorEnforcement:
    def test_overflow_drops_are_attributed(self):
        inst = saturated_instance(
            np.random.default_rng(5), n=12, load=2.0, horizon=15
        ).with_buffer_capacity(0)
        res = simulate(inst, EDFPolicy())
        assert res.stats.buffer_overflow_drops > 0
        assert any(why == "buffer_full" for _, _, why in res.drop_events)

    @pytest.mark.parametrize("admission", ADMISSION_POLICIES)
    def test_bounded_output_validates_against_capacity(self, admission):
        for seed in range(8):
            inst = _rand_inst(seed, n=12, k=14).with_buffer_capacity(1)
            res = simulate(inst, EDFPolicy(), admission=admission)
            # the enforced capacity is also respected by the surviving
            # schedule — the validator defaults to instance.buffer_capacity
            assert schedule_problems(inst, res.schedule) == []

    def test_validator_flags_overflowing_schedule(self):
        from repro.core.schedule import Schedule
        from repro.core.trajectory import Trajectory

        inst = make_instance(4, [(0, 2, 0, 9)])
        # crosses link 0 at t=1, waits at node 1 through t=2, crosses at t=3
        waiting = Schedule((Trajectory(0, 0, (1, 3)),))
        assert schedule_problems(inst, waiting) == []
        problems = schedule_problems(inst.with_buffer_capacity(0), waiting)
        assert any("exceeds capacity" in p for p in problems)

    def test_huge_capacity_equals_unbounded(self):
        # capacity >= number of messages can never bind
        for seed in range(6):
            inst = _rand_inst(seed, n=10, k=10)
            free = simulate(inst, EDFPolicy())
            capped = simulate(inst.with_buffer_capacity(len(inst)), EDFPolicy())
            assert free.schedule == capped.schedule
            assert free.delivered_ids == capped.delivered_ids

    def test_unknown_admission_rejected(self, inst):
        with pytest.raises(ValueError, match="unknown admission"):
            simulate(inst, EDFPolicy(), buffer_capacity=1, admission="nope")


# --------------------------------------------------------------------- #
# The ca solver family
# --------------------------------------------------------------------- #


class TestCASolver:
    def test_schedules_validate_by_construction(self):
        for seed in range(10):
            inst = _rand_inst(seed, n=12, k=14)
            for cap in (0, 1, 2, None):
                capped = inst if cap is None else inst.with_buffer_capacity(cap)
                result = ca_schedule(capped)
                validate_schedule(capped, result.schedule)
                assert result.delivered_ids.isdisjoint(result.rejected_ids)
                assert result.delivered_ids | result.rejected_ids == {
                    m.id for m in inst
                }

    def test_capacity_zero_is_bufferless(self):
        for seed in range(6):
            inst = _rand_inst(seed, n=10, k=12).with_buffer_capacity(0)
            result = ca_schedule(inst)
            # no waiting after the first crossing anywhere
            validate_schedule(inst, result.schedule)
            for traj in result.schedule:
                waits = [b - a - 1 for a, b in zip(traj.crossings, traj.crossings[1:])]
                assert all(w == 0 for w in waits), traj

    def test_mixed_direction_rejected(self):
        from repro.core.message import Message

        inst = Instance(
            4, (Message(id=1, source=3, dest=0, release=0, deadline=9),)
        )
        with pytest.raises(ValueError, match="split directions"):
            ca_schedule(inst)

    def test_facade_cell(self, inst):
        res = api.solve(inst, "buffered", "ca")
        assert res.method == "ca"
        assert res.optimal is None  # heuristic: no optimality certificate
        assert res.telemetry["algorithm"] == "emr-greedy-reservation"
        bounded = api.solve(inst.with_buffer_capacity(0), "buffered", "ca")
        assert bounded.delivered <= res.delivered
        assert bounded.buffers == {"capacity": 0, "admission": DEFAULT_ADMISSION}

    def test_never_beats_exact_opt(self):
        for seed in range(5):
            inst = _rand_inst(seed, n=8, k=6)
            ca = api.solve(inst, "buffered", "ca")
            opt = api.solve(inst, "buffered", "exact")
            assert ca.delivered <= opt.delivered


# --------------------------------------------------------------------- #
# Schema v5 provenance
# --------------------------------------------------------------------- #


class TestBuffersBlock:
    def test_present_only_when_bounded(self, inst):
        free = api.solve(inst, "buffered", "greedy", policy="edf")
        assert free.buffers is None
        bounded = api.solve(
            inst.with_buffer_capacity(1), "buffered", "greedy", policy="edf"
        )
        assert bounded.buffers == {"capacity": 1, "admission": DEFAULT_ADMISSION}
        payload = bounded.to_dict()
        assert payload["version"] == 5
        assert payload["buffers"] == {"capacity": 1, "admission": DEFAULT_ADMISSION}
        assert api.ScheduleResult.from_dict(payload).buffers == bounded.buffers

    def test_non_default_admission_is_stamped(self, inst):
        res = api.solve(
            inst.with_buffer_capacity(1),
            "buffered",
            "greedy",
            policy="edf",
            admission="drop-farthest-deadline",
        )
        assert res.buffers == {
            "capacity": 1,
            "admission": "drop-farthest-deadline",
        }


# --------------------------------------------------------------------- #
# Over the wire: ca + capacity through a live server
# --------------------------------------------------------------------- #


class TestOverHTTP:
    @pytest.fixture(scope="class")
    def client(self):
        from repro.client import ReproClient
        from repro.server import ReproServer

        srv = ReproServer(port=0, jobs=1).start_in_thread()
        try:
            with ReproClient(srv.url) as c:
                yield c
        finally:
            srv.shutdown()

    def test_ca_is_a_served_cell(self, client):
        assert ("line", "buffered", "ca") in set(client.cells())

    def test_loopback_matches_local(self, client, inst):
        capped = inst.with_buffer_capacity(1)
        local = api.solve(capped, "buffered", "ca")
        remote = client.solve(capped, "buffered", "ca")
        assert remote.schedule == local.schedule
        assert remote.delivered == local.delivered
        assert remote.buffers == local.buffers == {
            "capacity": 1,
            "admission": DEFAULT_ADMISSION,
        }

    def test_capacity_survives_the_wire(self, client, inst):
        # bounded simulate over the wire: overflow drops must match local
        capped = inst.with_buffer_capacity(0)
        local = api.solve(capped, "buffered", "greedy", policy="edf")
        remote = client.solve(capped, "buffered", "greedy", policy="edf")
        assert remote.delivered == local.delivered
        assert remote.buffers == local.buffers

