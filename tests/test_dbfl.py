"""Tests for D-BFL and its Theorem 5.2 equivalence with BFL."""

import numpy as np
import pytest

from repro.core.bfl import bfl
from repro.core.dbfl import DBFLPolicy, dbfl
from repro.core.instance import Instance, make_instance
from repro.core.validate import validate_schedule

from .conftest import random_lr_instance


class TestBasics:
    def test_empty(self):
        assert dbfl(Instance(4, ())).throughput == 0

    def test_single_message(self):
        inst = make_instance(6, [(1, 4, 2, 9)])
        res = dbfl(inst)
        assert res.delivered_ids == {0}
        # same earliest-line behaviour as BFL
        assert res.schedule[0].depart == 2

    def test_valid_buffered_schedule(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_lr_instance(rng)
            validate_schedule(inst, dbfl(inst).schedule)


class TestTheorem52:
    """D-BFL(I) == BFL(I): same delivered set, same delivery scan lines."""

    @pytest.mark.parametrize("seed", range(50))
    def test_equivalence_random(self, seed):
        rng = np.random.default_rng(5000 + seed)
        inst = random_lr_instance(rng, n_hi=14, k_hi=12, max_release=10, max_slack=8)
        central = bfl(inst)
        distributed = dbfl(inst)
        assert distributed.delivered_ids == central.delivered_ids
        assert distributed.schedule.delivery_lines() == central.delivery_lines()

    def test_equivalence_paper_example(self, paper_example):
        central = bfl(paper_example)
        distributed = dbfl(paper_example)
        assert distributed.delivered_ids == central.delivered_ids
        assert distributed.schedule.delivery_lines() == central.delivery_lines()

    def test_equivalence_heavy_contention(self):
        # many identical messages: the hardest case for tie-breaking
        inst = make_instance(6, [(0, 5, 0, 8)] * 6 + [(2, 4, 1, 6)] * 3)
        central = bfl(inst)
        distributed = dbfl(inst)
        assert distributed.delivered_ids == central.delivered_ids
        assert distributed.schedule.delivery_lines() == central.delivery_lines()

    def test_equivalence_zero_slack(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            inst = random_lr_instance(rng, max_slack=0)
            assert dbfl(inst).delivered_ids == bfl(inst).delivered_ids


class TestTieBreakIsLoadBearing:
    """Theorem 5.2 needs BFL's exact selection rule: a D-BFL variant that
    selects by earliest deadline instead of nearest destination diverges
    from BFL on a concrete instance."""

    class _EdfDBFL(DBFLPolicy):
        def select(self, view):
            v = view.node
            l_value = self._l_in[v]
            eligible = [p for p in view.candidates if p.message.source >= l_value]
            chosen = (
                min(eligible, key=lambda p: (p.deadline, p.id)) if eligible else None
            )
            if chosen is not None and chosen.message.dest == v + 1:
                self._l_out[v] = v + 1
            else:
                self._l_out[v] = l_value
            self._l_in[v] = -1
            return chosen

    def test_edf_selection_diverges(self):
        from repro.network import simulate

        inst = make_instance(
            9,
            [
                (5, 7, 7, 9),
                (4, 7, 7, 12),
                (3, 5, 3, 7),
                (5, 8, 0, 7),
                (4, 6, 6, 10),
                (2, 4, 6, 10),
            ],
        )
        variant = simulate(inst, self._EdfDBFL())
        proper = dbfl(inst)
        central = bfl(inst)
        assert proper.delivered_ids == central.delivered_ids
        assert variant.delivered_ids != central.delivered_ids


class TestDistributedCharacter:
    def test_uses_buffers_when_blocked(self):
        # message 1 is blocked by a nearer-destination rival on the early
        # lines; under D-BFL it moves forward and waits rather than idling
        inst = make_instance(
            6,
            [
                (2, 4, 0, 4),  # nearer destination, wins line at node 2
                (0, 4, 0, 8),  # must yield, buffers en route
            ],
        )
        res = dbfl(inst)
        central = bfl(inst)
        assert res.delivered_ids == central.delivered_ids == {0, 1}
        # D-BFL's schedule is buffered in general; BFL's never is
        assert central.bufferless

    def test_policy_reset_between_runs(self):
        inst = make_instance(6, [(0, 3, 0, 5)])
        policy = DBFLPolicy()
        from repro.network import simulate

        first = simulate(inst, policy)
        second = simulate(inst, policy)
        assert first.delivered_ids == second.delivered_ids == {0}

    def test_control_values_fit_log_n_bits(self):
        # the only control value is an L in [-1, n-1]: log n bits as claimed
        inst = make_instance(8, [(0, 7, 0, 12), (3, 6, 1, 9)])
        emitted: list[int] = []

        class Audit(DBFLPolicy):
            def emit_control(self, node, time):
                v = super().emit_control(node, time)
                if v is not None:
                    emitted.append(int(v))
                return v

        from repro.network import simulate

        simulate(inst, Audit())
        assert emitted, "control channel should be exercised"
        assert all(-1 <= v <= 7 for v in emitted)

    def test_control_moves_one_hop_per_step(self):
        # every value node v emits at t reaches v + 1 at t + 1, at every
        # node and step (D-BFL is never fast-forwarded)
        inst = make_instance(8, [(0, 7, 0, 12), (3, 6, 1, 9), (5, 7, 6, 9)])
        sent: list[tuple[int, int]] = []
        got: list[tuple[int, int]] = []

        class Audit(DBFLPolicy):
            def emit_control(self, node, time):
                v = super().emit_control(node, time)
                if v is not None and node + 1 < 8:
                    sent.append((node + 1, time + 1))
                return v

            def receive_control(self, node, time, value):
                got.append((node, time))
                super().receive_control(node, time, value)

        from repro.network import simulate

        res = simulate(inst, Audit())
        steps = res.stats.steps
        assert sorted(got) == sorted(s for s in sent if s[1] < steps)
        assert {t for _, t in sent} == set(range(1, steps + 1))
        assert res.delivered_ids == bfl(inst).delivered_ids
