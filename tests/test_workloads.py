"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.core.message import Direction
from repro.workloads import (
    general_instance,
    hotspot_instance,
    multimedia_instance,
    saturated_instance,
    session_instance,
    static_instance,
    uniform_slack_instance,
    uniform_span_instance,
)
from repro.workloads.sessions import Session


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGeneral:
    def test_shape_and_feasibility(self):
        inst = general_instance(rng(), n=20, k=30, max_release=10, max_slack=5)
        assert inst.n == 20 and len(inst) == 30
        for m in inst:
            assert m.direction == Direction.LEFT_TO_RIGHT
            assert m.feasible
            assert 0 <= m.release <= 10
            assert 0 <= m.slack <= 5

    def test_deterministic_given_seed(self):
        a = general_instance(rng(5), n=16, k=10)
        b = general_instance(rng(5), n=16, k=10)
        assert a.messages == b.messages

    def test_span_bounds_respected(self):
        inst = general_instance(rng(), n=20, k=50, min_span=3, max_span=5)
        assert all(3 <= m.span <= 5 for m in inst)

    def test_invalid_span_range(self):
        with pytest.raises(ValueError, match="span range"):
            general_instance(rng(), n=4, k=3, min_span=9)

    def test_saturated_exceeds_capacity(self):
        inst = saturated_instance(rng(), n=12, load=2.0, horizon=20)
        demand = sum(m.span for m in inst)
        assert demand >= 2.0 * 11 * 20

    def test_saturated_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            saturated_instance(rng(), load=0)


class TestSpecialFamilies:
    def test_uniform_slack(self):
        inst = uniform_slack_instance(rng(), slack=4, k=15)
        assert inst.uniform_slack
        assert all(m.slack == 4 for m in inst)

    def test_uniform_slack_rejects_negative(self):
        with pytest.raises(ValueError):
            uniform_slack_instance(rng(), slack=-1)

    def test_uniform_span(self):
        inst = uniform_span_instance(rng(), span=5, k=15)
        assert inst.uniform_span
        assert all(m.span == 5 for m in inst)

    def test_uniform_span_must_fit(self):
        with pytest.raises(ValueError):
            uniform_span_instance(rng(), n=4, span=9)

    def test_static(self):
        inst = static_instance(rng(), k=15)
        assert inst.static


class TestSessions:
    def test_explicit_sessions_expand(self):
        sessions = [Session(source=0, dest=4, period=5, slack=2)]
        inst = session_instance(sessions, n=8, horizon=20)
        assert len(inst) == 4  # releases 0, 5, 10, 15
        assert all(m.release % 5 == 0 for m in inst)
        assert all(m.slack == 2 for m in inst)

    def test_phase_offsets(self):
        sessions = [Session(source=0, dest=2, period=4, slack=0, phase=3)]
        inst = session_instance(sessions, n=4, horizon=12)
        assert [m.release for m in inst] == [3, 7, 11]

    def test_random_sessions_need_rng(self):
        with pytest.raises(ValueError, match="rng"):
            session_instance()

    def test_session_validation(self):
        with pytest.raises(ValueError):
            Session(source=3, dest=1, period=5, slack=0)
        with pytest.raises(ValueError):
            Session(source=0, dest=1, period=0, slack=0)


class TestMultimedia:
    def test_class_map_covers_all(self):
        inst, class_of = multimedia_instance(rng(), k=40)
        assert set(class_of) == set(inst.ids)
        assert set(class_of.values()) <= {"audio", "video", "bulk"}

    def test_class_slacks_in_range(self):
        inst, class_of = multimedia_instance(rng(), k=80)
        ranges = {"audio": (0, 2), "video": (2, 8), "bulk": (50, 200)}
        for m in inst:
            lo, hi = ranges[class_of[m.id]]
            assert lo <= m.slack <= hi

    def test_hotspot_destinations_cluster(self):
        inst = hotspot_instance(rng(), n=32, k=50, hotspot=24, width=2)
        assert all(22 <= m.dest <= 26 for m in inst)

    def test_hotspot_validation(self):
        with pytest.raises(ValueError, match="interior"):
            hotspot_instance(rng(), n=8, hotspot=0)


class TestSeedKwargRemoved:
    """``seed=`` is gone; the TypeError names the ``rng=`` replacement."""

    def test_workload_seed_kwarg_gone(self):
        with pytest.raises(TypeError, match=r"rng=7"):
            general_instance(seed=7, n=12, k=8)

    def test_session_instance_seed_kwarg_gone(self):
        with pytest.raises(TypeError, match=r"rng=7"):
            session_instance(seed=7)

    def test_seed_error_fires_before_rng_validation(self):
        # seed= is rejected outright, even alongside a valid rng.
        with pytest.raises(TypeError, match="no longer accepts seed="):
            general_instance(np.random.default_rng(1), seed=1)

    def test_rng_still_accepts_plain_ints(self):
        assert general_instance(7, n=12, k=8) == general_instance(
            np.random.default_rng(7), n=12, k=8
        )
