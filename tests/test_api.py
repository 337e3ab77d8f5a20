"""Tests for the repro.api solver facade."""

import numpy as np
import pytest

from repro import api
from repro.baselines import (
    EDFPolicy,
    FCFSPolicy,
    edf_bufferless,
    first_fit,
    min_laxity_first,
    random_assignment,
)
from repro.core.bfl import EDF, bfl
from repro.core.bfl_fast import bfl_fast
from repro.core.dbfl import dbfl
from repro.core.instance import Instance
from repro.core.message import Message
from repro.core.solve import BidirectionalSchedule
from repro.exact import opt_buffered, opt_bufferless, opt_bufferless_bnb
from repro.network.simulator import simulate
from repro.workloads import general_instance


@pytest.fixture
def inst():
    return general_instance(np.random.default_rng(42), n=12, k=10)


@pytest.fixture
def small():
    return general_instance(np.random.default_rng(5), n=8, k=6)


class TestBufferlessRoundTrips:
    """Every facade path must match its legacy entrypoint exactly."""

    def test_bfl_default(self, inst):
        result = api.solve(inst, "bufferless", "bfl")
        assert result.schedule == bfl_fast(inst)
        assert result.optimal is None
        assert result.delivered == result.schedule.throughput

    def test_bfl_named_tie_break(self, inst):
        result = api.solve(inst, "bufferless", "bfl", tie_break="edf")
        assert result.schedule == bfl(inst, tie_break=EDF)

    def test_exact_milp(self, inst):
        result = api.solve(inst, "bufferless", "exact")
        legacy = opt_bufferless(inst)
        assert result.schedule == legacy.schedule
        assert result.optimal == legacy.optimal

    def test_exact_bnb(self, inst):
        result = api.solve(inst, "bufferless", "exact", solver="bnb")
        assert result.schedule == opt_bufferless_bnb(inst).schedule
        assert result.delivered == opt_bufferless(inst).throughput

    def test_greedy_orders(self, inst):
        for order, legacy in [
            ("edf", edf_bufferless),
            ("arrival", first_fit),
            ("laxity", min_laxity_first),
        ]:
            result = api.solve(inst, "bufferless", "greedy", order=order)
            assert result.schedule == legacy(inst), order

    def test_greedy_random_needs_rng(self, inst):
        result = api.solve(
            inst, "bufferless", "greedy", order="random", rng=np.random.default_rng(7)
        )
        assert result.schedule == random_assignment(inst, np.random.default_rng(7))
        with pytest.raises(TypeError):
            api.solve(inst, "bufferless", "greedy", order="random")


class TestBufferedRoundTrips:
    def test_exact(self, small):
        result = api.solve(small, "buffered", "exact")
        legacy = opt_buffered(small)
        assert result.schedule == legacy.schedule
        assert result.optimal == legacy.optimal

    def test_bfl_is_dbfl(self, inst):
        result = api.solve(inst, "buffered", "bfl")
        assert result.schedule == dbfl(inst).schedule
        assert "steps" in result.telemetry

    def test_greedy_named_policies(self, inst):
        for name, policy_cls in [("edf", EDFPolicy), ("fcfs", FCFSPolicy)]:
            result = api.solve(inst, "buffered", "greedy", policy=name)
            assert result.schedule == simulate(inst, policy_cls()).schedule, name

    def test_greedy_policy_instance(self, inst):
        result = api.solve(inst, "buffered", "greedy", policy=EDFPolicy())
        assert result.schedule == simulate(inst, EDFPolicy()).schedule

    def test_greedy_buffer_capacity(self, inst):
        result = api.solve(inst, "buffered", "greedy", buffer_capacity=1)
        assert result.schedule == simulate(inst, EDFPolicy(), buffer_capacity=1).schedule


class TestOnlineRegime:
    """regime="online" dispatches into repro.online and reports a ratio."""

    def test_online_bfl(self, inst):
        from repro.online import online_bfl

        result = api.solve(inst, "online", "bfl")
        assert result.schedule == online_bfl(inst).schedule
        assert result.regime == "online" and result.method == "bfl"
        assert result.optimal is None

    def test_online_dbfl_and_greedy(self, inst):
        from repro.online import online_dbfl, online_greedy

        assert api.solve(inst, "online", "dbfl").schedule == online_dbfl(inst).schedule
        assert (
            api.solve(inst, "online", "greedy", policy="fcfs").schedule
            == online_greedy(inst, policy="fcfs").schedule
        )

    def test_competitive_ratio_against_exact(self, small):
        result = api.solve(small, "online", "bfl", baseline="exact")
        opt = result.upper
        assert result.competitive_ratio == pytest.approx(
            1.0 if opt == 0 else result.delivered / opt
        )
        assert 0.0 <= result.competitive_ratio <= 1.0

    def test_baseline_none_skips_ratio(self, inst):
        result = api.solve(inst, "online", "bfl", baseline="none")
        assert result.competitive_ratio is None
        with pytest.raises(ValueError, match="baseline"):
            api.solve(inst, "online", "bfl", baseline="oracle")

    def test_offline_results_have_no_ratio(self, inst):
        assert api.solve(inst, "bufferless", "bfl").competitive_ratio is None

    def test_telemetry_carries_decision_stats(self, inst):
        result = api.solve(inst, "online", "bfl")
        assert result.telemetry["decisions"] == len(inst.messages)
        assert set(result.telemetry["drops"]) == {"policy", "fault"}

    def test_online_with_faults(self, inst):
        from repro.network.faults import random_fault_plan

        plan = random_fault_plan(
            np.random.default_rng(3), inst, drop_rate=0.2, link_failures=1
        )
        result = api.solve(inst, "online", "bfl", faults=plan)
        drops = result.telemetry["drops"]
        assert drops["policy"] + drops["fault"] + result.delivered == len(inst.messages)


class TestDispatchMatrix:
    """Every (regime, method) pair either solves or raises a typed ValueError."""

    @pytest.mark.parametrize("regime", api.REGIMES)
    @pytest.mark.parametrize("method", api.METHODS)
    def test_pair_solves_or_names_options(self, small, regime, method):
        if method in api.DISPATCH[("line", regime)]:
            result = api.solve(small, regime, method)
            assert isinstance(result, api.ScheduleResult)
            assert result.regime == regime and result.method == method
            assert result.topology == "line"
            assert 0 <= result.delivered <= len(small.messages)
        else:
            with pytest.raises(ValueError) as err:
                api.solve(small, regime, method)
            for valid in api.DISPATCH[("line", regime)]:
                assert valid in str(err.value)

    def test_matrix_is_total(self):
        # the line topology still covers every regime and every method
        line_regimes = {r for (t, r) in api.DISPATCH if t == "line"}
        assert line_regimes == set(api.REGIMES)
        assert set(api.METHODS) == {
            m for (t, _), ms in api.DISPATCH.items() if t == "line" for m in ms
        }

    def test_matrix_covers_all_topologies(self):
        from repro import topology

        topologies = {t for (t, _) in api.DISPATCH}
        assert topologies == set(topology.topology_names())
        # every registered topology can at least solve bufferless
        for topo in topologies:
            assert api.DISPATCH[(topo, "bufferless")]


class TestResultSerialization:
    def test_iter_yields_trajectories(self, inst):
        result = api.solve(inst, "bufferless", "bfl")
        assert list(result) == list(result.schedule.trajectories)

    def test_summary_keys(self, inst):
        result = api.solve(inst, "bufferless", "bfl")
        summary = result.summary()
        assert summary["regime"] == "bufferless"
        assert summary["delivered"] == result.schedule.throughput
        assert "competitive_ratio" not in summary
        online = api.solve(inst, "online", "bfl", baseline="bfl").summary()
        assert "competitive_ratio" in online

    def test_to_dict_is_json_round_trippable(self, inst):
        import json

        payload = api.solve(inst, "online", "bfl").to_dict()
        assert payload["format"] == "repro-schedule-result"
        assert payload["version"] == api.ScheduleResult.SCHEMA_VERSION == 5
        assert payload["topology"] == "line"
        decoded = json.loads(json.dumps(payload))
        assert decoded["delivered"] == payload["delivered"]
        trajectories = decoded["schedule"]["trajectories"]  # version-2 columns
        assert len(trajectories["message_id"]) == payload["delivered"]
        assert api.ScheduleResult.from_dict(decoded).schedule == api.solve(
            inst, "online", "bfl"
        ).schedule


class TestValidation:
    def test_unknown_regime_method(self, inst):
        with pytest.raises(ValueError, match="regime"):
            api.solve(inst, "quantum")
        with pytest.raises(ValueError, match="method"):
            api.solve(inst, "bufferless", "magic")

    def test_online_rejects_offline_only_methods(self, inst):
        with pytest.raises(ValueError, match="online"):
            api.solve(inst, "online", "exact")
        with pytest.raises(ValueError, match="dbfl"):
            api.solve(inst, "bufferless", "dbfl")

    def test_unknown_option(self, inst):
        with pytest.raises(TypeError, match="frobnicate"):
            api.solve(inst, "bufferless", "bfl", frobnicate=1)

    def test_unknown_solver_policy(self, inst):
        with pytest.raises(ValueError, match="solver"):
            api.solve(inst, "bufferless", "exact", solver="abacus")
        with pytest.raises(ValueError, match="policy"):
            api.solve(inst, "buffered", "greedy", policy="psychic")

    def test_telemetry_always_has_seconds(self, inst):
        result = api.solve(inst, "bufferless", "bfl")
        assert result.telemetry["seconds"] >= 0

    def test_result_is_frozen(self, inst):
        result = api.solve(inst, "bufferless", "bfl")
        with pytest.raises(AttributeError):
            result.regime = "buffered"


class TestTelemetryCounters:
    def test_counters_when_traced(self, inst):
        from repro import obs
        from repro.obs.tracer import Tracer

        with obs.use(Tracer(enabled=True)):
            result = api.solve(inst, "bufferless", "bfl")
        assert result.telemetry["counters"]["bfl.launches"] == 1

    def test_no_counters_when_disabled(self, inst):
        from repro import obs
        from repro.obs.tracer import Tracer

        with obs.use(Tracer(enabled=False)):
            result = api.solve(inst, "bufferless", "bfl")
        assert "counters" not in result.telemetry


class TestSolveBidirectional:
    def _mixed(self, seed=3, n=12, k=10):
        rng = np.random.default_rng(seed)
        msgs = []
        for i in range(k):
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n))
            while b == a:
                b = int(rng.integers(0, n))
            r = int(rng.integers(0, 6))
            msgs.append(Message(i, a, b, r, r + abs(b - a) + int(rng.integers(0, 5))))
        return Instance(n, tuple(msgs))

    def test_returns_bidirectional_schedule(self):
        inst = self._mixed()
        result = api.solve_bidirectional(inst)
        assert isinstance(result, BidirectionalSchedule)
        assert result.throughput == len(result.delivered_ids)

    def test_matches_direct_split_solve(self):
        inst = self._mixed(seed=11)
        via_api = api.solve_bidirectional(inst)
        lr_half, rl_half = inst.split_directions()
        assert via_api.lr == bfl_fast(lr_half)
        assert via_api.rl == bfl_fast(rl_half.mirrored())

    def test_custom_scheduler(self):
        inst = self._mixed(seed=4)
        result = api.solve_bidirectional(inst, scheduler=edf_bufferless)
        assert result.throughput >= 0

    def test_exported_at_package_root(self):
        import repro

        assert repro.solve is api.solve
        assert repro.solve_bidirectional is api.solve_bidirectional
        assert repro.ScheduleResult is api.ScheduleResult
