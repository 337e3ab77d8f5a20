"""Tests for the repro.topology layer: registry, dispatch, decomposition,
golden facade/direct-call parity, and ring fault attribution."""

import numpy as np
import pytest

from repro import api, topology
from repro.baselines import EDFPolicy
from repro.core.bfl_fast import bfl_fast
from repro.core.instance import Instance
from repro.core.message import Message
from repro.core.validate import validate_schedule
from repro.network import simulate
from repro.network.faults import FaultPlan, LinkFailure
from repro.topology import (
    Line,
    Mesh,
    Ring,
    RingInstance,
    RingMessage,
    get_topology,
    topology_names,
    topology_of,
)
from repro.workloads.meshes import random_mesh_instance
from repro.workloads.rings import random_ring_instance


def _mixed_line_instance(rng, n=10, k=8):
    """A line instance with messages in both directions."""
    msgs = []
    for i in range(k):
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        while b == a:
            b = int(rng.integers(0, n))
        r = int(rng.integers(0, 6))
        msgs.append(Message(i, a, b, r, r + abs(b - a) + int(rng.integers(0, 5))))
    return Instance(n, tuple(msgs))


class TestRegistry:
    def test_names(self):
        assert set(topology_names()) == {"line", "ring", "mesh"}

    def test_get_topology_returns_singletons(self):
        assert isinstance(get_topology("line"), Line)
        assert isinstance(get_topology("ring"), Ring)
        assert isinstance(get_topology("mesh"), Mesh)
        assert get_topology("ring") is get_topology("ring")

    def test_get_topology_unknown(self):
        with pytest.raises(ValueError, match="torus"):
            get_topology("torus")

    def test_topology_of_reads_the_attribute(self):
        rng = np.random.default_rng(0)
        assert topology_of(_mixed_line_instance(rng)).name == "line"
        assert topology_of(random_ring_instance(rng, n=6, k=4)).name == "ring"
        assert (
            topology_of(random_mesh_instance(rng, rows=3, cols=3, k=3)).name == "mesh"
        )

    def test_dispatch_matrix_shape(self):
        matrix = topology.dispatch_matrix()
        assert matrix[("line", "bufferless")] == ("exact", "bfl", "greedy")
        assert "exact" in matrix[("ring", "bufferless")]
        assert "greedy" in matrix[("mesh", "bufferless")]
        # api.DISPATCH is a snapshot of the same registry
        assert api.DISPATCH == matrix

    def test_solver_for_resolves_lazy_strings(self):
        fn = topology.solver_for("ring", "bufferless", "bfl")
        assert callable(fn)

    def test_solver_for_unknown_cell(self):
        with pytest.raises(KeyError):
            topology.solver_for("mesh", "online", "bfl")

    def test_register_solver_roundtrip(self):
        sentinel = lambda instance, opts: None  # noqa: E731
        topology.register_solver("line", "bufferless", "_test_tmp", sentinel)
        try:
            assert topology.solver_for("line", "bufferless", "_test_tmp") is sentinel
            assert "_test_tmp" in topology.dispatch_matrix()[("line", "bufferless")]
        finally:
            topology.unregister_solver("line", "bufferless", "_test_tmp")
        assert "_test_tmp" not in topology.dispatch_matrix()[("line", "bufferless")]


class TestInstanceTopologyField:
    def test_default_is_line(self):
        inst = Instance(4, (Message(0, 0, 2, 0, 5),))
        assert inst.topology == "line"

    def test_canonical_form_unchanged_for_line(self):
        """Line cache keys must not change across the refactor."""
        inst = Instance(4, (Message(0, 0, 2, 0, 5),))
        form = inst.canonical_form()
        assert len(form) == 2  # no topology component appended

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="torus"):
            Instance(4, (Message(0, 0, 2, 0, 5),), "torus")


class TestGoldenRingExactParity:
    """solve() on rings and meshes must be byte-identical to calling the
    topology solvers directly."""

    @pytest.mark.parametrize("seed_block", range(4))
    def test_facade_matches_legacy_exact(self, seed_block):
        from repro.topology.ring_exact import opt_ring_bufferless

        for seed in range(seed_block * 25, (seed_block + 1) * 25):
            rng = np.random.default_rng(40_000 + seed)
            inst = random_ring_instance(rng, n=6, k=8, max_release=6, max_slack=4)
            via_api = api.solve(inst, "bufferless", "exact")
            direct = opt_ring_bufferless(inst)
            assert via_api.schedule == direct.schedule, seed
            assert via_api.optimal == direct.optimal
            assert via_api.topology == "ring"

    def test_facade_matches_legacy_ring_bfl(self):
        from repro.topology.ring import ring_bfl

        for seed in range(100):
            rng = np.random.default_rng(41_000 + seed)
            inst = random_ring_instance(rng, n=8, k=12)
            via_api = api.solve(inst, "bufferless", "bfl")
            assert via_api.schedule == ring_bfl(inst), seed

    def test_facade_matches_legacy_ring_buffered(self):
        from repro.topology.ring_exact import opt_ring_buffered

        for seed in range(8):
            rng = np.random.default_rng(42_000 + seed)
            inst = random_ring_instance(rng, n=5, k=6, max_release=4, max_slack=3)
            via_api = api.solve(inst, "buffered", "exact")
            direct = opt_ring_buffered(inst)
            assert via_api.schedule == direct.schedule, seed
            assert via_api.optimal == direct.optimal

    def test_facade_matches_legacy_mesh(self):
        from repro.topology.mesh_exact import opt_mesh_xy

        for seed in range(10):
            rng = np.random.default_rng(43_000 + seed)
            inst = random_mesh_instance(
                rng, rows=4, cols=4, k=8, max_release=6, max_slack=3
            )
            via_api = api.solve(inst, "bufferless", "exact")
            direct = opt_mesh_xy(inst)
            assert via_api.schedule == direct.schedule, seed
            assert via_api.topology == "mesh"


class TestDecompositionProperties:
    """Every topology's decomposition yields sub-instances that re-validate
    under the shared line machinery (core/validate)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_line_halves_revalidate(self, seed):
        rng = np.random.default_rng(50_000 + seed)
        inst = _mixed_line_instance(rng, n=10, k=10)
        lr, rl_mirrored = Line().decompose(inst)
        assert {m.id for m in lr} | {m.id for m in rl_mirrored} == {
            m.id for m in inst
        }
        for half in (lr, rl_mirrored):
            assert half.topology == "line"
            validate_schedule(half, bfl_fast(half))

    @pytest.mark.parametrize("seed", range(30))
    def test_ring_cut_reduction_revalidates(self, seed):
        rng = np.random.default_rng(51_000 + seed)
        inst = random_ring_instance(rng, n=8, k=12)
        cut = int(rng.integers(0, inst.n))
        line_part, wrapped = Ring().decompose(inst, cut=cut)
        assert isinstance(line_part, Instance) and line_part.topology == "line"
        assert isinstance(wrapped, RingInstance)
        assert {m.id for m in line_part} | {m.id for m in wrapped} == {
            m.id for m in inst
        }
        # span is preserved across the relabeling
        by_id = {m.id: m for m in inst}
        for m in line_part:
            assert m.dest - m.source == by_id[m.id].span
        validate_schedule(line_part, bfl_fast(line_part))

    @pytest.mark.parametrize("seed", range(30))
    def test_mesh_xy_decomposition_revalidates(self, seed):
        rng = np.random.default_rng(52_000 + seed)
        inst = random_mesh_instance(rng, rows=5, cols=5, k=12)
        parts = Mesh().decompose(inst)
        ids = {m.id for m in inst}
        for part in parts:
            assert isinstance(part, Instance) and part.topology == "line"
            assert {m.id for m in part} <= ids
            validate_schedule(part, bfl_fast(part))

    def test_line_mirror_involution(self):
        rng = np.random.default_rng(53_000)
        inst = _mixed_line_instance(rng)
        assert Line().mirror(Line().mirror(inst)) == inst


class TestRingFaultAttribution:
    """Satellite (a): ring fault drops must be blamed on the fault plan,
    not on the scheduling policy."""

    def test_stochastic_drops_attributed_fault(self):
        rng = np.random.default_rng(60_000)
        inst = random_ring_instance(rng, n=8, k=12, max_slack=6)
        plan = FaultPlan(drop_rate=1.0, drop_seed=1)
        res = simulate(inst, EDFPolicy(), faults=plan)
        assert res.throughput == 0
        fault_events = [e for e in res.drop_events if e[2] == "fault"]
        assert fault_events, "expected fault-attributed drops on the ring"
        assert res.stats.fault_drops == len(fault_events)

    def test_dead_link_blocks_ring_traffic(self):
        # the only route 0 -> 2 goes over link 0; kill it for the whole run
        inst = RingInstance(5, (RingMessage(0, 0, 2, 0, 4, n=5),))
        plan = FaultPlan(link_failures=(LinkFailure(0, 0, 50),))
        res = simulate(inst, EDFPolicy(), faults=plan)
        assert res.delivered_ids == frozenset()
        assert res.stats.link_down_blocks > 0
        clean = simulate(inst, EDFPolicy())
        assert clean.delivered_ids == {0}

    def test_online_ring_telemetry_separates_fault_from_policy(self):
        rng = np.random.default_rng(61_000)
        inst = random_ring_instance(rng, n=8, k=10, max_slack=5)
        plan = FaultPlan(drop_rate=0.5, drop_seed=7)
        result = api.solve(
            inst, "online", "greedy", baseline="none", faults=plan
        )
        drops = result.telemetry["drops"]
        assert set(drops) == {"policy", "fault"}
        assert drops["fault"] > 0
        assert drops["policy"] + drops["fault"] + result.delivered == len(inst)


class TestFacadeRingOnline:
    def test_ratio_against_exact_ring_optimum(self):
        rng = np.random.default_rng(62_000)
        inst = random_ring_instance(rng, n=6, k=8, max_release=6, max_slack=4)
        result = api.solve(inst, "online", "greedy", baseline="exact")
        assert result.upper is not None
        assert result.competitive_ratio == pytest.approx(
            1.0 if result.upper == 0 else result.delivered / result.upper
        )

    def test_serialization_carries_topology(self):
        import json

        rng = np.random.default_rng(63_000)
        inst = random_ring_instance(rng, n=6, k=6)
        payload = api.solve(inst, "bufferless", "bfl").to_dict()
        assert payload["topology"] == "ring"
        assert payload["version"] == api.ScheduleResult.SCHEMA_VERSION
        decoded = json.loads(json.dumps(payload))
        assert len(decoded["schedule"]["trajectories"]) == payload["delivered"]
