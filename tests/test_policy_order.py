"""One order per policy: ``key``, ``select`` and the admission contest agree.

* every built-in policy's ``eviction_key`` is its ``key``;
* D-BFL contests a full buffer in its own forwarding order (it used to
  inherit the EDF order while forwarding nearest-destination first);
* the simulator's key-ordered fast path (no ``NodeView``, empty nodes
  skipped) gives the same ``SimulationResult`` as the general path, which
  ``TracingPolicy`` forces by overriding ``select`` — the general path is
  the oracle for the fast one;
* D-BFL's ``select_at`` (its rule on the live buffer, no ``NodeView``)
  gives the same result as its ``select`` asked through a view, and a
  subclass that changes ``select`` alone is served by that ``select``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.baselines.buffered_greedy import (
    EDFPolicy,
    FCFSPolicy,
    MinLaxityPolicy,
    NearestDestPolicy,
)
from repro.buffers import ADMISSION_POLICIES
from repro.core.dbfl import DBFLPolicy
from repro.core.instance import Instance
from repro.core.message import Message
from repro.network import policy as policy_mod
from repro.network.faults import FaultPlan, LinkFailure, NodeStall
from repro.network.packet import Packet
from repro.network.policy import NodeView, Policy
from repro.network.simulator import simulate
from repro.topology import topology_of
from repro.topology.ring import RingInstance, RingMessage
from repro.trace.events import TracingPolicy
from repro.workloads import general_instance

KEYED = (EDFPolicy, FCFSPolicy, MinLaxityPolicy, NearestDestPolicy)
BUILT_IN = KEYED + (DBFLPolicy,)


def _result_fields(res):
    return (
        res.schedule,
        res.delivered_ids,
        res.dropped_ids,
        res.drop_events,
        res.launch_events,
        res.stats,
    )


# --------------------------------------------------------------------- #
# key == eviction_key
# --------------------------------------------------------------------- #


@st.composite
def packets(draw):
    n = draw(st.integers(2, 20))
    src = draw(st.integers(0, n - 2))
    dst = draw(st.integers(src + 1, n - 1))
    rel = draw(st.integers(0, 30))
    dl = rel + (dst - src) + draw(st.integers(0, 10))
    p = Packet(Message(draw(st.integers(0, 99)), src, dst, rel, dl))
    for hop in range(draw(st.integers(0, dst - src - 1))):
        p.record_hop(rel + hop)
    return p


class TestOneOrder:
    @pytest.mark.parametrize("cls", BUILT_IN, ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None)
    @given(p=packets())
    def test_eviction_key_is_key(self, cls, p):
        pol = cls()
        assert pol.eviction_key(p) == pol.key(p) == cls.key(p)
        assert TracingPolicy(pol).eviction_key(p) == cls.key(p)

    @pytest.mark.parametrize("cls", KEYED, ids=lambda c: c.__name__)
    def test_keyed_policies_keep_the_base_select(self, cls):
        # each states its order once: no select/eviction_key of its own
        assert cls.select is Policy.select
        assert cls.eviction_key is Policy.eviction_key
        assert "key" in vars(cls)

    @settings(max_examples=60, deadline=None)
    @given(p=packets(), t=st.integers(0, 40))
    def test_laxity_key_orders_like_laxity(self, p, t):
        # the -t of laxity(t) is shared by every contestant at a step
        assert MinLaxityPolicy.key(p)[0] - t == p.laxity(t)
        assert p.can_meet_deadline(t) == (p.laxity(t) >= 0)

    def test_base_select_is_min_by_key(self):
        ps = [Packet(Message(i, 0, 3, 0, 9 - i)) for i in range(4)]
        view = NodeView(node=0, time=0, candidates=tuple(ps))
        assert Policy().select(view) is ps[3]
        assert NearestDestPolicy().select(NodeView(0, 0, ())) is None


# --------------------------------------------------------------------- #
# D-BFL's admission contest
# --------------------------------------------------------------------- #


class OwnOrderDBFL(DBFLPolicy):
    """D-BFL with its contest order spelled out by hand."""

    def eviction_key(self, packet):
        return (packet.message.dest, -packet.message.source, packet.id)


class TestDBFLContest:
    def test_key_is_bfl_order(self):
        p = Packet(Message(7, 2, 5, 0, 9))
        assert DBFLPolicy.key(p) == (5, -2, 7)
        assert DBFLPolicy().eviction_key(p) == (5, -2, 7)

    def test_contest_runs_in_the_forwarding_order(self):
        # capacity 1 under evict-lowest-priority: the facade's D-BFL must
        # drop exactly what an own-order contest drops
        for seed in range(40):
            inst = general_instance(
                np.random.default_rng(np.random.SeedSequence([16, 60, seed])),
                n=16,
                k=60,
            ).with_buffer_capacity(1)
            got = simulate(inst, DBFLPolicy(), admission="evict-lowest-priority")
            want = simulate(inst, OwnOrderDBFL(), admission="evict-lowest-priority")
            assert _result_fields(got) == _result_fields(want), f"seed {seed}"
            solved = api.solve(
                inst, "buffered", "bfl", admission="evict-lowest-priority"
            )
            assert solved.schedule == want.schedule, f"seed {seed}"


# --------------------------------------------------------------------- #
# Fast path ≡ NodeView path
# --------------------------------------------------------------------- #


@st.composite
def line_instances(draw):
    n = draw(st.integers(2, 8))
    msgs = []
    for mid in range(draw(st.integers(0, 30))):
        src = draw(st.integers(0, n - 2))
        dst = draw(st.integers(src + 1, n - 1))
        rel = draw(st.integers(0, 6))
        dl = rel + dst - src + draw(st.integers(0, 9))
        msgs.append(Message(mid, src, dst, rel, dl))
    return Instance(n, tuple(msgs))


@st.composite
def ring_instances(draw):
    n = draw(st.integers(3, 8))
    msgs = []
    for mid in range(draw(st.integers(0, 30))):
        src = draw(st.integers(0, n - 1))
        span = draw(st.integers(1, n - 1))
        rel = draw(st.integers(0, 6))
        dl = rel + span + draw(st.integers(0, 9))
        msgs.append(RingMessage(mid, src, (src + span) % n, rel, dl, n))
    return RingInstance(n, tuple(msgs))


@st.composite
def fault_plans(draw, inst):
    topo = topology_of(inst)
    links, nodes = list(topo.links(inst)), list(topo.nodes(inst))
    window = st.tuples(st.integers(0, 15), st.integers(0, 6)).map(
        lambda w: (w[0], w[0] + w[1])
    )
    return FaultPlan(
        link_failures=tuple(
            LinkFailure(draw(st.sampled_from(links)), *draw(window))
            for _ in range(draw(st.integers(0, 2)))
        ),
        node_stalls=tuple(
            NodeStall(draw(st.sampled_from(nodes)), *draw(window))
            for _ in range(draw(st.integers(0, 2)))
        ),
        drop_rate=draw(st.sampled_from([0.0, 0.2])),
        drop_seed=draw(st.integers(0, 99)),
    )


@st.composite
def runs(draw):
    # line and ring: the fast path lives in the uniform-route loop (the
    # mesh selects per outgoing link through NodeView and is covered by
    # the golden fixture)
    inst = draw(st.one_of(line_instances(), ring_instances()))
    cls = draw(st.sampled_from(BUILT_IN))
    kw = {
        "buffer_capacity": draw(st.sampled_from([None, 0, 1, 1, 2, 3])),
        "admission": draw(st.sampled_from(ADMISSION_POLICIES)),
        "backend": "python",
    }
    if draw(st.booleans()) and inst.messages:
        kw["faults"] = draw(fault_plans(inst))
    return inst, cls, kw


class TestFastPathParity:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(run=runs())
    def test_traced_equals_bare(self, run):
        inst, cls, kw = run
        bare = simulate(inst, cls(), **kw)
        traced = simulate(inst, TracingPolicy(cls()), **kw)
        assert _result_fields(traced) == _result_fields(bare)

    @pytest.mark.parametrize("cls", BUILT_IN, ids=lambda c: c.__name__)
    def test_traced_contest_keeps_the_inner_order(self, cls):
        # contested capacity-1 buffers, where the property above rarely
        # lands: the wrapper must not fall back to the base EDF contest
        for seed in range(20):
            inst = general_instance(
                np.random.default_rng(seed), n=10, k=40, max_release=15, max_slack=5
            )
            kw = {"buffer_capacity": 1, "admission": "evict-lowest-priority"}
            bare = simulate(inst, cls(), **kw)
            traced = simulate(inst, TracingPolicy(cls()), **kw)
            assert _result_fields(traced) == _result_fields(bare), f"seed {seed}"

    @pytest.mark.parametrize("cls", KEYED, ids=lambda c: c.__name__)
    def test_keyed_fault_free_run_builds_no_node_view(self, cls):
        inst = general_instance(np.random.default_rng(3), n=12, k=40)
        with mock.patch.object(
            policy_mod, "NodeView", side_effect=AssertionError("NodeView built")
        ):
            res = simulate(inst, cls(), backend="python")
        assert res.throughput > 0

    def test_overriding_select_takes_the_node_view_path(self):
        # ``Policy.select_at`` is the one place a NodeView is built
        inst = general_instance(np.random.default_rng(3), n=12, k=40)
        with mock.patch.object(policy_mod, "NodeView", wraps=NodeView) as spy:
            simulate(inst, TracingPolicy(EDFPolicy()), backend="python")
        assert spy.call_count > 0


# --------------------------------------------------------------------- #
# D-BFL on its buffer ≡ D-BFL through a NodeView
# --------------------------------------------------------------------- #


@st.composite
def dbfl_runs(draw):
    inst = draw(st.one_of(line_instances(), ring_instances()))
    kw = {
        "buffer_capacity": draw(st.sampled_from([None, 1, 2])),
        "admission": draw(st.sampled_from(ADMISSION_POLICIES)),
        "backend": "python",
    }
    if draw(st.booleans()) and inst.messages:
        kw["faults"] = draw(fault_plans(inst))
    return inst, kw


class ViewDBFL(DBFLPolicy):
    """D-BFL's rule as a ``select`` over a view, written out independently
    of ``DBFLPolicy.select_at``."""

    def select(self, view):
        v = view.node
        l_value = self._l_in[v]
        eligible = [p for p in view.candidates if p.message.source >= l_value]
        chosen = min(eligible, key=self.key) if eligible else None
        self._l_out[v] = v + 1 if chosen is not None and chosen.dest == v + 1 else l_value
        self._l_in[v] = -1
        return chosen


class EdfSelect(DBFLPolicy):
    """D-BFL's control channel with EDF's forwarding rule, stated as
    ``select`` alone."""

    def select(self, view):
        return EDFPolicy().select(view)


class AuditedDBFL(DBFLPolicy):
    def emit_control(self, node, time):
        return super().emit_control(node, time)


class TestDBFLSelectAt:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(run=dbfl_runs())
    def test_select_at_equals_node_view_path(self, run):
        inst, kw = run
        bare = simulate(inst, DBFLPolicy(), **kw)
        traced = simulate(inst, TracingPolicy(DBFLPolicy()), **kw)
        assert _result_fields(traced) == _result_fields(bare)
        assert _result_fields(simulate(inst, ViewDBFL(), **kw)) == _result_fields(bare)

    def test_fault_free_run_builds_no_node_view(self):
        inst = general_instance(np.random.default_rng(3), n=12, k=40)
        with mock.patch.object(
            policy_mod, "NodeView", side_effect=AssertionError("NodeView built")
        ):
            res = simulate(inst, DBFLPolicy(), backend="python")
        assert res.throughput > 0

    def test_select_at_leaves_the_buffer_alone(self):
        ps = [Packet(Message(i, i % 3, 4, 0, 9)) for i in range(5)]
        buf = list(ps)
        pol = DBFLPolicy()
        pol.reset(5)
        assert pol.select_at(2, 0, buf) is ps[2]
        assert buf == ps

    def test_overriding_select_alone_drops_the_inherited_select_at(self):
        # a changed rule must not be served by the parent's fast path
        assert EdfSelect.select_at is Policy.select_at
        assert AuditedDBFL.select_at is DBFLPolicy.select_at
        inst = general_instance(np.random.default_rng(3), n=12, k=40)
        with mock.patch.object(policy_mod, "NodeView", wraps=NodeView) as spy:
            simulate(inst, EdfSelect(), backend="python")
        assert spy.call_count > 0

    def test_mixed_in_select_wins_over_an_older_select_at(self):
        class EdfMixin:
            def select(self, view):
                return EDFPolicy().select(view)

        class Mixed(EdfMixin, DBFLPolicy):
            pass

        assert Mixed.select_at is Policy.select_at


# --------------------------------------------------------------------- #
# mesh nodes are (row, col) tuples
# --------------------------------------------------------------------- #


class TestMeshPolicies:
    @pytest.fixture
    def mesh(self):
        from repro.topology import make_mesh_instance

        return make_mesh_instance(
            3, 3, [((0, 0), (2, 2), 0, 8), ((0, 1), (2, 1), 0, 6), ((2, 2), (0, 0), 0, 9)]
        )

    @pytest.mark.parametrize("policy", ["nearest", NearestDestPolicy()])
    def test_nearest_is_refused_with_the_mesh_options(self, mesh, policy):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as info:
            api.solve(mesh, "buffered", "greedy", policy=policy)
        for name in ("'edf'", "'fcfs'", "'laxity'"):
            assert name in str(info.value)

    @pytest.mark.parametrize("policy", ["edf", "fcfs", "laxity"])
    def test_other_policies_run(self, mesh, policy):
        result = api.solve(mesh, "buffered", "greedy", policy=policy)
        assert result.delivered == 3
