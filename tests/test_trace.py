"""Tests for simulator event tracing."""

from repro.baselines import EDFPolicy
from repro.core.dbfl import DBFLPolicy
from repro.core.instance import make_instance
from repro.network import simulate
from repro.trace.events import TraceEvent, TracingPolicy


class TestTracingPolicy:
    def test_transparent_wrapping(self):
        """Tracing must not change the run's outcome."""
        inst = make_instance(8, [(0, 5, 0, 8), (2, 6, 1, 7), (1, 4, 0, 4)])
        plain = simulate(inst, EDFPolicy())
        traced = simulate(inst, TracingPolicy(EDFPolicy()))
        assert traced.delivered_ids == plain.delivered_ids

    def test_records_lifecycle(self):
        inst = make_instance(6, [(1, 4, 2, 9)])
        tracer = TracingPolicy(EDFPolicy())
        simulate(inst, tracer)
        kinds = [e.kind for e in tracer.for_message(0)]
        assert kinds[0] == "release"
        assert kinds.count("forward") == 3
        assert kinds[-1] == "deliver"

    def test_records_drops(self):
        inst = make_instance(4, [(0, 3, 0, 3), (0, 3, 0, 3)])
        tracer = TracingPolicy(EDFPolicy())
        simulate(inst, tracer)
        assert len(tracer.of_kind("drop")) == 1
        assert len(tracer.of_kind("deliver")) == 1

    def test_idle_when_candidates_held(self):
        class Lazy(EDFPolicy):
            def select(self, view):
                # hold everything one step past release
                if view.time == 0:
                    return None
                return super().select(view)

        inst = make_instance(6, [(0, 3, 0, 9)])
        tracer = TracingPolicy(Lazy())
        simulate(inst, tracer)
        idles = tracer.of_kind("idle")
        assert idles and idles[0].time == 0

    def test_control_events_from_dbfl(self):
        inst = make_instance(6, [(0, 4, 0, 8), (1, 5, 0, 9)])
        tracer = TracingPolicy(DBFLPolicy())
        simulate(inst, tracer)
        assert tracer.of_kind("control")  # L values flow

    def test_dbfl_unchanged_under_tracing(self):
        from repro.core.bfl import bfl

        inst = make_instance(8, [(0, 5, 0, 8), (2, 6, 1, 7), (1, 4, 0, 6)])
        traced = simulate(inst, TracingPolicy(DBFLPolicy()))
        assert traced.delivered_ids == bfl(inst).delivered_ids

    def test_reset_clears_events(self):
        inst = make_instance(6, [(0, 3, 0, 9)])
        tracer = TracingPolicy(EDFPolicy())
        simulate(inst, tracer)
        first_count = len(tracer.events)
        simulate(inst, tracer)  # reset() runs inside
        assert len(tracer.events) == first_count

    def test_render_format(self):
        inst = make_instance(6, [(0, 3, 2, 9)])
        tracer = TracingPolicy(EDFPolicy())
        simulate(inst, tracer)
        out = tracer.render(limit=2)
        assert out.startswith("t=2")
        assert "release" in out

    def test_events_chronological(self):
        inst = make_instance(8, [(0, 5, 0, 12), (3, 7, 2, 10)])
        tracer = TracingPolicy(EDFPolicy())
        simulate(inst, tracer)
        times = [e.time for e in tracer.events]
        assert times == sorted(times)

    def test_forward_detail_at_a_ring_wrap(self):
        from repro.topology.ring import RingInstance, RingMessage

        inst = RingInstance(6, (RingMessage(0, 4, 1, 0, 6, n=6),))
        tracer = TracingPolicy(EDFPolicy())
        result = simulate(inst, tracer)
        assert result.delivered_ids == {0}
        forwards = tracer.of_kind("forward")
        assert [e.node for e in forwards] == [4, 5, 0]  # wraps past node 5
        assert [e.detail for e in forwards] == ["hop 1/3", "hop 2/3", "hop 3/3"]
        assert tracer.of_kind("deliver")[0].node == 1

    def test_mesh_run_is_traced(self):
        from repro.topology import make_mesh_instance

        inst = make_mesh_instance(
            3, 3, [((0, 0), (2, 2), 0, 8), ((0, 1), (2, 1), 0, 6), ((2, 0), (0, 2), 1, 9)]
        )
        tracer = TracingPolicy(EDFPolicy())
        traced = simulate(inst, tracer)
        plain = simulate(inst, EDFPolicy())
        assert traced.schedule == plain.schedule
        assert traced.delivered_ids == plain.delivered_ids == {0, 1, 2}
        first = tracer.for_message(0)
        assert [e.node for e in first if e.kind == "forward"] == [
            (0, 0), (0, 1), (0, 2), (1, 2)  # row first, then down the column
        ]
        assert [e.detail for e in first if e.kind == "forward"][-1] == "hop 4/4"
        assert "node (2, 2) msg 0" in tracer.render()
