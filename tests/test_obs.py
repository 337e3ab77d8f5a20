"""Tests for the repro.obs observability subsystem."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.core.bfl_fast import bfl_fast
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.workloads import general_instance

class TestTracer:
    def test_disabled_is_inert(self):
        tr = Tracer(enabled=False)
        assert tr.span("x") is NULL_SPAN
        tr.count("c")
        tr.gauge("g", 1.0)
        tr.event("e")
        tr.record_span("s", 0.0)
        data = obs.to_dict(tr)
        assert data["spans"] == [] and data["counters"] == {}
        assert data["gauges"] == {} and data["events"] == []

    def test_span_nesting(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner", depth=2):
                pass
        spans = {s.name: s for s in tr.spans}
        assert spans["inner"].parent == spans["outer"].id
        assert spans["outer"].parent is None
        assert spans["inner"].attrs["depth"] == 2
        assert spans["inner"].end >= spans["inner"].start

    def test_record_span_hot_path(self):
        tr = Tracer(enabled=True)
        t0 = time.perf_counter()
        tr.record_span("kernel", t0, n=8)
        (rec,) = tr.spans
        assert rec.name == "kernel" and rec.attrs["n"] == 8

    def test_counters_and_timer(self):
        tr = Tracer(enabled=True)
        tr.count("hits")
        tr.count("hits", 2)
        with tr.timer("phase"):
            pass
        assert tr.counters["hits"] == 3
        assert tr.counters["phase.calls"] == 1
        assert tr.counters["phase.seconds"] >= 0

    def test_counter_delta_merge(self):
        tr = Tracer(enabled=True)
        tr.count("a")
        snap = tr.counters_snapshot()
        tr.count("a")
        tr.count("b", 5)
        delta = tr.counters_since(snap)
        assert delta == {"a": 1, "b": 5}
        other = Tracer(enabled=True)
        other.merge_counts(delta)
        assert other.counters == {"a": 1, "b": 5}

    def test_disabled_call_overhead_smoke(self):
        """The disabled fast path must stay within nanoseconds per call."""
        tr = Tracer(enabled=False)
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            if tr.enabled:
                tr.count("x")
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 5e-6  # generous: even slow CI is ~100x under this

    def test_use_context_manager_isolates(self):
        mine = Tracer(enabled=True)
        with obs.use(mine):
            assert obs.tracer() is mine
        assert obs.tracer() is not mine


class TestInstrumentation:
    def test_bfl_emits_counters(self):
        tr = Tracer(enabled=True)
        inst = general_instance(np.random.default_rng(0), n=12, k=10)
        with obs.use(tr):
            schedule = bfl_fast(inst)
        assert tr.counters["bfl.launches"] == 1
        assert tr.counters["bfl.delivered"] == schedule.throughput
        assert tr.counters["bfl.segments_scanned"] >= schedule.throughput
        (rec,) = [s for s in tr.spans if s.name == "bfl.fast"]
        assert rec.attrs["delivered"] == schedule.throughput

    def test_simulator_emits_counters(self):
        from repro.baselines import EDFPolicy
        from repro.network.simulator import simulate

        tr = Tracer(enabled=True)
        inst = general_instance(np.random.default_rng(1), n=10, k=8)
        with obs.use(tr):
            result = simulate(inst, EDFPolicy())
        assert tr.counters["sim.runs"] == 1
        assert tr.counters["sim.delivered"] == result.throughput
        assert tr.counters["sim.steps"] == result.stats.steps

    def test_exact_solver_emits_counters(self):
        from repro.exact import opt_bufferless, opt_bufferless_bnb

        tr = Tracer(enabled=True)
        inst = general_instance(np.random.default_rng(2), n=8, k=6)
        with obs.use(tr):
            opt_bufferless(inst)
            opt_bufferless_bnb(inst)
        # the cut bound is tight here, so no MILP is built
        assert tr.counters["exact.certified"] == 1
        assert "exact.milp.fallbacks" not in tr.counters
        assert "exact.milp.solves" not in tr.counters
        assert tr.counters["exact.bnb.nodes"] > 0

    def test_loose_cut_bound_is_settled_by_search(self):
        from repro.core.instance import make_instance
        from repro.exact import cut_upper_bound, opt_bufferless

        # Every link can fit all three messages (cut bound 3), but message 0
        # needs links 0 and 1 at consecutive steps and each choice collides
        # with a zero-slack message: OPT_BL is 2.
        inst = make_instance(4, [(0, 2, 0, 3), (0, 1, 1, 2), (1, 3, 1, 3)])
        assert cut_upper_bound(inst) == 3
        tr = Tracer(enabled=True)
        with obs.use(tr):
            assert opt_bufferless(inst).throughput == 2
        assert tr.counters["exact.certified"] == 1
        assert "exact.milp.solves" not in tr.counters
        (span,) = [s for s in tr.spans if s.name == "exact.certify.bufferless"]
        assert span.attrs["route"] == "search" and span.attrs["bound"] == 2

    def test_search_cap_falls_back_to_milp(self, monkeypatch):
        from repro.core.instance import make_instance
        from repro.exact import bufferless, opt_bufferless

        monkeypatch.setattr(bufferless, "CERTIFY_NODES", 0)
        inst = make_instance(4, [(0, 2, 0, 3), (0, 1, 1, 2), (1, 3, 1, 3)])
        tr = Tracer(enabled=True)
        with obs.use(tr):
            assert opt_bufferless(inst).throughput == 2
        assert tr.counters["exact.milp.fallbacks"] == tr.counters["exact.milp.solves"] == 1
        assert tr.counters["exact.milp.variables"] > 0
        assert "exact.certified" not in tr.counters

    def test_weighted_solve_skips_the_certificate(self):
        from repro.exact import opt_bufferless

        tr = Tracer(enabled=True)
        inst = general_instance(np.random.default_rng(2), n=8, k=6)
        with obs.use(tr):
            opt_bufferless(inst, weights={m.id: 2.0 for m in inst})
        assert tr.counters["exact.milp.solves"] == 1
        assert "exact.certified" not in tr.counters
        assert "exact.milp.fallbacks" not in tr.counters

    def test_cache_emits_layer_hits(self):
        from repro.engine import cache as cache_mod

        tr = Tracer(enabled=True)
        inst = general_instance(np.random.default_rng(3), n=10, k=8)
        old = cache_mod._default
        cache_mod._default = cache_mod.ResultCache(enabled=True)
        try:
            with obs.use(tr):
                cache_mod.cached_bfl(inst)
                cache_mod.cached_bfl(inst)
        finally:
            cache_mod._default = old
        assert tr.counters["cache.misses"] == 1
        assert tr.counters["cache.hits.memory"] == 1


class _CountingTracer(Tracer):
    """An enabled tracer that counts every call into the obs API."""

    def __init__(self) -> None:
        super().__init__(enabled=True)
        self.api_calls = 0

    def span(self, name, **attrs):
        self.api_calls += 1
        return super().span(name, **attrs)

    def record_span(self, name, start, end=None, **attrs):
        self.api_calls += 1
        super().record_span(name, start, end, **attrs)

    def count(self, name, value=1):
        self.api_calls += 1
        super().count(name, value)

    def gauge(self, name, value):
        self.api_calls += 1
        super().gauge(name, value)

    def event(self, name, **attrs):
        self.api_calls += 1
        super().event(name, **attrs)

    def timer(self, name):
        self.api_calls += 1
        return super().timer(name)


class TestDisabledPathBudget:
    def test_obs_calls_do_not_scale_with_messages(self):
        """The hot layers emit once per call, never per message.

        The disabled tracer's cost is (obs calls per run) x (one
        ``enabled`` check), so a call count that is flat in ``k`` keeps
        that cost a vanishing share of a kernel + simulator run.
        """
        from repro.baselines import EDFPolicy
        from repro.network.simulator import simulate

        calls = {}
        for k in (200, 1000, 3000):
            inst = general_instance(
                np.random.default_rng(7), n=64, k=k, max_release=64, max_slack=12
            )
            counting = _CountingTracer()
            with obs.use(counting):
                bfl_fast(inst)
                simulate(inst, EDFPolicy())
            calls[k] = counting.api_calls
        assert len(set(calls.values())) == 1, calls
        assert calls[200] > 0, calls


class TestExporters:
    def test_jsonl_schema(self, tmp_path):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            tr.count("c", 2)
            tr.gauge("g", 1.5)
            tr.event("milestone", detail="x")
        manifest = obs.RunManifest.collect("unit test", seed=7)
        path = tmp_path / "t.jsonl"
        obs.to_jsonl(tr, path, manifest=manifest)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "manifest"
        assert lines[0]["seed"] == 7
        types = {l["type"] for l in lines}
        assert {"manifest", "span", "counter", "gauge", "event"} <= types
        span = next(l for l in lines if l["type"] == "span")
        assert {"name", "start", "dur", "id", "pid"} <= set(span)
        counter = next(l for l in lines if l["type"] == "counter")
        assert counter["name"] == "c" and counter["value"] == 2

    def test_report_round_trip(self, tmp_path):
        tr = Tracer(enabled=True)
        tr.record_span("phase.a", time.perf_counter())
        tr.count("cache.hits.memory", 3)
        tr.count("cache.misses", 1)
        tr.count("exact.bnb.nodes", 42)
        path = tmp_path / "t.jsonl"
        obs.to_jsonl(tr, path)
        trace = obs.load_trace(path)
        report = obs.render_report(trace, source=str(path))
        assert "phase.a" in report
        assert "75% hit rate" in report
        assert "exact.bnb.nodes = 42" in report

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"\n')
        with pytest.raises(ValueError):
            obs.load_trace(path)

    def test_dict_export_for_tests(self):
        tr = Tracer(enabled=True)
        tr.count("k", 7)
        data = obs.to_dict(tr)
        assert data["counters"]["k"] == 7


class TestManifest:
    def test_collect_and_finish(self):
        m = obs.RunManifest.collect("cmd", config={"x": 1}, seed=3)
        assert m.command == "cmd" and m.seed == 3 and m.config == {"x": 1}
        assert m.python and m.platform
        m.finish(1.25)
        d = m.to_dict()
        assert d["elapsed_seconds"] == 1.25
        assert obs.RunManifest.from_dict(d).command == "cmd"


class TestEngineObsFlow:
    def test_worker_counters_flow_to_parent(self):
        """Counter deltas from pool workers merge into the parent tracer."""
        from repro.engine.pool import run_tasks

        tr = Tracer(enabled=True)
        rngs = [np.random.SeedSequence(i) for i in range(4)]
        with obs.use(tr):
            results, _ = run_tasks(_traced_cell, [(s,) for s in rngs], jobs=1)
        assert tr.counters["engine.tasks"] == 4
        assert tr.counters["bfl.launches"] == 4


def _traced_cell(seed_seq):
    inst = general_instance(np.random.default_rng(seed_seq), n=10, k=8)
    return bfl_fast(inst).throughput
