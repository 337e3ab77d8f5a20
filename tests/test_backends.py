"""Execution-backend tests: dispatch, parity, cache keys, pool pinning.

The numpy backend's whole contract is *bit-identical, just faster* — so
most of this file is seeded parity sweeps (kernel and simulator) plus
regression tests for the places where the backend choice must travel:
the solver cache key, pool task payloads, and ``api.solve`` telemetry.
"""

from __future__ import annotations

import os
import random
import timeit
from unittest import mock

import numpy as np
import pytest

from repro import api
from repro.backend import (
    BACKENDS,
    current_backend,
    resolve_backend,
    use_backend,
)
from repro.buffers import ADMISSION_POLICIES
from repro.baselines.buffered_greedy import (
    EDFPolicy,
    FCFSPolicy,
    MinLaxityPolicy,
    NearestDestPolicy,
)
from repro.core.bfl_fast import bfl_fast
from repro.core.bfl_vec import bfl_kernel, bfl_vec, bfl_vec_batch
from repro.core.instance import Instance
from repro.core.message import Message
from repro.engine import cache as cache_mod
from repro.engine.cache import ResultCache, cached_bfl
from repro.engine.pool import run_tasks
from repro.network.faults import FaultPlan, LinkFailure, NodeStall
from repro.network.simulator import simulate
from repro.topology.ring import RingInstance, RingMessage
from repro.workloads import general_instance

POLICIES = (EDFPolicy, FCFSPolicy, MinLaxityPolicy, NearestDestPolicy)


# --------------------------------------------------------------------- #
# Seeded generators (plain random.Random: cheap, order-stable)
# --------------------------------------------------------------------- #


def rand_line(rng: random.Random) -> Instance:
    n = rng.randint(3, 24)
    k = rng.randint(0, 40)
    ids = list(range(1, k + 1))
    rng.shuffle(ids)
    msgs = []
    for mid in ids:
        src = rng.randint(0, n - 2)
        dst = rng.randint(src + 1, n - 1)
        rel = rng.randint(0, 25)
        slack = rng.randint(-3, 10)
        dl = max(rel + (dst - src), rel + (dst - src) + slack)
        msgs.append(Message(id=mid, source=src, dest=dst, release=rel, deadline=dl))
    return Instance(n=n, messages=tuple(msgs))


def rand_ring(rng: random.Random) -> RingInstance:
    n = rng.randint(3, 16)
    k = rng.randint(0, 30)
    ids = list(range(1, k + 1))
    rng.shuffle(ids)
    msgs = []
    for mid in ids:
        src = rng.randint(0, n - 1)
        span = rng.randint(1, n - 1)
        rel = rng.randint(0, 20)
        slack = rng.randint(-2, 8)
        dl = max(rel + span, rel + span + slack)
        msgs.append(
            RingMessage(
                id=mid,
                n=n,
                source=src,
                dest=(src + span) % n,
                release=rel,
                deadline=dl,
            )
        )
    return RingInstance(n=n, messages=tuple(msgs))


def rand_faults(rng: random.Random, n: int) -> FaultPlan:
    def window() -> tuple[int, int]:
        s = rng.randint(0, 20)
        return s, s + rng.randint(1, 10)

    lf = []
    for _ in range(rng.randint(0, 3)):
        s, e = window()
        lf.append(LinkFailure(link=rng.randint(0, n - 1), start=s, end=e))
    ns = []
    for _ in range(rng.randint(0, 3)):
        s, e = window()
        ns.append(NodeStall(node=rng.randint(0, n - 1), start=s, end=e))
    return FaultPlan(
        link_failures=tuple(lf),
        node_stalls=tuple(ns),
        drop_rate=rng.choice([0.0, 0.1, 0.35]),
        drop_seed=rng.randint(0, 10**6),
    )


# --------------------------------------------------------------------- #
# Dispatch plumbing
# --------------------------------------------------------------------- #


class TestDispatch:
    def test_default_is_python(self):
        assert resolve_backend(None) == "python"
        assert current_backend() is None  # no pin outside use_backend

    def test_explicit_wins(self):
        with use_backend("numpy"):
            assert resolve_backend("python") == "python"

    def test_ambient_context(self):
        with use_backend("numpy"):
            assert current_backend() == "numpy"
            assert resolve_backend(None) == "numpy"
        assert current_backend() is None

    def test_environment_variable(self):
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": "numpy"}):
            assert resolve_backend(None) == "numpy"
        # ambient context still outranks the environment
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": "numpy"}):
            with use_backend("python"):
                assert resolve_backend(None) == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("fortran")
        with pytest.raises(ValueError, match="backend"):
            with use_backend("cuda"):
                pass  # pragma: no cover

    def test_backends_tuple(self):
        assert BACKENDS == ("python", "numpy")


# --------------------------------------------------------------------- #
# Kernel parity: bfl_vec is bfl_fast, byte for byte
# --------------------------------------------------------------------- #


def _rand_kernel_instance(rng: random.Random, n=None, k=None) -> Instance:
    n = n or rng.randint(4, 40)
    k = k if k is not None else rng.randint(0, 60)
    ids = list(range(1, k + 1))
    rng.shuffle(ids)
    msgs = []
    for mid in ids:
        src = rng.randint(0, n - 2)
        dst = rng.randint(src + 1, n - 1)
        rel = rng.randint(0, 30)
        slack = rng.randint(-3, 12)
        dl = max(rel + (dst - src), rel + (dst - src) + slack)
        msgs.append(Message(id=mid, source=src, dest=dst, release=rel, deadline=dl))
    return Instance(n=n, messages=tuple(msgs))


class TestKernelParity:
    def test_seeded_sweep(self):
        for seed in range(120):
            rng = random.Random(seed)
            inst = _rand_kernel_instance(rng)
            for clip in (False, True):
                assert bfl_vec(inst, clip_slack=clip) == bfl_fast(
                    inst, clip_slack=clip
                ), f"kernel parity broke at seed={seed} clip={clip}"

    def test_batch_matches_singles(self):
        rng = random.Random(99)
        batch = [_rand_kernel_instance(rng, n=48, k=200) for _ in range(8)]
        for got, want in zip(bfl_vec_batch(batch), [bfl_fast(i) for i in batch]):
            assert got == want

    def test_bfl_kernel_dispatches(self):
        inst = _rand_kernel_instance(random.Random(3))
        assert bfl_kernel(inst, backend="numpy") == bfl_kernel(inst, backend="python")
        with use_backend("numpy"):
            assert bfl_kernel(inst) == bfl_fast(inst)


# --------------------------------------------------------------------- #
# Simulator parity: 200+ random seeds, line + ring, faults, capacities
# --------------------------------------------------------------------- #


def _assert_sim_parity(
    inst, policy_cls, faults, cap, tag: str, admission: str | None = None
) -> None:
    kw = {} if admission is None else {"admission": admission}
    a = simulate(
        inst, policy_cls(), faults=faults, buffer_capacity=cap, backend="python", **kw
    )
    b = simulate(
        inst, policy_cls(), faults=faults, buffer_capacity=cap, backend="numpy", **kw
    )
    assert a.schedule == b.schedule, f"schedule diverged: {tag}"
    assert a.delivered_ids == b.delivered_ids, f"delivered diverged: {tag}"
    assert a.drop_events == b.drop_events, f"drop events diverged: {tag}"
    assert a.launch_events == b.launch_events, f"launch events diverged: {tag}"
    assert a.stats == b.stats, f"stats diverged: {tag}"


class TestSimulatorParity:
    @pytest.mark.parametrize("block", range(10))
    def test_seeded_sweep(self, block):
        # 10 blocks x 20 seeds = 200 seeds; each seed exercises line and
        # ring under one policy, with and without a fault plan, at
        # unbounded and finite buffer capacity: 1600 paired runs total.
        for seed in range(block * 20, block * 20 + 20):
            rng = random.Random(seed)
            for maker, shape in ((rand_line, "line"), (rand_ring, "ring")):
                inst = maker(rng)
                pol = POLICIES[seed % 4]
                for fmode in ("none", "plan"):
                    faults = rand_faults(rng, inst.n) if fmode == "plan" else None
                    for cap in (None, rng.randint(0, 3)):
                        _assert_sim_parity(
                            inst,
                            pol,
                            faults,
                            cap,
                            f"seed={seed} {shape} {pol.__name__} "
                            f"faults={fmode} cap={cap}",
                        )

    @pytest.mark.parametrize("admission", ADMISSION_POLICIES)
    def test_admission_sweep(self, admission):
        # fast tier-1 subset of the bounded-buffer envelope: every
        # admission policy, line + ring, finite capacities, alternating
        # fault plans — the REPRO_BENCH_FULL sweep below scales this up
        for seed in range(12):
            rng = random.Random(7000 + seed)
            for maker, shape in ((rand_line, "line"), (rand_ring, "ring")):
                inst = maker(rng)
                pol = POLICIES[seed % 4]
                faults = rand_faults(rng, inst.n) if seed % 2 else None
                cap = rng.randint(0, 2)
                _assert_sim_parity(
                    inst,
                    pol,
                    faults,
                    cap,
                    f"seed={seed} {shape} {pol.__name__} {admission} cap={cap}",
                    admission=admission,
                )

    def test_instance_carried_capacity_matches_kwarg(self):
        # `Instance.buffer_capacity` and the simulate(buffer_capacity=)
        # kwarg must be the same model, on both backends
        rng = random.Random(31)
        inst = rand_line(rng)
        for backend in ("python", "numpy"):
            a = simulate(inst.with_buffer_capacity(1), EDFPolicy(), backend=backend)
            b = simulate(inst, EDFPolicy(), buffer_capacity=1, backend=backend)
            assert (a.schedule, a.delivered_ids, a.drop_events, a.stats) == (
                b.schedule,
                b.delivered_ids,
                b.drop_events,
                b.stats,
            )

    @pytest.mark.skipif(
        not os.environ.get("REPRO_BENCH_FULL"),
        reason="long bounded-buffer parity sweep (set REPRO_BENCH_FULL=1)",
    )
    def test_admission_sweep_full(self):
        # 100 seeds x 3 admissions x line/ring x faults on/off x caps 0-3
        for admission in ADMISSION_POLICIES:
            for seed in range(100):
                rng = random.Random(90000 + seed)
                for maker, shape in ((rand_line, "line"), (rand_ring, "ring")):
                    inst = maker(rng)
                    pol = POLICIES[seed % 4]
                    for fmode in ("none", "plan"):
                        faults = rand_faults(rng, inst.n) if fmode == "plan" else None
                        for cap in (0, rng.randint(1, 3)):
                            _assert_sim_parity(
                                inst,
                                pol,
                                faults,
                                cap,
                                f"seed={seed} {shape} {pol.__name__} "
                                f"{admission} faults={fmode} cap={cap}",
                                admission=admission,
                            )

    def test_unsupported_policy_falls_back(self):
        class CustomEDF(EDFPolicy):
            pass

        inst = rand_line(random.Random(5))
        # a subclass is outside the vectorized envelope (it may override
        # anything) — the numpy request must still produce EDF's answer
        # via the python loop, not crash
        a = simulate(inst, CustomEDF(), backend="numpy")
        b = simulate(inst, EDFPolicy(), backend="python")
        assert a.delivered_ids == b.delivered_ids

    def test_mesh_falls_back(self):
        from repro.topology.mesh import MeshInstance, MeshMessage

        inst = MeshInstance(
            rows=3,
            cols=3,
            messages=(
                MeshMessage(id=1, source=(0, 0), dest=(2, 2), release=0, deadline=10),
            ),
        )
        a = simulate(inst, EDFPolicy(), backend="numpy")
        b = simulate(inst, EDFPolicy(), backend="python")
        assert a.delivered_ids == b.delivered_ids == frozenset({1})


# --------------------------------------------------------------------- #
# Facade + cache + pool threading
# --------------------------------------------------------------------- #


class TestSolveBackend:
    def test_telemetry_and_parity(self):
        inst = rand_line(random.Random(11))
        py = api.solve(inst, "bufferless", "bfl", backend="python")
        vec = api.solve(inst, "bufferless", "bfl", backend="numpy")
        assert py.telemetry["backend"] == "python"
        assert vec.telemetry["backend"] == "numpy"
        assert py.schedule == vec.schedule

    def test_simulated_method_honours_backend(self):
        inst = rand_line(random.Random(12))
        py = api.solve(inst, "buffered", "greedy", policy="edf", backend="python")
        vec = api.solve(inst, "buffered", "greedy", policy="edf", backend="numpy")
        assert py.schedule == vec.schedule
        assert py.delivered == vec.delivered

    def test_online_backend_parity(self):
        from repro.online import run_online

        inst = rand_line(random.Random(13))
        py = run_online(inst, "greedy", backend="python")
        vec = run_online(inst, "greedy", backend="numpy")
        assert py == vec


class TestCacheKeys:
    def test_backend_segregates_key(self):
        inst = rand_line(random.Random(21))
        base = ResultCache.key(inst, "bfl", {"clip_slack": False})
        py = ResultCache.key(inst, "bfl", {"clip_slack": False}, backend="python")
        vec = ResultCache.key(inst, "bfl", {"clip_slack": False}, backend="numpy")
        assert len({base, py, vec}) == 3

    def test_no_cross_backend_hit(self):
        inst = rand_line(random.Random(22))
        previous = cache_mod._default
        try:
            cache = cache_mod.configure(enabled=True)
            a = cached_bfl(inst, backend="python")
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
            b = cached_bfl(inst, backend="numpy")
            # bit-identical value, but it must NOT have come from the
            # python slot — a cross-hit would mask a parity regression
            assert (cache.stats.hits, cache.stats.misses) == (0, 2)
            assert a == b
            cached_bfl(inst, backend="numpy")
            assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        finally:
            cache_mod._default = previous

    def test_capacity_segregates_key(self):
        # buffer_capacity lives on the instance and flows into
        # content_hash, so bounded/unbounded variants of the same message
        # set occupy distinct cache slots; the unbounded key is the
        # legacy key (byte-identical hash)
        inst = rand_line(random.Random(24))
        base = ResultCache.key(inst, "ca")
        same = ResultCache.key(inst.with_buffer_capacity(None), "ca")
        capped = ResultCache.key(inst.with_buffer_capacity(2), "ca")
        other = ResultCache.key(inst.with_buffer_capacity(3), "ca")
        assert base == same
        assert len({base, capped, other}) == 3

    def test_admission_segregates_key(self):
        inst = rand_line(random.Random(25))
        default = ResultCache.key(inst, "sim", {"admission": "drop-new"})
        evict = ResultCache.key(
            inst, "sim", {"admission": "evict-lowest-priority"}
        )
        assert default != evict

    def test_no_cross_capacity_hit(self):
        inst = rand_line(random.Random(26))
        previous = cache_mod._default
        try:
            cache = cache_mod.configure(enabled=True)
            from repro.engine.cache import cached_ca

            cached_ca(inst)
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
            cached_ca(inst.with_buffer_capacity(1))
            assert (cache.stats.hits, cache.stats.misses) == (0, 2)
            cached_ca(inst)
            assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        finally:
            cache_mod._default = previous

    def test_ambient_backend_reaches_cache_key(self):
        inst = rand_line(random.Random(23))
        previous = cache_mod._default
        try:
            cache = cache_mod.configure(enabled=True)
            with use_backend("numpy"):
                cached_bfl(inst)
            cached_bfl(inst)  # ambient default: python
            assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        finally:
            cache_mod._default = previous


def _report_backend() -> str:
    return current_backend()


class TestPoolBackend:
    def test_serial_tasks_pinned(self):
        results, _ = run_tasks(_report_backend, [()] * 3, jobs=1, backend="numpy")
        assert results == ["numpy"] * 3

    def test_ambient_backend_ships_in_payload(self):
        with use_backend("numpy"):
            results, _ = run_tasks(_report_backend, [()] * 2, jobs=1)
        assert results == ["numpy"] * 2

    def test_pool_workers_pinned(self):
        results, _ = run_tasks(_report_backend, [()] * 2, jobs=2, backend="numpy")
        assert results == ["numpy"] * 2

    def test_engine_field(self):
        from repro.engine import Engine

        results, _ = Engine(jobs=1, backend="numpy").map(_report_backend, [()] * 2)
        assert results == ["numpy"] * 2

    def test_resilient_runner_pinned(self):
        from repro.engine.resilience import run_tasks_resilient

        results, _ = run_tasks_resilient(_report_backend, [()] * 2, jobs=1, backend="numpy")
        assert results == ["numpy"] * 2


# --------------------------------------------------------------------- #
# Bench smoke: tiny scale always; the 10x claim behind REPRO_BENCH_FULL
# --------------------------------------------------------------------- #


def contended_instance(seed: int, n: int, k: int) -> Instance:
    """A deep-queue workload: short spans, tight releases, generous slack.

    Everything arrives within 32 steps, hops only 1-4 links, and can
    afford to wait hundreds of steps — so buffers stay full for the whole
    run.  This is the regime the vectorized simulator exists for: the
    python loop re-scans every buffered packet at every node each step,
    while the numpy loop touches each packet O(hops) times total.
    """
    rng = np.random.default_rng(seed)
    spans = rng.integers(1, 5, size=k)
    srcs = rng.integers(0, n - spans)
    rels = rng.integers(0, 33, size=k)
    slacks = rng.integers(400, 1601, size=k)
    msgs = tuple(
        Message(
            id=i + 1,
            source=int(srcs[i]),
            dest=int(srcs[i] + spans[i]),
            release=int(rels[i]),
            deadline=int(rels[i] + spans[i] + slacks[i]),
        )
        for i in range(k)
    )
    return Instance(n=n, messages=msgs)


class TestBenchSmoke:
    def test_tiny_scale(self):
        # Deep-queue parity first: slack 400-1600 keeps buffers full for
        # the whole run, a regime the rand_line/rand_ring sweeps never reach.
        from repro.online.simulated import online_greedy

        inst = contended_instance(2024, 24, 150)
        _assert_sim_parity(inst, EDFPolicy, None, None, "contended n=24 k=150")
        assert online_greedy(inst, policy="edf", backend="python") == online_greedy(
            inst, policy="edf", backend="numpy"
        ), "online backend parity on contended n=24 k=150"

        # At tiny scale the only perf contract is "vectorization must not
        # hurt": the amortized kernel batch stays within 1.2x of the
        # python scan-line loop.
        rng = np.random.default_rng(2025)
        instances = [
            general_instance(rng, n=32, k=400, max_release=8, max_slack=4)
            for _ in range(24)
        ]
        assert bfl_vec_batch(instances) == [bfl_fast(inst) for inst in instances]

        def loop():
            return [bfl_fast(inst) for inst in instances]

        loop_s = min(timeit.repeat(loop, number=1, repeat=3))
        batch_s = min(timeit.repeat(lambda: bfl_vec_batch(instances), number=1, repeat=3))
        assert batch_s <= 1.2 * loop_s, (batch_s, loop_s)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_BENCH_FULL"),
        reason="full-scale backend bench (set REPRO_BENCH_FULL=1)",
    )
    @pytest.mark.timeout(600)
    def test_full_scale_speedup(self):
        from repro.online.simulated import online_greedy

        inst = contended_instance(2024, 256, 20000)
        runs = {
            "simulate": lambda backend: simulate(inst, EDFPolicy(), backend=backend),
            "online_greedy": lambda backend: online_greedy(
                inst, policy="edf", backend=backend
            ),
        }
        for name, run in runs.items():
            assert run("python") == run("numpy"), f"{name} backend parity"
            py_s = timeit.timeit(lambda: run("python"), number=1)
            vec_s = timeit.timeit(lambda: run("numpy"), number=1)
            assert py_s >= 10.0 * vec_s, (name, py_s, vec_s)
