"""Tests for the sweep engine: result cache, process pool, determinism."""

import os
import pickle

import numpy as np
import pytest

from repro.core.bfl_fast import bfl_fast
from repro.core.instance import Instance
from repro.core.message import Message
from repro.engine import (
    CacheStats,
    Engine,
    ResultCache,
    cached_bfl,
    resolve_jobs,
    run_tasks,
    spawn_rngs,
    spawn_seeds,
)
from repro.engine import cache as cache_mod
from repro.workloads import general_instance


def _inst(seed=0, n=10, k=6):
    return general_instance(np.random.default_rng(seed), n=n, k=k)


# --------------------------------------------------------------------- #
# Content hashing
# --------------------------------------------------------------------- #


class TestContentHash:
    def test_order_independent(self):
        a = Message(0, 0, 3, 0, 5)
        b = Message(1, 2, 6, 1, 9)
        assert Instance(8, (a, b)).content_hash == Instance(8, (b, a)).content_hash

    def test_sensitive_to_fields(self):
        base = Instance(8, (Message(0, 0, 3, 0, 5),))
        assert base.content_hash != Instance(9, (Message(0, 0, 3, 0, 5),)).content_hash
        assert base.content_hash != Instance(8, (Message(0, 0, 3, 0, 6),)).content_hash

    def test_stable_across_objects(self):
        assert _inst(3).content_hash == _inst(3).content_hash


# --------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_memoizes(self):
        cache = ResultCache()
        inst = _inst()
        calls = []

        def solver(instance, **params):
            calls.append(1)
            return bfl_fast(instance)

        first = cache.call("bfl", solver, inst)
        second = cache.call("bfl", solver, inst)
        assert first == second and len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_params_distinguish_entries(self):
        cache = ResultCache()
        inst = _inst()
        cache.call("bfl", lambda i, **p: bfl_fast(i, **p), inst, clip_slack=False)
        cache.call("bfl", lambda i, **p: bfl_fast(i, **p), inst, clip_slack=True)
        assert cache.stats.misses == 2

    def test_disk_persistence(self, tmp_path):
        inst = _inst()
        first = ResultCache(directory=tmp_path)
        result = first.call("bfl", lambda i, **p: bfl_fast(i), inst)
        # a fresh cache object (fresh process, in spirit) finds it on disk
        second = ResultCache(directory=tmp_path)
        assert second.call("bfl", lambda i, **p: bfl_fast(i), inst) == result
        assert second.stats.hits == 1 and second.stats.misses == 0

    def test_disk_files_are_pickles(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.call("bfl", lambda i, **p: bfl_fast(i), _inst())
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        with open(files[0], "rb") as fh:
            pickle.load(fh)  # loads cleanly

    def test_clear(self):
        cache = ResultCache()
        inst = _inst()
        cache.call("bfl", lambda i, **p: bfl_fast(i), inst)
        cache.clear()
        assert cache.memory == {} and cache.stats.total == 0
        cache.call("bfl", lambda i, **p: bfl_fast(i), inst)
        assert cache.stats.misses == 1  # recomputed, not served from memory

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setattr(cache_mod, "_default", None)
        inst = _inst()
        cache = cache_mod.default_cache()
        assert cache.enabled is False
        assert cached_bfl(inst) == bfl_fast(inst)
        assert cache.stats.total == 0  # bypassed entirely
        monkeypatch.setattr(cache_mod, "_default", None)  # don't leak to other tests


class TestCacheStats:
    def test_snapshot_delta(self):
        stats = CacheStats()
        stats.hits, stats.misses = 3, 1
        snap = stats.snapshot()
        stats.hits, stats.misses = 5, 4
        delta = stats.since(snap)
        assert (delta.hits, delta.misses) == (2, 3)

    def test_merge_and_footnote(self):
        total = CacheStats()
        part = CacheStats()
        part.hits, part.misses = 3, 1
        total.merge(part)
        total.merge(part)
        assert (total.hits, total.misses) == (6, 2)
        assert "6 hits" in total.footnote() and "75%" in total.footnote()


# --------------------------------------------------------------------- #
# Pool
# --------------------------------------------------------------------- #


def _affine(x, offset):
    return x * x + offset


class TestRunTasks:
    def test_serial_matches_input_order(self):
        results, stats = run_tasks(_affine, [(i, 0) for i in range(6)], jobs=1)
        assert results == [0, 1, 4, 9, 16, 25]
        assert isinstance(stats, CacheStats)

    def test_parallel_matches_serial(self):
        argslist = [(i, 1) for i in range(20)]
        serial, _ = run_tasks(_affine, argslist, jobs=1)
        parallel, _ = run_tasks(_affine, argslist, jobs=4)
        assert parallel == serial

    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(None) == 7
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(42, 5)
        b = spawn_seeds(42, 5)
        assert [(s.entropy, s.spawn_key) for s in a] == [
            (s.entropy, s.spawn_key) for s in b
        ]
        draws = [int(rng.integers(0, 1 << 30)) for rng in spawn_rngs(42, 5)]
        assert len(set(draws)) == 5  # streams are independent


# --------------------------------------------------------------------- #
# End to end: engine-backed experiments are job-count invariant
# --------------------------------------------------------------------- #


class TestEngineExperiments:
    def test_e12_identical_across_job_counts(self):
        from repro.experiments import e12_load_sweep

        serial = e12_load_sweep.run(seed=7, trials=2, engine=Engine(jobs=1))
        parallel = e12_load_sweep.run(seed=7, trials=2, engine=Engine(jobs=4))
        assert parallel.rows == serial.rows

    def test_e2_identical_across_job_counts(self):
        from repro.experiments import e2_bfl_ratio

        serial = e2_bfl_ratio.run(seed=7, trials=2, engine=Engine(jobs=1))
        parallel = e2_bfl_ratio.run(seed=7, trials=2, engine=Engine(jobs=4))
        assert parallel.rows == serial.rows

    def test_footnote_reports_cache_traffic(self):
        from repro.experiments import e2_bfl_ratio

        table = e2_bfl_ratio.run(seed=7, trials=2, engine=Engine(jobs=1))
        rendered = table.render()
        assert "solver cache:" in rendered
