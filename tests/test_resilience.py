"""The sweep engine's recovery: retries, respawns, timeouts, checkpoints."""

from __future__ import annotations

import os
import pathlib
import pickle

import numpy as np
import pytest

from repro.engine import (
    Engine,
    ResilienceConfig,
    resolve_jobs,
    run_tasks,
    spawn_seeds,
)
from repro.errors import TaskTimeoutError

# --------------------------------------------------------------------- #
# Worker task functions — module level so pool workers can unpickle them.
# --------------------------------------------------------------------- #


def _seed_mean(seed_seq):
    rng = np.random.default_rng(seed_seq)
    return float(rng.random(16).mean())


def _crash_once(seed_seq, index, crash_index, marker_dir):
    """Simulated segfault: hard-exit the worker the first time only."""
    if index == crash_index:
        marker = pathlib.Path(marker_dir) / f"crashed_{index}"
        if not marker.exists():
            marker.write_text("")
            os._exit(1)
    return _seed_mean(seed_seq)


def _flaky_once(x, marker_dir):
    marker = pathlib.Path(marker_dir) / f"flaky_{x}"
    if not marker.exists():
        marker.write_text("")
        raise OSError("transient failure")
    return x + 100


def _always_fails(x):
    raise ValueError(f"task {x} is hopeless")


def _hang_one(x):
    if x == 2:
        import time

        time.sleep(60)
    return x


# --------------------------------------------------------------------- #
# ResilienceConfig / resolve_jobs
# --------------------------------------------------------------------- #


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ResilienceConfig(task_timeout=0)
        with pytest.raises(ValueError, match="max_attempts"):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError, match="max_respawns"):
            ResilienceConfig(max_respawns=-1)

    def test_resolve_jobs_rejects_non_numeric_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match=r"REPRO_JOBS.*'many'"):
            resolve_jobs(None)

    def test_resolve_jobs_accepts_numeric_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3


# --------------------------------------------------------------------- #
# run_tasks recovery
# --------------------------------------------------------------------- #


class TestResilientRunner:
    def test_serial_matches_run_tasks(self):
        tasks = [(s,) for s in spawn_seeds(7, 6)]
        expected, _ = run_tasks(_seed_mean, tasks, jobs=1, config=None)
        got, _ = run_tasks(
            _seed_mean, tasks, jobs=1, config=ResilienceConfig(max_attempts=2)
        )
        assert got == expected

    def test_worker_crash_recovered_byte_identical(self, tmp_path):
        """An os._exit mid-task breaks the pool; recovery re-runs only the
        missing cells and the result matches a fault-free jobs=1 run."""
        seeds = spawn_seeds(11, 8)
        tasks = [(s, i, 3, str(tmp_path)) for i, s in enumerate(seeds)]
        expected, _ = run_tasks(_seed_mean, [(s,) for s in seeds], jobs=1)
        got, _ = run_tasks(
            _crash_once, tasks, jobs=2, config=ResilienceConfig(max_respawns=2)
        )
        assert (tmp_path / "crashed_3").exists()
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_pool_crash_with_no_respawn_budget_reraises(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        tasks = [(s, i, 0, str(tmp_path)) for i, s in enumerate(spawn_seeds(1, 4))]
        with pytest.raises(BrokenProcessPool):
            run_tasks(
                _crash_once, tasks, jobs=2, config=ResilienceConfig(max_respawns=0)
            )

    def test_retry_with_backoff(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(4)]
        got, _ = run_tasks(
            _flaky_once,
            tasks,
            jobs=2,
            config=ResilienceConfig(max_attempts=3),
        )
        assert got == [100, 101, 102, 103]

    def test_retry_serial(self, tmp_path):
        got, _ = run_tasks(
            _flaky_once,
            [(9, str(tmp_path))],
            jobs=1,
            config=ResilienceConfig(max_attempts=2),
        )
        assert got == [109]

    def test_retry_exhaustion_reraises(self):
        with pytest.raises(ValueError, match="hopeless"):
            run_tasks(
                _always_fails,
                [(0,)],
                jobs=1,
                config=ResilienceConfig(max_attempts=2),
            )

    def test_hung_task_raises_timeout_error(self):
        with pytest.raises(TaskTimeoutError, match="exceeded"):
            run_tasks(
                _hang_one,
                [(i,) for i in range(4)],
                jobs=2,
                config=ResilienceConfig(task_timeout=0.5, max_attempts=2),
            )

    def test_no_worker_outlives_the_call(self):
        """A normal return waits for the pool's workers; a timeout kills them."""
        import multiprocessing
        import time

        before = set(multiprocessing.active_children())
        run_tasks(_seed_mean, [(s,) for s in spawn_seeds(2, 4)], jobs=2)
        assert set(multiprocessing.active_children()) <= before
        with pytest.raises(TaskTimeoutError):
            run_tasks(
                _hang_one,
                [(i,) for i in range(4)],
                jobs=2,
                config=ResilienceConfig(task_timeout=0.5, max_attempts=1),
            )
        deadline = time.monotonic() + 10
        while set(multiprocessing.active_children()) - before:
            assert time.monotonic() < deadline, "hung worker was not killed"
            time.sleep(0.05)

    def test_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "journal.jsonl"
        tasks = [(s,) for s in spawn_seeds(5, 5)]
        expected, _ = run_tasks(
            _seed_mean, tasks, jobs=1, config=ResilienceConfig(checkpoint=ck)
        )
        # Simulate a crash after two completed cells: keep header + 2 records.
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:3]) + "\n")
        got, _ = run_tasks(
            _seed_mean, tasks, jobs=1, config=ResilienceConfig(checkpoint=ck)
        )
        assert got == expected

    def test_checkpoint_signature_mismatch_recomputes(self, tmp_path):
        ck = tmp_path / "journal.jsonl"
        tasks = [(s,) for s in spawn_seeds(5, 3)]
        run_tasks(
            _seed_mean, tasks, jobs=1, config=ResilienceConfig(checkpoint=ck)
        )
        # A different sweep shape must not trust the stale journal.
        more = [(s,) for s in spawn_seeds(5, 4)]
        expected, _ = run_tasks(_seed_mean, more, jobs=1)
        got, _ = run_tasks(
            _seed_mean, more, jobs=1, config=ResilienceConfig(checkpoint=ck)
        )
        assert got == expected


# --------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------- #


class TestEngineIntegration:
    def test_engine_routes_through_resilient_runner(self):
        tasks = [(s,) for s in spawn_seeds(3, 6)]
        expected, _ = run_tasks(_seed_mean, tasks, jobs=1)
        engine = Engine(jobs=2, resilience=ResilienceConfig(max_attempts=2))
        got, _ = engine.map(_seed_mean, tasks)
        assert got == expected

    def test_map_timeout_raises_after_one_attempt(self):
        with pytest.raises(TaskTimeoutError, match="on 1 attempt"):
            Engine(jobs=2).map(_hang_one, [(i,) for i in range(4)], timeout=0.5)

    def test_sweep_table_identical_under_resilient_engine(self):
        from repro.experiments import e15_faults
        from repro.experiments.base import RunConfig

        serial = e15_faults.run(RunConfig(seed=11, trials=2))
        resilient = e15_faults.run(
            RunConfig(seed=11, trials=2),
            engine=Engine(jobs=2, resilience=ResilienceConfig()),
        )
        assert serial.render() == resilient.render()
