"""The sweep engine: seeded decomposition + one crash-resilient task runner.

Experiment sweeps decompose into independent *cells* — one (parameter
value, trial) pair, generating its instance from its own spawned seed and
running every scheduler on it.  :func:`run_tasks` executes cells either
serially (``jobs=1``, zero overhead, lambdas welcome) or one future per
cell on a ``ProcessPoolExecutor``; results always come back in task order,
so a table built from them is byte-identical at any ``jobs``.

Determinism is a contract, not an accident: cell seeds come from
``numpy.random.SeedSequence(seed).spawn(...)`` (:func:`spawn_rngs` /
:func:`spawn_seeds`), so no cell's randomness depends on execution order
or worker placement.

Failure handling is one :class:`ResilienceConfig`.  The default,
:data:`ONE_SHOT`, re-raises the first task error or pool crash; a
configured run adds four recovery mechanisms:

* **retry with exponential backoff** — a task that raises is re-run up to
  ``max_attempts`` times (transient failures: flaky I/O, resource
  pressure), sleeping 50 ms, doubling, between rounds;
* **pool respawn** — a ``BrokenProcessPool`` (worker died mid-task) is
  survived by respawning the pool and re-running *only the missing
  cells*.  Because cell seeds are pre-spawned, re-running a cell is
  exact: the recovered sweep is byte-identical to a fault-free ``jobs=1``
  run;
* **per-task timeouts** — a task that exceeds ``task_timeout`` seconds is
  treated as hung: the pool is killed and respawned, and the task retried
  (counted against ``max_attempts``; exhaustion raises
  :class:`repro.errors.TaskTimeoutError`).  Timeouts require the pool
  path; the serial path cannot interrupt a running task and ignores them;
* **JSONL checkpointing** — with ``checkpoint=<path>`` every completed
  cell is appended to a journal keyed by task function and task count; a
  re-run of the same sweep resumes from it, re-computing only missing
  cells.  Results, cache deltas and observability deltas are all
  journaled, so a resumed run's table (footnotes included) matches the
  uninterrupted one.

Tasks go to the pool one future per cell, never in chunks: chunk members
share fates, which is exactly what recovery must avoid.

Each task additionally reports the solver-cache hit/miss delta it
produced in its worker process (:mod:`repro.engine.cache`); the engine
aggregates the deltas so callers can surface exact-solver reuse in table
footers.  Failure handling is instrumented through :mod:`repro.obs`:
``engine.retries``, ``engine.pool_respawns``, ``engine.task_timeouts``,
``engine.checkpoint_resumed`` counters plus per-incident events.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..backend import resolve_backend, use_backend
from ..errors import TaskTimeoutError
from .cache import CacheStats, default_cache

__all__ = [
    "Engine", "ONE_SHOT", "ResilienceConfig", "resolve_jobs", "run_tasks",
    "spawn_rngs", "spawn_seeds",
]

_BACKOFF = 0.05  # seconds before a task's first retry; doubles per attempt


@dataclass(frozen=True)
class ResilienceConfig:
    """Recovery knobs for one sweep (see the module docstring)."""

    task_timeout: float | None = None
    max_attempts: int = 3
    max_respawns: int = 3
    checkpoint: str | Path | None = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")


#: No recovery: the first task error or pool crash re-raises.
ONE_SHOT = ResilienceConfig(max_attempts=1, max_respawns=0)


@dataclass(frozen=True)
class Engine:
    """A sweep-execution handle: worker count + recovery, ready to ``map``.

    Experiments accept one of these through their uniform
    ``run(cfg, *, engine=None, obs=None)`` signature
    (:mod:`repro.experiments.base`), so callers configure parallelism once
    instead of threading ``jobs=`` keywords through every module.

    ``resilience`` (a :class:`ResilienceConfig`, default :data:`ONE_SHOT`)
    sets per-task timeouts, retries, pool respawns and checkpoint/resume.
    Results are identical either way; only failure handling differs.

    ``backend`` pins the execution backend (:mod:`repro.backend`) every
    task runs under.  ``None`` resolves the ambient backend *at submit
    time* and ships it inside each task payload, so pool workers — which
    do not inherit the parent's context variables — still honour a
    ``repro.use_backend(...)`` block around the sweep.
    """

    jobs: int | None = 1
    resilience: ResilienceConfig | None = None
    backend: str | None = None

    def map(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[tuple] | Iterable[tuple],
        *,
        timeout: float | None = None,
    ) -> tuple[list[Any], CacheStats]:
        """Run ``fn(*args)`` per task via :func:`run_tasks` with this config.

        ``timeout`` caps each task's wall time for *this call only* (the
        serving tier's deadline chain threads a batch's tightest
        remaining deadline through here), so a hung task raises
        :class:`~repro.errors.TaskTimeoutError` once its attempts run
        out.  Like all per-task timeouts it needs the pool path — serial
        execution cannot interrupt a running task and ignores it.
        """
        config = self.resilience or ONE_SHOT
        if timeout is not None and resolve_jobs(self.jobs) > 1:
            if config.task_timeout is not None:
                timeout = min(config.task_timeout, timeout)
            config = dataclasses.replace(config, task_timeout=timeout)
        return run_tasks(
            fn, argslist, jobs=self.jobs, config=config, backend=self.backend
        )


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` request to a positive worker count.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable (then
    1); ``0`` means "all cores".
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer worker count "
                    f"(0 = all cores), got {raw!r}"
                ) from None
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def spawn_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seeds of ``seed``, stable across runs."""
    return list(np.random.SeedSequence(seed).spawn(count))


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Generators over :func:`spawn_seeds` (serial-path convenience)."""
    return [np.random.default_rng(ss) for ss in spawn_seeds(seed, count)]


def _invoke(
    payload: tuple[Callable[..., Any], tuple, str]
) -> tuple[Any, CacheStats, dict[str, float] | None]:
    """Run one task and capture the cache + observability deltas it produced.

    Module-level so it pickles into pool workers; within a worker, tasks
    run sequentially, so a before/after snapshot of the process-wide
    cache and tracer counters isolates this task's contribution.  The
    counter delta is ``None`` when tracing is disabled; worker tracers
    inherit their enabled flag through the ``REPRO_OBS`` environment
    variable (see :func:`repro.obs.configure`).

    The payload carries the execution backend the task must run under
    (resolved at submit time — context variables do not cross the process
    boundary, so it travels in the pickle).
    """
    fn, args, backend = payload
    cache = default_cache()
    before = cache.stats.snapshot()
    tr = obs.tracer()
    with use_backend(backend):
        if tr.enabled:
            counters_before = tr.counters_snapshot()
            t0 = time.perf_counter()
            value = fn(*args)
            tr.count("engine.tasks")
            tr.count("engine.task_seconds", time.perf_counter() - t0)
            obs_delta = tr.counters_since(counters_before)
        else:
            value = fn(*args)
            obs_delta = None
    return value, cache.stats.since(before), obs_delta


class _Checkpoint:
    """Append-only JSONL journal of completed cells.

    Line 1 is a header identifying the sweep (task function qualname +
    cell count); a journal whose header does not match the current run is
    discarded rather than trusted.  Each further line holds one cell's
    ``(value, cache_delta, obs_delta)`` triple, hex-pickled so arbitrary
    result objects survive the round trip.
    """

    def __init__(self, path: str | Path, fn: Callable[..., Any], tasks: int) -> None:
        self.path = Path(path)
        self.signature = {
            "fn": getattr(fn, "__qualname__", repr(fn)),
            "module": getattr(fn, "__module__", ""),
            "tasks": tasks,
        }
        self._fh: Any = None

    def load(self) -> dict[int, tuple]:
        """Completed cells from a previous run (empty on any mismatch)."""
        if not self.path.exists():
            return {}
        out: dict[int, tuple] = {}
        try:
            with self.path.open() as fh:
                header = json.loads(next(fh, "null"))
                if not isinstance(header, dict) or header.get("run") != self.signature:
                    return {}
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    out[int(rec["index"])] = pickle.loads(bytes.fromhex(rec["data"]))
        except (OSError, ValueError, KeyError, TypeError, pickle.PickleError, EOFError):
            # A torn tail line (crash mid-write) invalidates nothing that
            # was already parsed; any other corruption starts fresh.
            return out
        return out

    def open(self, *, fresh: bool) -> None:
        if fresh:
            self._fh = self.path.open("w")
            self._fh.write(json.dumps({"run": self.signature}) + "\n")
        else:
            self._fh = self.path.open("a")
        self._fh.flush()

    def record(self, index: int, triple: tuple) -> None:
        if self._fh is None:
            return
        self._fh.write(
            json.dumps({"index": index, "data": pickle.dumps(triple).hex()}) + "\n"
        )
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _teardown(pool: ProcessPoolExecutor, *, kill: bool) -> None:
    """Shut a pool down: wait for its workers to exit, or kill hung ones."""
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
    pool.shutdown(wait=not kill, cancel_futures=True)


def run_tasks(
    fn: Callable[..., Any],
    argslist: Sequence[tuple] | Iterable[tuple],
    *,
    jobs: int | None = 1,
    config: ResilienceConfig | None = None,
    backend: str | None = None,
) -> tuple[list[Any], CacheStats]:
    """Run ``fn(*args)`` for every ``args`` in ``argslist``.

    Returns ``(results, cache_stats)`` with results in input order.  With
    ``jobs <= 1`` (or a single task) everything runs in-process — the
    serial fallback, bit-compatible with the parallel path because task
    seeds are pre-spawned by the caller.  With ``jobs > 1``, tasks fan
    out over a ``ProcessPoolExecutor``; ``fn`` and the argument tuples
    must then be picklable (module-level functions, no lambdas).

    ``config`` (default :data:`ONE_SHOT`) sets the recovery semantics of
    :class:`ResilienceConfig`.  The call raises only when recovery is
    exhausted: a task failing ``max_attempts`` times re-raises its error,
    a hung task raises :class:`~repro.errors.TaskTimeoutError`, and more
    than ``max_respawns`` pool crashes re-raise ``BrokenProcessPool``.

    ``backend`` (``None`` = the ambient backend at submit time) is
    resolved once and pickled into every task payload, so serial and
    pool execution run tasks under the same :mod:`repro.backend` choice.
    """
    config = config or ONE_SHOT
    eff_backend = resolve_backend(backend)
    payloads = [(fn, tuple(args), eff_backend) for args in argslist]
    jobs = resolve_jobs(jobs)
    n = len(payloads)
    tr = obs.tracer()
    t0 = time.perf_counter() if tr.enabled else 0.0

    done: list[tuple | None] = [None] * n
    attempts = [0] * n
    resumed: set[int] = set()
    retries = respawns = 0

    ckpt: _Checkpoint | None = None
    if config.checkpoint is not None:
        ckpt = _Checkpoint(config.checkpoint, fn, n)
        for i, triple in ckpt.load().items():
            if 0 <= i < n:
                done[i] = triple
                resumed.add(i)
        ckpt.open(fresh=not resumed)
        if resumed:
            tr.count("engine.checkpoint_resumed", len(resumed))

    def record(i: int, triple: tuple) -> None:
        done[i] = triple
        if ckpt is not None:
            ckpt.record(i, triple)

    def retry(i: int, exc: Exception) -> float | None:
        """Count task ``i``'s failure: its backoff, or ``None`` when out of attempts."""
        nonlocal retries
        attempts[i] += 1
        if attempts[i] >= config.max_attempts:
            return None
        retries += 1
        tr.count("engine.retries")
        tr.event("engine.retry", index=i, attempt=attempts[i], error=repr(exc))
        return _BACKOFF * 2 ** (attempts[i] - 1)

    serial = jobs <= 1 or n <= 1
    try:
        if serial:
            for i in range(n):
                while done[i] is None:
                    try:
                        record(i, _invoke(payloads[i]))
                    except Exception as exc:
                        backoff = retry(i, exc)
                        if backoff is None:
                            raise
                        time.sleep(backoff)
        else:
            pool = ProcessPoolExecutor(max_workers=jobs)
            hung = False
            try:
                while todo := [i for i in range(n) if done[i] is None]:
                    futures = {i: pool.submit(_invoke, payloads[i]) for i in todo}
                    lost = False
                    sleep_for = 0.0
                    for i in todo:
                        fut = futures[i]
                        if lost:
                            # The pool is already lost this round: harvest
                            # whatever finished before the incident and
                            # leave the rest for the next round.
                            if fut.done() and not fut.cancelled() and fut.exception() is None:
                                record(i, fut.result())
                            continue
                        try:
                            record(i, fut.result(timeout=config.task_timeout))
                        except BrokenProcessPool:
                            respawns += 1
                            tr.count("engine.pool_respawns")
                            tr.event("engine.pool_respawn", after_task=i, respawn=respawns)
                            if respawns > config.max_respawns:
                                raise
                            lost = True
                        except _FutureTimeout:
                            attempts[i] += 1
                            tr.count("engine.task_timeouts")
                            tr.event("engine.task_timeout", index=i, attempt=attempts[i])
                            # A hung worker cannot be cancelled — kill the
                            # whole pool, and re-run the missing cells.
                            lost = hung = True
                            if attempts[i] >= config.max_attempts:
                                raise TaskTimeoutError(
                                    f"task {i} exceeded its {config.task_timeout}s "
                                    f"timeout on {attempts[i]} attempt(s)"
                                ) from None
                        except Exception as exc:
                            backoff = retry(i, exc)
                            if backoff is None:
                                raise
                            sleep_for = max(sleep_for, backoff)
                    if lost:
                        _teardown(pool, kill=hung)
                        hung = False
                        pool = ProcessPoolExecutor(max_workers=jobs)
                    if sleep_for:
                        time.sleep(sleep_for)
            finally:
                _teardown(pool, kill=hung)
    finally:
        if ckpt is not None:
            ckpt.close()

    results: list[Any] = []
    stats = CacheStats()
    for i, triple in enumerate(done):
        value, delta, obs_delta = triple
        results.append(value)
        stats.merge(delta)
        # Serial fresh cells already counted on the parent tracer inside
        # _invoke; pool cells and checkpoint-loaded cells did not.
        if not serial or i in resumed:
            tr.merge_counts(obs_delta)
    if tr.enabled:
        tr.record_span(
            "engine.run_tasks",
            t0,
            tasks=n,
            jobs=jobs,
            retries=retries,
            respawns=respawns,
            resumed=len(resumed),
        )
    return results, stats
