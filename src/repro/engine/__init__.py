"""The sweep engine: parallel experiment execution + solver memoization.

Two pieces, composable but independent:

* :mod:`repro.engine.pool` — seeded task decomposition and one
  process-pool task runner with deterministic result ordering (``jobs=1``
  is an exact serial fallback);
* :mod:`repro.engine.cache` — content-addressed memoization of the
  NP-hard exact solvers and the BFL kernel, keyed on
  ``Instance.content_hash`` so identical instances are never solved
  twice, within or across runs (``REPRO_CACHE_DIR`` persists results on
  disk).

:func:`run_tasks` also armors long sweeps: per-task timeouts, retry with
exponential backoff, ``BrokenProcessPool`` respawn (re-running only the
missing cells — exact, thanks to pre-spawned seeds) and JSONL
checkpoint/resume, configured via :class:`ResilienceConfig` (or
``Engine(resilience=...)``).
"""

from .cache import (
    CacheStats,
    ResultCache,
    cached_bfl,
    cached_ca,
    cached_call,
    cached_opt_buffered,
    cached_opt_bufferless,
    configure,
    default_cache,
)
from .pool import (
    Engine,
    ResilienceConfig,
    resolve_jobs,
    run_tasks,
    spawn_rngs,
    spawn_seeds,
)

__all__ = [
    "Engine",
    "ResilienceConfig",
    "CacheStats",
    "ResultCache",
    "cached_bfl",
    "cached_ca",
    "cached_call",
    "cached_opt_buffered",
    "cached_opt_bufferless",
    "configure",
    "default_cache",
    "resolve_jobs",
    "run_tasks",
    "spawn_rngs",
    "spawn_seeds",
]
