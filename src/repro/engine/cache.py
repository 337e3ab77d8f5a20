"""Content-addressed memoization of solver results.

The NP-hard reference solvers (``opt_bufferless``, ``opt_buffered``) and
the BFL kernel are pure functions of their instance and parameters, so
their results can be reused whenever the same instance reappears — across
sweep rows, across schedulers sharing a ground-truth column, and across
repeated CLI invocations.  :class:`ResultCache` keys results on
``(instance.content_hash, solver name, params)`` and layers two stores:

* an in-process dict (always on while the cache is enabled);
* an optional on-disk pickle store, shared between processes and runs.

Configuration is environment-driven so worker processes spawned by the
sweep engine (:mod:`repro.engine.pool`) inherit it without plumbing:

* ``REPRO_CACHE=off`` disables memoization entirely;
* ``REPRO_CACHE_DIR=<path>`` enables the on-disk store at ``<path>``.

Hit/miss counts accumulate in :class:`CacheStats`; the sweep engine
forwards per-task deltas back to the parent so experiment tables can
report solver reuse in their footers.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .. import obs
from ..core.instance import Instance

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache",
    "configure",
    "cached_call",
    "cached_bfl",
    "cached_ca",
    "cached_opt_bufferless",
    "cached_opt_buffered",
]


@dataclass
class CacheStats:
    """Hit/miss counters, mergeable across engine workers."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def snapshot(self) -> tuple[int, int]:
        return (self.hits, self.misses)

    def since(self, snapshot: tuple[int, int]) -> "CacheStats":
        """The delta accumulated after ``snapshot`` was taken."""
        return CacheStats(hits=self.hits - snapshot[0], misses=self.misses - snapshot[1])

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses

    def footnote(self) -> str:
        """One-line summary for experiment table footers."""
        return (
            f"solver cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_ratio:.0%} reuse)"
        )


class ResultCache:
    """Two-layer (memory + optional disk) content-addressed result store.

    Values must be picklable; the solvers' frozen-dataclass results and
    ``Schedule`` objects are.  Disk writes go through a temp file and an
    atomic rename, so concurrent engine workers can share one directory.
    """

    def __init__(self, *, directory: str | Path | None = None, enabled: bool = True) -> None:
        self.enabled = enabled
        self.directory = Path(directory) if directory else None
        self.memory: dict[str, Any] = {}
        self.stats = CacheStats()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #

    @staticmethod
    def key(
        instance: Instance, solver: str, params: dict[str, Any] | None = None
    ) -> str:
        """Cache key for ``solver`` run on ``instance`` with ``params``.

        Model dimensions that live *on the instance* — including
        ``buffer_capacity`` — are already part of ``content_hash``, so
        bounded and unbounded workloads never alias; per-call model
        options (``buffer_capacity=`` overrides, ``admission=``) must be
        passed through ``params`` to reach the key.
        """
        spec = "" if not params else repr(sorted(params.items()))
        return f"{solver}:{instance.content_hash}:{spec}"

    def get(self, key: str) -> tuple[bool, Any]:
        """``(found, value)``; checks memory first, then disk."""
        found, value, _layer = self.lookup(key)
        return found, value

    def lookup(self, key: str) -> tuple[bool, Any, str | None]:
        """``(found, value, layer)`` with ``layer`` in ``memory``/``disk``."""
        if not self.enabled:
            return False, None, None
        if key in self.memory:
            return True, self.memory[key], "memory"
        if self.directory is not None:
            path = self.directory / f"{_fs_name(key)}.pkl"
            try:
                with path.open("rb") as fh:
                    value = pickle.load(fh)
            except (OSError, pickle.PickleError, EOFError):
                return False, None, None
            self.memory[key] = value
            return True, value, "disk"
        return False, None, None

    def put(self, key: str, value: Any) -> None:
        if not self.enabled:
            return
        self.memory[key] = value
        if self.directory is not None:
            path = self.directory / f"{_fs_name(key)}.pkl"
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def call(
        self,
        solver: str,
        fn: Callable[..., Any],
        instance: Instance,
        **params: Any,
    ) -> Any:
        """Memoized ``fn(instance, **params)`` keyed on content, not identity."""
        if not self.enabled:
            return fn(instance, **params)
        key = self.key(instance, solver, params)
        tr = obs.tracer()
        found, value, layer = self.lookup(key)
        if found:
            self.stats.hits += 1
            if tr.enabled:
                tr.count(f"cache.hits.{layer}")
            return value
        self.stats.misses += 1
        if tr.enabled:
            tr.count("cache.misses")
        value = fn(instance, **params)
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop the in-memory layer and reset counters (disk untouched)."""
        self.memory.clear()
        self.stats = CacheStats()


def _fs_name(key: str) -> str:
    # Keys embed a hex digest already; hash the whole key so params and
    # solver names never have to be filesystem-safe.
    import hashlib

    return hashlib.sha256(key.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Process-wide default (environment-configured, inherited by engine workers)
# ---------------------------------------------------------------------- #

_default: ResultCache | None = None


def default_cache() -> ResultCache:
    """The process-wide cache, built from the environment on first use."""
    global _default
    if _default is None:
        enabled = os.environ.get("REPRO_CACHE", "").lower() not in ("off", "0", "false")
        directory = os.environ.get("REPRO_CACHE_DIR") or None
        _default = ResultCache(directory=directory, enabled=enabled)
    return _default


def configure(
    *, directory: str | Path | None = None, enabled: bool = True
) -> ResultCache:
    """Replace the process-wide cache (tests, benchmarks, CLI overrides)."""
    global _default
    _default = ResultCache(directory=directory, enabled=enabled)
    return _default


def cached_call(
    solver: str, fn: Callable[..., Any], instance: Instance, **params: Any
) -> Any:
    """Memoize ``fn(instance, **params)`` through the default cache."""
    return default_cache().call(solver, fn, instance, **params)


# ---------------------------------------------------------------------- #
# Cached entry points for the solvers the experiments reuse
# ---------------------------------------------------------------------- #


def cached_bfl(instance: Instance, *, clip_slack: bool = False):
    """Memoized fast-kernel BFL (paper tie-break)."""
    from ..core.bfl_fast import bfl_fast

    return cached_call("bfl", bfl_fast, instance, clip_slack=clip_slack)


def cached_ca(instance: Instance, **params: Any):
    """Memoized constant-approximation reservation pass (``method="ca"``).

    The instance's own ``buffer_capacity`` is part of its
    ``content_hash`` (see ``Instance.canonical_form``), so bounded and
    unbounded variants of the same message set never alias; an explicit
    ``buffer_capacity=`` override travels through ``params`` and
    segregates the key the same way.
    """
    from ..approx import ca_schedule

    return cached_call("ca", ca_schedule, instance, **params)


def cached_opt_bufferless(instance: Instance, **params: Any):
    """Memoized exact ``OPT_BL`` (MILP) — the expensive ground-truth column."""
    from ..exact import opt_bufferless

    return cached_call("opt_bufferless", opt_bufferless, instance, **params)


def cached_opt_buffered(instance: Instance, **params: Any):
    """Memoized exact ``OPT_B`` (time-indexed MILP)."""
    from ..exact import opt_buffered

    return cached_call("opt_buffered", opt_buffered, instance, **params)
