"""Parameter-sweep scaffolding for curve-style experiments.

A *sweep* varies one parameter, generates seeded instances at each value,
runs a set of schedulers on every instance, and aggregates mean delivered
counts (plus an upper bound) into a :class:`~repro.analysis.tables.Table`
— one row per parameter value, one column per scheduler.  E12 (offered
load) and E13 (slack tightness) are thin wrappers over this.

Execution goes through the sweep engine (:mod:`repro.engine`): the sweep
decomposes into one *cell* per (value, trial) pair, each cell drawing its
randomness from its own spawned ``SeedSequence`` child.  Cell seeds do
not depend on execution order, so ``Engine(jobs=1)`` and
``Engine(jobs=N)`` produce identical tables; with ``jobs > 1`` the
generator and scheduler callables must be picklable (module-level
functions, not lambdas).  Any solver cache traffic the cells produce is
reported in the table footer.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.instance import Instance
from ..engine import Engine, spawn_seeds
from ..exact import cut_upper_bound
from .tables import Table

__all__ = ["sweep"]

# scheduler: instance -> delivered-message count
Scheduler = Callable[[Instance], int]
# generator: (rng, parameter value) -> instance
Generator = Callable[[np.random.Generator, Any], Instance]


def _cell(
    generator: Generator,
    schedulers: Mapping[str, Scheduler],
    value: Any,
    seed_seq: np.random.SeedSequence,
    relative: bool,
) -> dict[str, float]:
    """One sweep cell: generate the instance, run every scheduler on it."""
    rng = np.random.default_rng(seed_seq)
    inst = generator(rng, value)
    norm = max(len(inst), 1) if relative else 1
    out = {
        "messages": float(len(inst)),
        "upper_bound": cut_upper_bound(inst) / norm,
    }
    for name, run in schedulers.items():
        out[name] = run(inst) / norm
    return out


def sweep(
    parameter: str,
    values: Sequence[Any],
    generator: Generator,
    schedulers: Mapping[str, Scheduler],
    *,
    seed: int = 2024,
    trials: int = 10,
    relative: bool = True,
    engine: Engine | None = None,
) -> Table:
    """Run the sweep and return its table.

    With ``relative=True`` scheduler columns report mean *delivery ratio*
    (delivered / messages); otherwise mean absolute counts.  The
    ``upper_bound`` column always uses the same normalisation, so no
    scheduler column may exceed it.  ``engine`` (default ``Engine()``,
    serial) fans the cells out over worker processes (see
    :func:`repro.engine.run_tasks`); the result is identical at any
    ``jobs``.  Its resilience configuration (per-task timeouts, retries,
    pool respawn, checkpoint/resume) never changes the table either,
    because every cell re-runs from its own pre-spawned seed.
    """
    if not values:
        raise ValueError("sweep needs at least one parameter value")
    if not schedulers:
        raise ValueError("sweep needs at least one scheduler")
    seeds = spawn_seeds(seed, len(values) * trials)
    tasks = [
        (generator, schedulers, value, seeds[vi * trials + t], relative)
        for vi, value in enumerate(values)
        for t in range(trials)
    ]
    results, cache_stats = (engine or Engine()).map(_cell, tasks)

    table = Table([parameter, "messages", "upper_bound", *schedulers])
    for vi, value in enumerate(values):
        cells = results[vi * trials : (vi + 1) * trials]
        means = {
            key: sum(c[key] for c in cells) / trials
            for key in ("messages", "upper_bound", *schedulers)
        }
        table.add(**{parameter: value, **means})
    if cache_stats.total:
        table.add_footnote(cache_stats.footnote())
    return table
