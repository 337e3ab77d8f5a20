"""E2 — Theorem 3.2: BFL throughput is within a factor 2 of OPT_BL.

Sweeps random general instances across sizes and records the empirical
``BFL / OPT_BL`` ratio distribution.  The paper proves the ratio is never
below 1/2; the sweep reports how close to 1 it typically sits.

This is the sweep engine's flagship consumer: every (size, trial) cell is
an independent seeded task (``run(engine=Engine(jobs=N))`` fans them out
over worker processes), and both the BFL kernel and the NP-hard
``OPT_BL`` MILP go through the content-addressed solver cache, whose
hit/miss traffic lands in the table footer.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import Table
from ..engine import Engine, cached_bfl, cached_opt_bufferless, spawn_seeds
from ..workloads import general_instance

from .base import experiment

__all__ = ["run", "SIZES"]

DESCRIPTION = "Theorem 3.2: BFL vs exact OPT_BL ratio across random instances"

SIZES = ((8, 6), (12, 10), (16, 12), (24, 14))


def _trial(seed_seq: np.random.SeedSequence, n: int, k: int) -> float:
    """One cell: generate an instance, return its BFL / OPT_BL ratio."""
    rng = np.random.default_rng(seed_seq)
    inst = general_instance(rng, n=n, k=k, max_release=8, max_slack=5, max_span=n - 1)
    approx = cached_bfl(inst).throughput
    exact = cached_opt_bufferless(inst).throughput
    return approx / exact if exact else 1.0


def _run(*, seed: int = 2024, trials: int = 40, engine: Engine | None = None) -> Table:
    seeds = spawn_seeds(seed, len(SIZES) * trials)
    tasks = [
        (seeds[si * trials + t], n, k)
        for si, (n, k) in enumerate(SIZES)
        for t in range(trials)
    ]
    ratios, cache_stats = (engine or Engine()).map(_trial, tasks)

    table = Table(["n", "messages", "trials", "min_ratio", "mean_ratio", "bound_ok"])
    for si, (n, k) in enumerate(SIZES):
        per_size = ratios[si * trials : (si + 1) * trials]
        table.add(
            n=n,
            messages=k,
            trials=trials,
            min_ratio=float(np.min(per_size)),
            mean_ratio=float(np.mean(per_size)),
            bound_ok=bool(np.min(per_size) >= 0.5),
        )
    if cache_stats.total:
        table.add_footnote(cache_stats.footnote())
    return table


run = experiment(_run)
