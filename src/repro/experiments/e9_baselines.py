"""E9 — practical comparison: BFL and D-BFL vs classical baselines.

Runs every scheduler on the same workloads (general, saturated, hotspot,
multimedia) and reports mean throughput.  The shape to expect: BFL/D-BFL
and buffered EDF lead under contention; random assignment trails; on light
load everyone delivers everything.

Each (family, trial) pair is one seeded engine cell, so
``run(engine=Engine(jobs=N))`` spreads the nine-scheduler workload over
worker processes without changing any number in the table.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import Table
from ..baselines import (
    EDFPolicy,
    FCFSPolicy,
    MinLaxityPolicy,
    edf_bufferless,
    first_fit,
    min_laxity_first,
    random_assignment,
)
from ..core.dbfl import dbfl
from ..engine import Engine, cached_bfl, spawn_seeds
from ..network.simulator import simulate
from ..exact import cut_upper_bound
from ..workloads import (
    general_instance,
    hotspot_instance,
    multimedia_instance,
    saturated_instance,
)

from .base import experiment

__all__ = ["run", "SCHEDULERS"]

DESCRIPTION = "BFL vs baselines: throughput across workload families"

SCHEDULERS = (
    "bfl",
    "dbfl",
    "edf_bufferless",
    "first_fit",
    "min_laxity",
    "random",
    "edf_buffered",
    "llf_buffered",
    "fcfs_buffered",
)


def _make_general(rng):
    return general_instance(rng, n=24, k=40, max_release=20, max_slack=6)


def _make_saturated(rng):
    return saturated_instance(rng, n=16, load=1.5, horizon=25)


def _make_hotspot(rng):
    return hotspot_instance(rng, n=24, k=40, horizon=20)


def _make_multimedia(rng):
    return multimedia_instance(rng, n=24, k=50)[0]


FAMILIES = {
    "general": _make_general,
    "saturated": _make_saturated,
    "hotspot": _make_hotspot,
    "multimedia": _make_multimedia,
}


def _throughputs(inst, rng) -> dict[str, int]:
    return {
        "bfl": cached_bfl(inst).throughput,
        "dbfl": dbfl(inst).throughput,
        "edf_bufferless": edf_bufferless(inst).throughput,
        "first_fit": first_fit(inst).throughput,
        "min_laxity": min_laxity_first(inst).throughput,
        "random": random_assignment(inst, rng).throughput,
        "edf_buffered": simulate(inst, EDFPolicy()).throughput,
        "llf_buffered": simulate(inst, MinLaxityPolicy()).throughput,
        "fcfs_buffered": simulate(inst, FCFSPolicy()).throughput,
    }


def _family_trial(seed_seq: np.random.SeedSequence, family: str) -> dict[str, float]:
    """One cell: an instance from ``family`` run through every scheduler."""
    rng = np.random.default_rng(seed_seq)
    inst = FAMILIES[family](rng)
    return {
        "messages": float(len(inst)),
        "upper_bound": float(cut_upper_bound(inst)),
        **{k: float(v) for k, v in _throughputs(inst, rng).items()},
    }


def _run(*, seed: int = 2024, trials: int = 10, engine: Engine | None = None) -> Table:
    names = list(FAMILIES)
    seeds = spawn_seeds(seed, len(names) * trials)
    tasks = [
        (seeds[fi * trials + t], family)
        for fi, family in enumerate(names)
        for t in range(trials)
    ]
    results, cache_stats = (engine or Engine()).map(_family_trial, tasks)

    table = Table(["family", "messages", "upper_bound", *SCHEDULERS])
    for fi, family in enumerate(names):
        cells = results[fi * trials : (fi + 1) * trials]
        means = {
            key: sum(c[key] for c in cells) / trials
            for key in ("messages", "upper_bound", *SCHEDULERS)
        }
        table.add(family=family, **means)
    if cache_stats.total:
        table.add_footnote(cache_stats.footnote())
    return table


run = experiment(_run)
