"""E13 — delivery-ratio vs deadline tightness.

Sweeps the slack budget (how much later than the minimum a packet may
arrive) at fixed load: the multimedia QoS question.  With zero slack every
contention costs a message; a handful of slack steps recovers most of the
loss — quantifying how much deadline looseness buys on a line.

Generator and scheduler hooks are module-level functions so the sweep
engine can ship cells to worker processes (``run(engine=Engine(jobs=N))``).
"""

from __future__ import annotations

from ..analysis.sweeps import sweep
from ..analysis.tables import Table
from ..baselines import EDFPolicy
from ..network.simulator import simulate
from ..core.dbfl import dbfl
from ..engine import Engine, cached_bfl
from ..workloads import general_instance

from .base import experiment

__all__ = ["run"]

DESCRIPTION = "Delivery ratio vs slack budget (deadline-tightness curve)"

SLACKS = (0, 1, 2, 4, 8, 16)


def _make(rng, slack):
    return general_instance(rng, n=16, k=40, max_release=15, max_slack=slack)


def _bfl(inst):
    return cached_bfl(inst).throughput


def _dbfl(inst):
    return dbfl(inst).throughput


def _edf_buffered(inst):
    return simulate(inst, EDFPolicy()).throughput


SCHEDULERS = {
    "bfl": _bfl,
    "dbfl": _dbfl,
    "edf_buffered": _edf_buffered,
}


def _run(*, seed: int = 2024, trials: int = 8, engine: Engine | None = None) -> Table:
    return sweep(
        "max_slack",
        SLACKS,
        _make,
        SCHEDULERS,
        seed=seed,
        trials=trials,
        engine=engine,
    )


run = experiment(_run)
