"""E12 — delivery-ratio vs offered-load curve.

The classic evaluation curve for any admission/scheduling policy: sweep
the offered load past saturation and watch delivery ratios separate.  At
light load every policy delivers ~everything; past ``load = 1`` the
informed policies degrade gracefully toward the cut upper bound while
uninformed ones fall away faster.

Generator and scheduler hooks are module-level functions so the sweep
engine can ship cells to worker processes (``run(engine=Engine(jobs=N))``).
"""

from __future__ import annotations

from ..analysis.sweeps import sweep
from ..analysis.tables import Table
from ..baselines import EDFPolicy, MinLaxityPolicy, first_fit
from ..network.simulator import simulate
from ..core.dbfl import dbfl
from ..engine import Engine, cached_bfl
from ..workloads import saturated_instance

from .base import experiment

__all__ = ["run"]

DESCRIPTION = "Delivery ratio vs offered load (the saturation curve)"

LOADS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


def _make(rng, load):
    return saturated_instance(rng, n=16, load=load, horizon=25)


def _bfl(inst):
    return cached_bfl(inst).throughput


def _dbfl(inst):
    return dbfl(inst).throughput


def _first_fit(inst):
    return first_fit(inst).throughput


def _edf_buffered(inst):
    return simulate(inst, EDFPolicy()).throughput


def _llf_buffered(inst):
    return simulate(inst, MinLaxityPolicy()).throughput


SCHEDULERS = {
    "bfl": _bfl,
    "dbfl": _dbfl,
    "first_fit": _first_fit,
    "edf_buffered": _edf_buffered,
    "llf_buffered": _llf_buffered,
}


def _run(*, seed: int = 2024, trials: int = 8, engine: Engine | None = None) -> Table:
    return sweep(
        "load",
        LOADS,
        _make,
        SCHEDULERS,
        seed=seed,
        trials=trials,
        engine=engine,
    )


run = experiment(_run)
