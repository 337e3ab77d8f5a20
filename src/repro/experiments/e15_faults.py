"""E15 — throughput degradation under injected network faults.

The paper's guarantees assume a perfect synchronous line.  This experiment
measures what its schedules are worth when the line misbehaves: every cell
draws a saturated instance plus a random :class:`~repro.network.faults.FaultPlan`
(link-failure windows, a node stall, and a swept packet-drop rate) and runs
the distributed policies through the faulted simulator.

Columns report mean delivery ratios: ``dbfl_clean`` is D-BFL on the
fault-free network (the reference the faulted columns degrade from), the
rest run under the same fault plan so the comparison is paired.  At
``drop_rate = 0`` only the deterministic faults (failed links, stalls)
bite; the degradation curve past that isolates the stochastic losses.

Cell functions are module-level so the sweep engine can ship them to
worker processes; each cell's instance *and* fault plan derive from its
own spawned seed, so tables are identical at any job count and under any
engine recovery (retry, respawn, resume).

``topology="ring"`` runs the same protocol on ring workloads through the
unified simulator (fault plans draw links/nodes from the ring's own
enumeration); D-BFL is line-specific, so the ring table compares the
buffered per-link policies against their own fault-free reference.
Unsupported topologies raise :class:`~repro.errors.ConfigError`.

``trace=`` switches the workload from the synthetic saturated draw to
trace-driven traffic: a traffic-shape name (:data:`repro.trace.SHAPES`),
a recorded workload-trace path, or a tuple of either.  The table then
gains a leading ``workload`` column and repeats the drop-rate sweep per
source; ``trace=None`` (the default) leaves the historical table
byte-identical.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import Table
from ..baselines import EDFPolicy, MinLaxityPolicy
from ..core.dbfl import dbfl
from ..engine import Engine, spawn_seeds
from ..network import random_fault_plan, simulate
from ..workloads import saturated_instance
from ..workloads.rings import random_ring_instance

from ._traced import draw_instance, normalize_trace, trace_label
from .base import experiment

__all__ = ["run"]

DESCRIPTION = "Delivery ratio under injected faults (drops, dead links, stalls)"

DROP_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

TOPOLOGIES = ("line", "ring")

COLUMNS = ("dbfl_clean", "dbfl", "edf_buffered", "llf_buffered")
RING_COLUMNS = ("edf_clean", "edf_buffered", "llf_buffered")


def _measure(inst, rng: np.random.Generator, rate: float) -> dict[str, float]:
    """Paired fault-free vs faulted runs of the line policies on ``inst``."""
    plan = random_fault_plan(
        rng, inst, drop_rate=rate, link_failures=2, node_stalls=1
    )
    norm = max(len(inst), 1)
    return {
        "messages": float(len(inst)),
        "dbfl_clean": dbfl(inst).throughput / norm,
        "dbfl": dbfl(inst, faults=plan).throughput / norm,
        "edf_buffered": simulate(inst, EDFPolicy(), faults=plan).throughput / norm,
        "llf_buffered": simulate(
            inst, MinLaxityPolicy(), faults=plan
        ).throughput
        / norm,
    }


def _ring_measure(inst, rng: np.random.Generator, rate: float) -> dict[str, float]:
    """Paired fault-free vs faulted runs of the ring policies on ``inst``."""
    plan = random_fault_plan(
        rng, inst, drop_rate=rate, link_failures=2, node_stalls=1
    )
    norm = max(len(inst), 1)
    return {
        "messages": float(len(inst)),
        "edf_clean": simulate(inst, EDFPolicy()).throughput / norm,
        "edf_buffered": simulate(inst, EDFPolicy(), faults=plan).throughput / norm,
        "llf_buffered": simulate(
            inst, MinLaxityPolicy(), faults=plan
        ).throughput
        / norm,
    }


def _cell(rate: float, seed_seq: np.random.SeedSequence) -> dict[str, float]:
    """One trial: paired fault-free vs faulted runs on the same instance."""
    rng = np.random.default_rng(seed_seq)
    inst = saturated_instance(rng, n=16, load=1.5, horizon=25)
    return _measure(inst, rng, rate)


def _ring_cell(rate: float, seed_seq: np.random.SeedSequence) -> dict[str, float]:
    """One ring trial: paired fault-free vs faulted runs on one instance."""
    rng = np.random.default_rng(seed_seq)
    inst = random_ring_instance(rng, n=12, k=20)
    return _ring_measure(inst, rng, rate)


def _trace_cell(
    params: tuple[tuple[str, str], float], seed_seq: np.random.SeedSequence
) -> dict[str, float]:
    """One trace-driven line trial: shape/recorded workload under faults."""
    source, rate = params
    rng = np.random.default_rng(seed_seq)
    inst = draw_instance(source, seed_seq, topology="line", n=16, messages=160)
    return _measure(inst, rng, rate)


def _ring_trace_cell(
    params: tuple[tuple[str, str], float], seed_seq: np.random.SeedSequence
) -> dict[str, float]:
    """One trace-driven ring trial: shape/recorded workload under faults."""
    source, rate = params
    rng = np.random.default_rng(seed_seq)
    inst = draw_instance(source, seed_seq, topology="ring", n=12, messages=60)
    return _ring_measure(inst, rng, rate)


def _run(
    *,
    seed: int = 2024,
    trials: int = 8,
    engine: Engine | None = None,
    topology: str = "line",
    trace: object = None,
) -> Table:
    if topology not in TOPOLOGIES:
        from ..errors import ConfigError

        raise ConfigError(
            f"e15_faults supports topology 'line' or 'ring', got {topology!r}"
        )
    columns = COLUMNS if topology == "line" else RING_COLUMNS
    if trace is None:
        cell = _cell if topology == "line" else _ring_cell
        seeds = spawn_seeds(seed, len(DROP_RATES) * trials)
        tasks = [
            (rate, seeds[ri * trials + t])
            for ri, rate in enumerate(DROP_RATES)
            for t in range(trials)
        ]
    else:
        sources = normalize_trace(trace)
        cell = _trace_cell if topology == "line" else _ring_trace_cell
        seeds = spawn_seeds(seed, len(sources) * len(DROP_RATES) * trials)
        tasks = [
            ((source, rate), seeds[(si * len(DROP_RATES) + ri) * trials + t])
            for si, source in enumerate(sources)
            for ri, rate in enumerate(DROP_RATES)
            for t in range(trials)
        ]
    results, cache_stats = (engine or Engine()).map(cell, tasks)

    def _means(cells: list[dict[str, float]]) -> dict[str, float]:
        return {
            key: sum(c[key] for c in cells) / trials
            for key in ("messages", *columns)
        }

    if trace is None:
        table = Table(["drop_rate", "messages", *columns])
        for ri, rate in enumerate(DROP_RATES):
            cells = results[ri * trials : (ri + 1) * trials]
            table.add(drop_rate=rate, **_means(cells))
    else:
        table = Table(["workload", "drop_rate", "messages", *columns])
        for si, source in enumerate(sources):
            for ri, rate in enumerate(DROP_RATES):
                base = (si * len(DROP_RATES) + ri) * trials
                cells = results[base : base + trials]
                table.add(
                    workload=trace_label(source), drop_rate=rate, **_means(cells)
                )
    if cache_stats.total:
        table.add_footnote(cache_stats.footnote())
    return table


run = experiment(_run)
