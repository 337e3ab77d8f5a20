"""E16 — empirical competitive ratio of the online policies vs load and slack.

The offline solvers know the whole instance; the online regime
(:mod:`repro.online`) reveals messages at their release times and every
decision is irrevocable.  This experiment measures what that costs: for
each (load, slack) cell it draws a saturated instance, runs the three
online policies through the facade, and reports their throughput as a
fraction of the offline bufferless optimum ``OPT_BL`` on the realized
instance (computed once per cell with ``solver="auto"`` and shared
through the content-addressed solver cache).

``online_bfl`` replans a BFL sweep at every arrival; at high slack
(messages dawdle, streams interleave) its ratio measures how much the
missing future costs the scan-line rule.  ``online_dbfl`` is the paper's
distributed rule — buffering lets it recover some of that — while
``online_greedy`` (buffered EDF) is the classical per-link baseline.

Cell functions are module-level so the sweep engine can ship them to
worker processes; each cell's instance derives from its own spawned
seed, so tables are identical at any job count and under any
engine recovery (retry, respawn, resume).

``topology="ring"`` runs the ring's registered online method (buffered
per-link greedy) against the exact bufferless ring optimum on random
ring workloads.  Unsupported topologies raise
:class:`~repro.errors.ConfigError`.

``trace=`` switches the workload from the synthetic (load, slack) sweep
to trace-driven traffic — a traffic-shape name
(:data:`repro.trace.SHAPES`), a recorded workload-trace path, or a
tuple of either.  Load and slack are then properties of the traffic,
not knobs, so the table reports one row per ``workload`` source instead
of the sweep grid; ``trace=None`` (the default) leaves the historical
table byte-identical.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import Table
from ..engine import Engine, spawn_seeds

from ._traced import draw_instance, normalize_trace, trace_label
from .base import experiment

__all__ = ["run"]

DESCRIPTION = "Empirical competitive ratio of online policies vs load and slack"

# (link load, deadline slack) sweep cells: load drives contention,
# slack drives how much an online policy can regret an early commitment.
CELLS = (
    (0.8, 2),
    (0.8, 6),
    (1.5, 2),
    (1.5, 6),
    (2.5, 2),
    (2.5, 6),
)

TOPOLOGIES = ("line", "ring")

POLICIES = ("bfl", "dbfl", "greedy")
RING_POLICIES = ("greedy",)


def _cell(params: tuple[float, int], seed_seq: np.random.SeedSequence) -> dict[str, float]:
    """One trial: the three online policies against OPT_BL on one instance."""
    from .. import api
    from ..workloads import saturated_instance

    load, slack = params
    rng = np.random.default_rng(seed_seq)
    inst = saturated_instance(rng, n=12, load=load, horizon=16, max_slack=slack)
    # One offline optimum per cell, shared by all three policies (and
    # memoized by the content-addressed solver cache across repeats).
    opt = api.solve(inst, "bufferless", "exact", solver="auto").delivered
    out: dict[str, float] = {"messages": float(len(inst))}
    for policy in POLICIES:
        r = api.solve(inst, "online", policy, baseline="none")
        out[policy] = 1.0 if opt == 0 else r.delivered / opt
    return out


def _ring_cell(
    params: tuple[float, int], seed_seq: np.random.SeedSequence
) -> dict[str, float]:
    """One ring trial: the online greedy against the exact ring OPT_BL."""
    from .. import api
    from ..workloads.rings import random_ring_instance

    load, slack = params
    rng = np.random.default_rng(seed_seq)
    n = 10
    inst = random_ring_instance(
        rng, n=n, k=max(int(round(load * n)), 1), max_release=8, max_slack=slack
    )
    opt = api.solve(inst, "bufferless", "exact").delivered
    out: dict[str, float] = {"messages": float(len(inst))}
    for policy in RING_POLICIES:
        r = api.solve(inst, "online", policy, baseline="none")
        out[policy] = 1.0 if opt == 0 else r.delivered / opt
    return out


def _trace_cell(
    source: tuple[str, str], seed_seq: np.random.SeedSequence
) -> dict[str, float]:
    """One trace-driven line trial: the online policies on shaped traffic."""
    from .. import api

    inst = draw_instance(source, seed_seq, topology="line", n=12, messages=80)
    opt = api.solve(inst, "bufferless", "exact", solver="auto").delivered
    out: dict[str, float] = {"messages": float(len(inst))}
    for policy in POLICIES:
        r = api.solve(inst, "online", policy, baseline="none")
        out[policy] = 1.0 if opt == 0 else r.delivered / opt
    return out


def _ring_trace_cell(
    source: tuple[str, str], seed_seq: np.random.SeedSequence
) -> dict[str, float]:
    """One trace-driven ring trial: the online greedy on shaped traffic."""
    from .. import api

    inst = draw_instance(source, seed_seq, topology="ring", n=10, messages=24)
    opt = api.solve(inst, "bufferless", "exact").delivered
    out: dict[str, float] = {"messages": float(len(inst))}
    for policy in RING_POLICIES:
        r = api.solve(inst, "online", policy, baseline="none")
        out[policy] = 1.0 if opt == 0 else r.delivered / opt
    return out


def _run(
    *,
    seed: int = 2024,
    trials: int = 6,
    engine: Engine | None = None,
    topology: str = "line",
    trace: object = None,
) -> Table:
    if topology not in TOPOLOGIES:
        from ..errors import ConfigError

        raise ConfigError(
            f"e16_online supports topology 'line' or 'ring', got {topology!r}"
        )
    policies = POLICIES if topology == "line" else RING_POLICIES
    if trace is None:
        cell = _cell if topology == "line" else _ring_cell
        seeds = spawn_seeds(seed, len(CELLS) * trials)
        tasks = [
            (cell_params, seeds[ci * trials + t])
            for ci, cell_params in enumerate(CELLS)
            for t in range(trials)
        ]
    else:
        sources = normalize_trace(trace)
        cell = _trace_cell if topology == "line" else _ring_trace_cell
        seeds = spawn_seeds(seed, len(sources) * trials)
        tasks = [
            (source, seeds[si * trials + t])
            for si, source in enumerate(sources)
            for t in range(trials)
        ]
    results, cache_stats = (engine or Engine()).map(cell, tasks)

    def _means(cells: list[dict[str, float]]) -> dict[str, float]:
        return {
            key: sum(c[key] for c in cells) / trials
            for key in ("messages", *policies)
        }

    if trace is None:
        table = Table(["load", "slack", "messages", *policies])
        for ci, (load, slack) in enumerate(CELLS):
            cells = results[ci * trials : (ci + 1) * trials]
            table.add(load=load, slack=slack, **_means(cells))
    else:
        table = Table(["workload", "messages", *policies])
        for si, source in enumerate(sources):
            cells = results[si * trials : (si + 1) * trials]
            table.add(workload=trace_label(source), **_means(cells))
    if cache_stats.total:
        table.add_footnote(cache_stats.footnote())
    table.add_footnote(
        "ratio = online throughput / OPT_BL on the realized instance "
        "(buffered policies can exceed 1: buffering beats bufferless OPT)"
    )
    return table


run = experiment(_run)
