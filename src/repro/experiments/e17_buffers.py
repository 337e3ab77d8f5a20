"""E17 — bounded buffers: the ``method="ca"`` family vs exact OPT.

Even, Medina and Rosén's constant-approximation result is the natural
yardstick for the bounded-buffer model dimension this repo adds on top of
the paper (which assumes unbounded buffers).  This experiment sweeps
small random instances across per-node buffer capacities and reports how
much of the *exact* buffered optimum the greedy reservation core
(:mod:`repro.approx.ca`) delivers:

* ``OPT_B`` is the unbounded exact optimum (time-indexed MILP) — an
  upper bound on every bounded optimum, so ``ca / OPT_B`` is a
  conservative lower bound on the true bounded approximation ratio;
* ``dbfl_sim`` runs the paper's D-BFL through the simulator with the
  same capacity (destructive enforcement: overflow packets are dropped),
  showing what capacity-oblivious scheduling loses where the reservation
  pass plans around the constraint.

Instances are kept MILP-small; both the exact column and the reservation
pass go through the content-addressed solver cache (capacity is part of
``Instance.content_hash``, so bounded and unbounded cells never alias).
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import Table
from ..core.dbfl import dbfl
from ..engine import Engine, cached_ca, cached_opt_buffered, spawn_seeds
from ..workloads import general_instance

from .base import experiment

__all__ = ["run", "SIZES", "CAPACITIES"]

DESCRIPTION = 'Bounded buffers: method="ca" throughput ratio vs exact OPT_B'

SIZES = ((8, 6), (10, 8), (12, 10))
CAPACITIES = (0, 1, None)  # 0 == no transit buffering; None == unbounded


def _trial(
    seed_seq: np.random.SeedSequence, n: int, k: int
) -> tuple[tuple[int, int, int], ...]:
    """One cell: ``(ca, dbfl_sim, opt_b)`` throughput per capacity."""
    rng = np.random.default_rng(seed_seq)
    inst = general_instance(rng, n=n, k=k, max_release=6, max_slack=3, max_span=n - 1)
    opt = cached_opt_buffered(inst).throughput
    rows = []
    for cap in CAPACITIES:
        capped = inst if cap is None else inst.with_buffer_capacity(cap)
        rows.append((cached_ca(capped).throughput, dbfl(capped).throughput, opt))
    return tuple(rows)


def _run(*, seed: int = 2024, trials: int = 12, engine: Engine | None = None) -> Table:
    seeds = spawn_seeds(seed, len(SIZES) * trials)
    tasks = [
        (seeds[si * trials + t], n, k)
        for si, (n, k) in enumerate(SIZES)
        for t in range(trials)
    ]
    cells, cache_stats = (engine or Engine()).map(_trial, tasks)

    table = Table(
        ["n", "capacity", "trials", "ca", "dbfl_sim", "opt_b", "min_ratio", "mean_ratio"]
    )
    for si, (n, k) in enumerate(SIZES):
        per_size = cells[si * trials : (si + 1) * trials]
        for ci, cap in enumerate(CAPACITIES):
            ca_tp = np.array([row[ci][0] for row in per_size], dtype=float)
            db_tp = np.array([row[ci][1] for row in per_size], dtype=float)
            opt_tp = np.array([row[ci][2] for row in per_size], dtype=float)
            ratios = np.where(opt_tp > 0, ca_tp / np.maximum(opt_tp, 1), 1.0)
            table.add(
                n=n,
                capacity="inf" if cap is None else cap,
                trials=trials,
                ca=float(ca_tp.mean()),
                dbfl_sim=float(db_tp.mean()),
                opt_b=float(opt_tp.mean()),
                min_ratio=float(ratios.min()),
                mean_ratio=float(ratios.mean()),
            )
    if cache_stats.total:
        table.add_footnote(cache_stats.footnote())
    return table


run = experiment(_run)
