"""Exact optimal dimension-order mesh scheduling (MILP reference).

Home of the mesh MILP; it registers under the ``mesh`` topology in the
facade's dispatch table and keeps scipy unimported until actually called.
It is built and solved through :mod:`repro.exact.milp`.

Optimises over *all* XY-routed schedules: each delivered message picks a
phase-1 (row) departure and a phase-2 (column) departure, bufferless
within each phase, with at least ``conversion_delay`` steps parked at the
turning node, subject to one message per directed link per step.  This is
the exact counterpart of :func:`repro.topology.mesh.xy_schedule`'s greedy
phase-by-phase decomposition — their gap in experiment E14 is the price of
scheduling the rows without knowing the columns.

(It is *not* the unrestricted mesh optimum: routing is fixed to XY, as in
the paper's motivation.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..budget import SolverBudget
from ..core.trajectory import Trajectory
from ..exact.milp import Program, solve
from .mesh import MeshInstance, MeshMessage, MeshSchedule, MeshTrajectory

__all__ = ["opt_mesh_xy", "MeshResult"]


@dataclass(frozen=True)
class MeshResult:
    schedule: MeshSchedule
    optimal: bool

    @property
    def throughput(self) -> int:
        return self.schedule.throughput


def _phase1_window(m: MeshMessage, conv: int) -> range:
    """Legal phase-1 departure times."""
    tail = m.col_span + (conv if m.col_span else 0)
    return range(m.release, m.deadline - m.row_span - tail + 1)


def _phase2_window(m: MeshMessage, conv: int) -> range:
    """Legal phase-2 departure times."""
    head = m.row_span + (conv if m.row_span else 0)
    return range(m.release + head, m.deadline - m.col_span + 1)


def _row_slots(m: MeshMessage, t1: int):
    """Directed (link, step) slots of the row phase departing at ``t1``."""
    step = 1 if m.dest[1] > m.source[1] else -1
    for k in range(m.row_span):
        yield ("H", m.source[0], m.source[1] + step * k, step, t1 + k)


def _col_slots(m: MeshMessage, t2: int):
    """Directed (link, step) slots of the column phase departing at ``t2``."""
    step = 1 if m.dest[0] > m.source[0] else -1
    for k in range(m.col_span):
        yield ("V", m.source[0] + step * k, m.dest[1], step, t2 + k)


def opt_mesh_xy(
    instance: MeshInstance,
    *,
    conversion_delay: int = 0,
    time_limit: float | None = None,
    budget: SolverBudget | None = None,
) -> MeshResult:
    """Maximum-throughput XY schedule (0/1 MILP, solved with HiGHS).

    ``budget`` maps onto the HiGHS limits; if it trips before optimality
    is proven the call raises :class:`~repro.errors.BudgetExceeded` with
    certified bounds (the feasible-message count caps ``upper``).
    Backend failures raise :class:`~repro.errors.SolverBackendError`.
    """
    if conversion_delay < 0:
        raise ValueError("conversion_delay must be non-negative")
    conv = conversion_delay
    # individually-feasible messages only
    msgs: list[MeshMessage] = []
    for m in instance:
        turns = conv if (m.row_span and m.col_span) else 0
        if m.deadline - m.release >= m.span + turns:
            msgs.append(m)
    if not msgs:
        return MeshResult(MeshSchedule(), True)

    # variable tables
    s1: dict[tuple[int, int], int] = {}  # (mi, t1) for messages with a row phase
    s2: dict[tuple[int, int], int] = {}  # (mi, t2) for messages with a col phase
    nvar = 0
    for mi, m in enumerate(msgs):
        if m.row_span:
            for t in _phase1_window(m, conv):
                s1[(mi, t)] = nvar
                nvar += 1
        if m.col_span:
            for t in _phase2_window(m, conv):
                s2[(mi, t)] = nvar
                nvar += 1

    program = Program(nvar)
    for mi, m in enumerate(msgs):
        ones = [s1[(mi, t)] for t in _phase1_window(m, conv)] if m.row_span else []
        twos = [s2[(mi, t)] for t in _phase2_window(m, conv)] if m.col_span else []
        if ones:
            program.row(ones)
        if twos:
            program.row(twos)
        if ones and twos:
            # both phases happen together
            program.row(ones, twos, lo=0.0, hi=0.0)
            # conversion precedence, cumulative form: phase 2 by time t
            # requires phase 1 started by t - row_span - conv
            for t in _phase2_window(m, conv):
                cutoff = t - m.row_span - conv
                program.row(
                    [s2[(mi, tt)] for tt in _phase2_window(m, conv) if tt <= t],
                    [s1[(mi, tt)] for tt in _phase1_window(m, conv) if tt <= cutoff],
                    hi=0.0,
                )
        # objective counts deliveries once
        program.objective[ones if ones else twos] = 1.0

    # capacity per directed link-step
    by_slot: dict[tuple, list[int]] = {}
    for (mi, t), j in s1.items():
        for slot in _row_slots(msgs[mi], t):
            by_slot.setdefault(slot, []).append(j)
    for (mi, t), j in s2.items():
        for slot in _col_slots(msgs[mi], t):
            by_slot.setdefault(slot, []).append(j)
    program.pack(by_slot.values())

    def decode(chosen: np.ndarray) -> MeshSchedule:
        starts1 = {mi: t for (mi, t), j in s1.items() if chosen[j]}
        starts2 = {mi: t for (mi, t), j in s2.items() if chosen[j]}
        trajectories: list[MeshTrajectory] = []
        for mi, m in enumerate(msgs):
            if m.row_span and mi not in starts1:
                continue
            if m.col_span and mi not in starts2:
                continue
            row_leg = None
            col_leg = None
            if m.row_span:
                t1 = starts1[mi]
                c1, c2 = m.source[1], m.dest[1]
                if c2 < c1:
                    c1, c2 = instance.cols - 1 - c1, instance.cols - 1 - c2
                row_leg = Trajectory(m.id, c1, tuple(range(t1, t1 + m.row_span)))
            if m.col_span:
                t2 = starts2[mi]
                r1, r2 = m.source[0], m.dest[0]
                if r2 < r1:
                    r1, r2 = instance.rows - 1 - r1, instance.rows - 1 - r2
                col_leg = Trajectory(m.id, r1, tuple(range(t2, t2 + m.col_span)))
            wait = 0
            if row_leg is not None and col_leg is not None:
                wait = col_leg.depart - row_leg.arrive
            trajectories.append(MeshTrajectory(m.id, row_leg, col_leg, wait))
        return MeshSchedule(tuple(trajectories))

    schedule, optimal = solve(
        program,
        decode,
        name="mesh_xy",
        messages=len(msgs),
        time_limit=time_limit,
        budget=budget,
        upper=len(msgs),
    )
    return MeshResult(schedule, optimal)
