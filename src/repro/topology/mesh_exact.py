"""Exact optimal dimension-order mesh scheduling (MILP reference).

Home of the mesh MILP; it registers under the ``mesh`` topology in the
facade's dispatch table and keeps scipy unimported until actually called.

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
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from ..core.trajectory import Trajectory
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
) -> MeshResult:
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

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    nrow = 0

    def add_row(entries, lo, hi):
        nonlocal nrow
        for col, val in entries:
            rows.append(nrow)
            cols.append(col)
            vals.append(val)
        lb.append(lo)
        ub.append(hi)
        nrow += 1

    obj = np.zeros(nvar)
    for mi, m in enumerate(msgs):
        ones = [s1[(mi, t)] for t in _phase1_window(m, conv)] if m.row_span else []
        twos = [s2[(mi, t)] for t in _phase2_window(m, conv)] if m.col_span else []
        if ones:
            add_row([(j, 1.0) for j in ones], -np.inf, 1.0)
        if twos:
            add_row([(j, 1.0) for j in twos], -np.inf, 1.0)
        if ones and twos:
            # both phases happen together
            add_row([(j, 1.0) for j in ones] + [(j, -1.0) for j in twos], 0.0, 0.0)
            # conversion precedence, cumulative form: phase 2 by time t
            # requires phase 1 started by t - row_span - conv
            for t in _phase2_window(m, conv):
                cutoff = t - m.row_span - conv
                entries = [(s2[(mi, tt)], 1.0) for tt in _phase2_window(m, conv) if tt <= t]
                entries += [
                    (s1[(mi, tt)], -1.0)
                    for tt in _phase1_window(m, conv)
                    if tt <= cutoff
                ]
                add_row(entries, -np.inf, 0.0)
        # objective counts deliveries once
        for j in ones if ones else twos:
            obj[j] = -1.0

    # capacity per directed link-step
    by_slot: dict[tuple, list[int]] = {}
    for (mi, t), j in s1.items():
        for slot in _row_slots(msgs[mi], t):
            by_slot.setdefault(slot, []).append(j)
    for (mi, t), j in s2.items():
        for slot in _col_slots(msgs[mi], t):
            by_slot.setdefault(slot, []).append(j)
    for js in by_slot.values():
        if len(js) >= 2:
            add_row([(j, 1.0) for j in js], -np.inf, 1.0)

    a = sp.csr_matrix((vals, (rows, cols)), shape=(nrow, nvar))
    options = {"time_limit": time_limit} if time_limit is not None else {}
    res = milp(
        c=obj,
        constraints=[LinearConstraint(a, np.asarray(lb), np.asarray(ub))],
        integrality=np.ones(nvar),
        bounds=Bounds(0, 1),
        options=options,
    )
    if res.x is None:
        raise RuntimeError(f"HiGHS failed on mesh MILP: {res.message}")

    starts1: dict[int, int] = {}
    starts2: dict[int, int] = {}
    for (mi, t), j in s1.items():
        if res.x[j] > 0.5:
            starts1[mi] = t
    for (mi, t), j in s2.items():
        if res.x[j] > 0.5:
            starts2[mi] = t

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
    return MeshResult(MeshSchedule(tuple(trajectories)), bool(res.status == 0))
