"""Exact optimal ring scheduling (MILP references).

Home of the two ring MILPs; both register under the ``ring`` topology
in the facade's dispatch table.  scipy stays unimported until one of
these is actually called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from .ring import (
    BufferedRingTrajectory,
    RingInstance,
    RingMessage,
    RingSchedule,
    RingTrajectory,
)

__all__ = [
    "opt_ring_bufferless",
    "opt_ring_buffered",
    "RingResult",
    "RingBufferedResult",
]


@dataclass(frozen=True)
class RingResult:
    schedule: RingSchedule
    optimal: bool

    @property
    def throughput(self) -> int:
        return self.schedule.throughput


def opt_ring_bufferless(
    instance: RingInstance, *, time_limit: float | None = None
) -> RingResult:
    """0/1 MILP over (message, departure) candidates with per-(link, step)
    capacity constraints.  Slacks are clipped to ``|I| - 1`` — the same
    throughput-preserving trick as on the line, since at most ``|I|``
    departures per message can matter."""
    msgs = [m for m in instance if m.feasible]
    if not msgs:
        return RingResult(RingSchedule(), True)
    cap = len(msgs) - 1

    trajs: list[RingTrajectory] = []
    owner: list[int] = []
    for i, m in enumerate(msgs):
        latest = min(m.latest_departure, m.release + cap)
        for depart in range(m.release, latest + 1):
            trajs.append(
                RingTrajectory(m.id, m.source, depart, m.span, instance.n)
            )
            owner.append(i)
    nvar = len(trajs)

    rows: list[int] = []
    cols: list[int] = []
    nrow = 0
    for i in range(len(msgs)):
        for j in range(nvar):
            if owner[j] == i:
                rows.append(nrow)
                cols.append(j)
        nrow += 1
    by_slot: dict[tuple[int, int], list[int]] = {}
    for j, traj in enumerate(trajs):
        for slot in traj.edges():
            by_slot.setdefault(slot, []).append(j)
    for js in by_slot.values():
        if len(js) >= 2:
            rows.extend([nrow] * len(js))
            cols.extend(js)
            nrow += 1

    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(nrow, nvar))
    options = {"time_limit": time_limit} if time_limit is not None else {}
    res = milp(
        c=-np.ones(nvar),
        constraints=[LinearConstraint(a, -np.inf, np.ones(nrow))],
        integrality=np.ones(nvar),
        bounds=Bounds(0, 1),
        options=options,
    )
    if res.x is None:
        raise RuntimeError(f"HiGHS failed on ring MILP: {res.message}")
    chosen = [trajs[j] for j in np.nonzero(res.x > 0.5)[0]]
    return RingResult(RingSchedule(tuple(chosen)), bool(res.status == 0))


@dataclass(frozen=True)
class RingBufferedResult:
    schedule: RingSchedule
    optimal: bool

    @property
    def throughput(self) -> int:
        return self.schedule.throughput


def _hop_window(m: RingMessage, h: int) -> range:
    """Legal times for ``m``'s ``h``-th hop (0-based)."""
    return range(m.release + h, m.deadline - (m.span - h) + 1)


def opt_ring_buffered(
    instance: RingInstance, *, time_limit: float | None = None
) -> RingBufferedResult:
    """Exact optimal *buffered* ring scheduling (time-indexed MILP).

    The ring analogue of :func:`repro.exact.buffered.opt_buffered`:
    packets may wait at intermediate nodes, every clockwise link carries
    one packet per step, and the objective is maximum deliveries.  A
    delivered message crosses its ``span`` consecutive links (mod ``n``)
    at strictly increasing times; variables ``y[m, h, t]`` say message
    ``m`` crosses its ``h``-th link during ``[t, t+1]``.  Capacity couples
    messages through the *physical* link ``(source + h) mod n``.
    """
    msgs = [m for m in instance if m.feasible]
    if not msgs:
        return RingBufferedResult(RingSchedule(), True)

    index: dict[tuple[int, int, int], int] = {}
    for mi, m in enumerate(msgs):
        for h in range(m.span):
            for t in _hop_window(m, h):
                index[(mi, h, t)] = len(index)
    nvar = len(index)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    nrow = 0

    def add_row(entries: list[tuple[int, float]], lo: float, hi: float) -> None:
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
        first = [index[(mi, 0, t)] for t in _hop_window(m, 0)]
        for j in first:
            obj[j] = -1.0
        add_row([(j, 1.0) for j in first], -np.inf, 1.0)
        for h in range(1, m.span):
            entries = [(index[(mi, h, t)], 1.0) for t in _hop_window(m, h)]
            entries += [(j, -1.0) for j in first]
            add_row(entries, 0.0, 0.0)
        # precedence (cumulative form)
        for h in range(m.span - 1):
            for t in _hop_window(m, h + 1):
                entries = [
                    (index[(mi, h + 1, tt)], 1.0)
                    for tt in _hop_window(m, h + 1)
                    if tt <= t
                ]
                entries += [
                    (index[(mi, h, tt)], -1.0) for tt in _hop_window(m, h) if tt <= t - 1
                ]
                add_row(entries, -np.inf, 0.0)

    # capacity on physical links
    by_slot: dict[tuple[int, int], list[int]] = {}
    for (mi, h, t), j in index.items():
        link = (msgs[mi].source + h) % instance.n
        by_slot.setdefault((link, t), []).append(j)
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
        raise RuntimeError(f"HiGHS failed on ring buffered MILP: {res.message}")

    hops: dict[int, dict[int, int]] = {}
    for (mi, h, t), j in index.items():
        if res.x[j] > 0.5:
            hops.setdefault(mi, {})[h] = t
    trajectories: list[RingTrajectory] = []
    for mi, per_hop in hops.items():
        m = msgs[mi]
        times = tuple(per_hop[h] for h in range(m.span))
        if times[-1] - times[0] == m.span - 1:
            trajectories.append(
                RingTrajectory(m.id, m.source, times[0], m.span, instance.n)
            )
        else:
            trajectories.append(
                BufferedRingTrajectory(
                    message_id=m.id,
                    source=m.source,
                    depart=times[0],
                    span=m.span,
                    n=instance.n,
                    hop_times=times,
                )
            )
    return RingBufferedResult(RingSchedule(tuple(trajectories)), bool(res.status == 0))
