"""Exact optimal ring scheduling (MILP references).

Home of the two ring MILPs; both register under the ``ring`` topology
in the facade's dispatch table.  scipy stays unimported until one of
these is actually called.  Both are built and solved through
:mod:`repro.exact.milp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..budget import SolverBudget
from ..exact.milp import Program, solve, time_indexed
from .ring import RingInstance, RingSchedule, RingTrajectory, _ring_trajectory

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
    instance: RingInstance,
    *,
    time_limit: float | None = None,
    budget: SolverBudget | None = None,
) -> RingResult:
    """0/1 MILP over (message, departure) candidates with per-(link, step)
    capacity constraints.  Slacks are clipped to ``|I| - 1`` — the same
    throughput-preserving trick as on the line, since at most ``|I|``
    departures per message can matter.

    ``budget`` maps onto the HiGHS limits; if it trips before optimality
    is proven the call raises :class:`~repro.errors.BudgetExceeded` with
    certified bounds (the feasible-message count caps ``upper``).
    Backend failures raise :class:`~repro.errors.SolverBackendError`."""
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
    program = Program(len(trajs))
    program.objective[:] = 1.0
    by_slot: dict[tuple[int, int], list[int]] = {}
    for j, traj in enumerate(trajs):
        for slot in traj.edges():
            by_slot.setdefault(slot, []).append(j)
    program.pack(by_slot.values(), owner=owner)

    def decode(chosen: np.ndarray) -> RingSchedule:
        return RingSchedule(tuple(trajs[j] for j in np.nonzero(chosen)[0]))

    schedule, optimal = solve(
        program,
        decode,
        name="ring_bufferless",
        messages=len(msgs),
        time_limit=time_limit,
        budget=budget,
        upper=len(msgs),
    )
    return RingResult(schedule, optimal)


@dataclass(frozen=True)
class RingBufferedResult:
    schedule: RingSchedule
    optimal: bool

    @property
    def throughput(self) -> int:
        return self.schedule.throughput


def opt_ring_buffered(
    instance: RingInstance,
    *,
    time_limit: float | None = None,
    budget: SolverBudget | None = None,
) -> RingBufferedResult:
    """Exact optimal *buffered* ring scheduling (time-indexed MILP).

    The ring analogue of :func:`repro.exact.buffered.opt_buffered`:
    packets may wait at intermediate nodes, every clockwise link carries
    one packet per step, and the objective is maximum deliveries.  A
    delivered message crosses its ``span`` consecutive links (mod ``n``)
    at strictly increasing times — :func:`repro.exact.milp.time_indexed`
    with hop ``h`` on the *physical* link ``(source + h) mod n``.
    ``budget`` and backend failures behave as in
    :func:`opt_ring_bufferless`.
    """
    msgs = [m for m in instance if m.feasible]
    if not msgs:
        return RingBufferedResult(RingSchedule(), True)
    n = instance.n
    program, hop_times = time_indexed(
        msgs, lambda m, h: (m.source + h) % n, [1.0] * len(msgs)
    )

    def decode(chosen: np.ndarray) -> RingSchedule:
        chosen_times = hop_times(chosen).items()
        return RingSchedule(tuple(_ring_trajectory(msgs[mi], t) for mi, t in chosen_times))

    schedule, optimal = solve(
        program,
        decode,
        name="ring_buffered",
        messages=len(msgs),
        time_limit=time_limit,
        budget=budget,
        upper=len(msgs),
    )
    return RingBufferedResult(schedule, optimal)
