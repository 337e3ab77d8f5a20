"""Exact optimal buffered scheduling (``OPT_B``).

Buffered trajectories are monotone staircases in the (node, time) lattice:
each delivered message crosses every link of its span exactly once, at
strictly increasing times, within its release/deadline window; each link
carries at most one message per step.  Buffers are unbounded (paper,
Section 5: "making no attempt to limit the number of buffers").

* :func:`opt_buffered` — time-indexed 0/1 MILP.  Variable ``y[m, v, t]``
  says message ``m`` crosses link ``(v, v+1)`` during ``[t, t+1]``.
* :func:`opt_buffered_bruteforce` — subset enumeration plus a backtracking
  per-link feasibility check; exponential, tiny instances only, used to
  cross-validate the MILP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..budget import BudgetMeter, SolverBudget
from ..core.instance import Instance
from ..core.message import Direction, Message
from ..core.schedule import Schedule
from ..core.trajectory import Trajectory
from ..errors import BudgetExceeded
from .bounds import cut_upper_bound
from .milp import check_weights, solve, time_indexed

__all__ = ["opt_buffered", "opt_buffered_bruteforce", "BufferedResult"]


@dataclass(frozen=True)
class BufferedResult:
    """Outcome of an exact buffered solve."""

    schedule: Schedule
    optimal: bool

    @property
    def throughput(self) -> int:
        return self.schedule.throughput


def _lr_feasible(instance: Instance) -> list[Message]:
    for m in instance:
        if m.direction != Direction.LEFT_TO_RIGHT:
            raise ValueError(
                f"message {m.id} travels right-to-left; split directions first"
            )
    return [m for m in instance if m.feasible]


def opt_buffered(
    instance: Instance,
    *,
    time_limit: float | None = None,
    weights: dict[int, float] | None = None,
    budget: SolverBudget | None = None,
) -> BufferedResult:
    """Maximum-throughput buffered schedule via time-indexed MILP.

    The conservation, precedence and capacity rows are
    :func:`~repro.exact.milp.time_indexed`'s, with a message's ``h``-th
    hop on link ``(source + h, source + h + 1)``.  The objective maximises
    delivered messages — or their total ``weights`` (message id ->
    positive value, default 1) when given.

    ``budget`` (a :class:`~repro.budget.SolverBudget`) maps onto the HiGHS
    ``time_limit``/``node_limit``; if it trips before optimality is proven
    the call raises :class:`~repro.errors.BudgetExceeded` carrying the
    incumbent schedule and certified ``lower``/``upper`` bounds.  Backend
    failures raise :class:`~repro.errors.SolverBackendError`.
    """
    check_weights(weights)
    msgs = _lr_feasible(instance)
    if not msgs:
        return BufferedResult(Schedule(), True)
    values = [1.0 if weights is None else weights.get(m.id, 1.0) for m in msgs]
    program, hop_times = time_indexed(msgs, lambda m, h: m.source + h, values)

    def decode(chosen: np.ndarray) -> Schedule:
        return Schedule(
            tuple(
                Trajectory(msgs[mi].id, msgs[mi].source, times)
                for mi, times in hop_times(chosen).items()
            )
        )

    schedule, optimal = solve(
        program,
        decode,
        name="buffered",
        messages=len(msgs),
        time_limit=time_limit,
        budget=budget,
        weights=weights,
        upper=cut_upper_bound(instance) if weights is None else np.inf,
    )
    return BufferedResult(schedule, optimal)


def opt_buffered_bruteforce(
    instance: Instance,
    *,
    max_messages: int = 10,
    budget: SolverBudget | None = None,
) -> BufferedResult:
    """Reference ``OPT_B`` by subset enumeration (tiny instances only).

    Iterates over candidate subsets from largest to smallest and returns the
    first feasible one, where feasibility is decided by
    :func:`buffered_feasible`.  Complexity is unapologetically exponential.

    ``budget`` counts one node per subset checked and reads the wall clock
    before each; when it trips the call raises
    :class:`~repro.errors.BudgetExceeded` with no incumbent (the first
    feasible subset found is the optimum), ``lower=0`` and ``upper`` the
    size being enumerated — every larger subset was proven infeasible.
    """
    msgs = _lr_feasible(instance)
    if len(msgs) > max_messages:
        raise ValueError(
            f"{len(msgs)} messages exceeds brute-force cap {max_messages}; "
            "use opt_buffered instead"
        )
    meter = BudgetMeter(budget, check_interval=1) if budget is not None else None
    for size in range(len(msgs), -1, -1):
        for subset in combinations(msgs, size):
            if meter is not None and (reason := meter.tick()) is not None:
                raise BudgetExceeded(
                    f"brute-force buffered search exhausted its {reason} budget",
                    lower=0,
                    upper=size,
                    spent=meter.spent(),
                )
            schedule = buffered_feasible(list(subset))
            if schedule is not None:
                return BufferedResult(schedule, True)
    return BufferedResult(Schedule(), True)


def buffered_feasible(msgs: list[Message]) -> Schedule | None:
    """Find a buffered schedule delivering *all* of ``msgs``, or ``None``.

    Backtracking over messages in deadline order; for each message we
    enumerate staircase crossing-time vectors depth-first (earliest first),
    respecting the link occupancy chosen so far.
    """
    msgs = sorted(msgs, key=lambda m: (m.deadline, m.dest, m.id))
    occupied: set[tuple[int, int]] = set()

    def route(mi: int) -> list[Trajectory] | None:
        if mi == len(msgs):
            return []
        m = msgs[mi]

        def extend(v: int, t_min: int, acc: list[int]) -> list[Trajectory] | None:
            if v == m.dest:
                rest = route(mi + 1)
                if rest is None:
                    return None
                return [Trajectory(m.id, m.source, tuple(acc))] + rest
            for t in range(t_min, m.deadline - (m.dest - v) + 1):
                if (v, t) in occupied:
                    continue
                occupied.add((v, t))
                acc.append(t)
                found = extend(v + 1, t + 1, acc)
                if found is not None:
                    return found
                acc.pop()
                occupied.discard((v, t))
            return None

        return extend(m.source, m.release, [])

    result = route(0)
    if result is None:
        return None
    return Schedule(tuple(result))
