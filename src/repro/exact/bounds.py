"""Cheap upper bounds on optimal throughput.

For instances too large for the exact solvers, the ratio experiments bound
the optimum from above instead:

* :func:`feasible_count_bound` — ``|{m : slack >= 0}|``; trivial but tight
  for uncongested instances.
* :func:`cut_upper_bound` — a link-capacity cut: all messages crossing link
  ``(v, v+1)`` must do so at distinct steps inside their merged time
  windows, so no more than the total window measure many can cross.
* :func:`bufferless_lp_bound` — LP relaxation of the bufferless MILP; an
  upper bound on ``OPT_BL`` only.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from ..core.instance import Instance
from ..errors import SolverBackendError

__all__ = ["feasible_count_bound", "cut_upper_bound", "bufferless_lp_bound"]


def feasible_count_bound(instance: Instance) -> int:
    """Number of individually-deliverable messages — bounds any optimum."""
    return sum(1 for m in instance if m.feasible)


def cut_upper_bound(instance: Instance) -> int:
    """Min over links of a per-link packing bound, plus bypass traffic.

    For a link ``e = (v, v+1)``, every message whose span covers ``e`` must
    cross ``e`` during its own window ``[release + (v - source),
    deadline - (dest - v)]`` (one message per step).  The number of such
    messages deliverable is at most the size of a maximum matching between
    messages and time steps — here bounded by a sweep over the union of the
    windows (Hall-style: for every time interval, at most its length many
    crossings fit).  Messages not covering ``e`` are unconstrained by it.

    The returned value is ``min_e (pack(e) + bypass(e))``, a valid upper
    bound for both the buffered and bufferless optima.
    """
    feas = [m for m in instance if m.feasible]
    if not feas:
        return 0
    best = len(feas)
    for v in range(instance.n - 1):
        covering = [m for m in feas if m.source <= v < m.dest]
        bypass = len(feas) - len(covering)
        windows = sorted(
            (m.release + (v - m.source), m.deadline - (m.dest - v)) for m in covering
        )
        packed = _edf_pack(windows)
        best = min(best, packed + bypass)
    return best


def _edf_pack(windows: list[tuple[int, int]]) -> int:
    """Max number of unit jobs schedulable, one per step, within windows.

    EDF is optimal for unit jobs with release times and deadlines on one
    machine.  ``windows`` holds ``(release, latest_start)`` pairs; a job
    occupies exactly one integer step ``t`` with ``release <= t <=
    latest_start``.
    """
    import heapq

    jobs = sorted(w for w in windows if w[0] <= w[1])
    if not jobs:
        return 0
    heap: list[int] = []
    done = 0
    i = 0
    t = jobs[0][0]
    while i < len(jobs) or heap:
        if not heap and i < len(jobs):
            t = max(t, jobs[i][0])
        while i < len(jobs) and jobs[i][0] <= t:
            heapq.heappush(heap, jobs[i][1])
            i += 1
        # discard expired
        while heap and heap[0] < t:
            heapq.heappop(heap)
        if heap:
            heapq.heappop(heap)
            done += 1
        t += 1
    return done


def bufferless_lp_bound(instance: Instance) -> float:
    """LP relaxation of the bufferless assignment MILP (upper-bounds OPT_BL)."""
    from .bufferless import _assignment_program  # imports this module

    work = instance.drop_infeasible().clipped_slack()
    msgs = list(work)
    if not msgs:
        return 0.0
    program, _, _ = _assignment_program(msgs)
    res = linprog(
        c=-program.objective,
        A_ub=program.matrix(),
        b_ub=np.ones(program.nrow),
        bounds=(0, 1),
        method="highs",
    )
    if res.x is None:
        raise SolverBackendError(f"LP relaxation failed: {res.message}")
    return float(-res.fun)
