"""Exact optimal bufferless scheduling (``OPT_BL``).

The bufferless problem assigns each delivered message one scan line from its
window and requires the chosen segments on each line to be edge-disjoint.
We solve it two independent ways:

* :func:`opt_bufferless` — proves a schedule optimal combinatorially when
  it can: BFL, or a bounded forward-checking search, settles the optimum
  against :func:`~repro.exact.bounds.cut_upper_bound`.  Otherwise it
  solves a 0/1 MILP (variable per message/line pair) with SciPy's HiGHS,
  which scales to a few hundred variables comfortably.
* :func:`opt_bufferless_bnb` — a pure-Python branch-and-bound over messages
  ordered by window end.  No dependencies beyond the core model; used to
  cross-validate the MILP on small instances and as a fallback.

Both apply the paper's throughput-preserving slack clip to ``|I| - 1`` so
the variable count is polynomial in ``n + |I|`` regardless of how loose the
deadlines are.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..budget import BudgetMeter, SolverBudget
from ..core.bfl_fast import bfl_fast
from ..core.instance import Instance
from ..core.message import Direction, Message
from ..core.schedule import Schedule
from ..core.trajectory import bufferless_trajectory
from ..errors import BudgetExceeded
from .bounds import cut_upper_bound
from .milp import Program, check_weights, solve

__all__ = ["opt_bufferless", "opt_bufferless_bnb", "BufferlessResult"]

#: Search nodes :func:`opt_bufferless` spends settling the optimum before it
#: hands the instance to HiGHS.  E2 cells settle in at most a few hundred
#: nodes, and 2,000 nodes already cost a third of a HiGHS solve (10 ms).
CERTIFY_NODES = 2_000


@dataclass(frozen=True)
class BufferlessResult:
    """Outcome of an exact bufferless solve."""

    schedule: Schedule
    optimal: bool

    @property
    def throughput(self) -> int:
        return self.schedule.throughput


def _prepare(instance: Instance) -> tuple[Instance, list[Message]]:
    """Validate direction, drop infeasible messages, clip slacks."""
    for m in instance:
        if m.direction != Direction.LEFT_TO_RIGHT:
            raise ValueError(
                f"message {m.id} travels right-to-left; split directions first"
            )
    work = instance.drop_infeasible().clipped_slack()
    return work, list(work)


def _schedule(instance: Instance, assign: dict[int, int]) -> Schedule:
    """The schedule sending each message id in ``assign`` on its line.

    Trajectories are built against the caller's messages, so clipped
    deadlines do not leak into the result.
    """
    return Schedule(
        tuple(bufferless_trajectory(instance[mid], alpha) for mid, alpha in assign.items())
    )


def _assignment_program(
    msgs: list[Message], weights: dict[int, float] | None = None
) -> tuple[Program, np.ndarray, np.ndarray]:
    """The assignment MILP as a :class:`~repro.exact.milp.Program`.

    Variables ``x[m, α]`` = message ``m`` travels on scan line ``α``,
    worth ``weights[m.id]`` (default 1); they are returned as parallel
    arrays of message index and ``α``.  Rows: (a) each message uses at
    most one line; (b) on each line, each diagonal edge carries at most
    one chosen segment.  Segment overlap on a line is an interval
    property, so (b) is generated only at *segment left endpoints*, which
    is sufficient: any two overlapping intervals already overlap at the
    larger of their left endpoints.
    """
    var_msg: list[int] = []
    var_alpha: list[int] = []
    for i, m in enumerate(msgs):
        for alpha in range(m.alpha_min, m.alpha_max + 1):
            var_msg.append(i)
            var_alpha.append(alpha)
    program = Program(len(var_msg))
    program.objective[:] = (
        1.0 if weights is None else [weights.get(msgs[i].id, 1.0) for i in var_msg]
    )

    def conflicts():
        by_alpha: dict[int, list[int]] = {}
        for j, alpha in enumerate(var_alpha):
            by_alpha.setdefault(alpha, []).append(j)
        for js in by_alpha.values():
            segments = [(msgs[var_msg[j]].source, msgs[var_msg[j]].dest, j) for j in js]
            for v in sorted({left for left, _, _ in segments}):
                # variables whose segment covers diagonal edge (v, v+1) on this line
                yield [j for left, right, j in segments if left <= v < right]

    program.pack(conflicts(), owner=var_msg)
    return program, np.asarray(var_msg), np.asarray(var_alpha)


def opt_bufferless(
    instance: Instance,
    *,
    time_limit: float | None = None,
    weights: dict[int, float] | None = None,
    budget: SolverBudget | None = None,
) -> BufferlessResult:
    """Maximum-throughput bufferless schedule, proven optimal.

    An unweighted call first tries to *certify* a schedule without a MILP.
    :func:`~repro.exact.bounds.cut_upper_bound` bounds the optimum from
    above, so any schedule delivering that many messages is optimal:

    1. BFL (:func:`~repro.core.bfl_fast.bfl_fast`), which already delivers
       at least half the optimum (Theorem 3.2), is tried first;
    2. otherwise a forward-checking search (:func:`_certify`) looks for a
       schedule that meets the bound, lowering the bound by one each time
       it proves none exists, until a schedule meets it or BFL does.  It
       is capped at :data:`CERTIFY_NODES` nodes.

    If the cap is hit, the call falls back to the assignment MILP solved
    by HiGHS (see :func:`_assignment_program`).  With tracing on, each
    unweighted call counts one of ``exact.certified`` and
    ``exact.milp.fallbacks``.

    ``weights`` (message id -> positive value, default 1) switches the
    objective to maximum *weighted* throughput — e.g. pricing audio packets
    above bulk ones.  The cut bound counts messages, so weighted calls go
    straight to the MILP.  The slack clip's throughput-preservation
    argument is weight-oblivious, so it remains valid.

    ``optimal`` is False only if HiGHS hit ``time_limit`` before proving
    optimality; ``time_limit`` applies to the MILP alone.

    ``budget`` upgrades limit handling from silent degradation to a typed
    contract.  The certificate search polls its wall clock, and the MILP
    gets what is left of it (``wall_time``) plus its ``nodes`` as the HiGHS
    node limit.  If either trips before optimality is proven the call
    raises :class:`~repro.errors.BudgetExceeded` carrying the incumbent
    schedule and certified ``lower``/``upper`` throughput bounds.  Backend
    failures raise :class:`~repro.errors.SolverBackendError` either way.
    """
    if weights is not None:
        check_weights(weights)
        return _milp_bufferless(
            instance, time_limit=time_limit, weights=weights, budget=budget
        )
    tr = obs.tracer()
    t0 = time.perf_counter() if tr.enabled else 0.0
    # A wall-clock-only meter: ``budget.nodes`` caps HiGHS, not the search.
    meter = (
        SolverBudget(wall_time=budget.wall_time).meter()
        if budget is not None and budget.wall_time is not None
        else None
    )
    work, msgs = _prepare(instance)
    upper = cut_upper_bound(work)
    incumbent = bfl_fast(instance)
    route, nodes = "bfl", 0
    if incumbent.throughput < upper:
        found = _certify(
            msgs,
            lower=incumbent.throughput,
            upper=upper,
            node_limit=CERTIFY_NODES,
            meter=meter,
        )
        nodes, upper = found.nodes, found.upper
        if found.assign is not None:
            incumbent = _schedule(instance, found.assign)
        route = "search" if found.stop is None else "milp"
    if tr.enabled:
        tr.count("exact.milp.fallbacks" if route == "milp" else "exact.certified")
        tr.record_span(
            "exact.certify.bufferless",
            t0,
            route=route,
            nodes=nodes,
            bound=upper,
            messages=len(msgs),
        )
    if route != "milp":
        return BufferlessResult(incumbent, True)
    if meter is not None:
        assert budget is not None and budget.wall_time is not None
        left = budget.wall_time - meter.spent()["wall_time"]
        if left <= 0:  # also when the search stopped on the wall clock
            raise BudgetExceeded(
                f"bufferless certificate exceeded {budget.wall_time}s wall "
                f"time after {nodes} nodes",
                lower=incumbent.throughput,
                upper=upper,
                incumbent=incumbent,
                spent=meter.spent(),
            )
        budget = SolverBudget(wall_time=left, nodes=budget.nodes)
    return _milp_bufferless(instance, time_limit=time_limit, budget=budget)


def _milp_bufferless(
    instance: Instance,
    *,
    time_limit: float | None = None,
    weights: dict[int, float] | None = None,
    budget: SolverBudget | None = None,
) -> BufferlessResult:
    """Maximum (weighted) throughput via the 0/1 assignment MILP on HiGHS.

    :func:`opt_bufferless` without the certificate, and the oracle that
    tests check it against.  The ``budget`` maps onto the HiGHS limits.
    """
    work, msgs = _prepare(instance)
    if not msgs:
        return BufferlessResult(Schedule(), True)
    program, var_msg, var_alpha = _assignment_program(msgs, weights)

    def decode(chosen: np.ndarray) -> Schedule:
        assign: dict[int, int] = {}
        for j in np.nonzero(chosen)[0]:
            # numerical duplicates cannot happen, but stay safe
            assign.setdefault(msgs[var_msg[j]].id, int(var_alpha[j]))
        return _schedule(instance, assign)

    schedule, optimal = solve(
        program,
        decode,
        name="bufferless",
        messages=len(msgs),
        time_limit=time_limit,
        budget=budget,
        weights=weights,
        upper=cut_upper_bound(work) if weights is None else np.inf,
    )
    return BufferlessResult(schedule, optimal)


class _Stop(Exception):
    """Unwinds :func:`_certify` when it meets its target or a limit."""


@dataclass(frozen=True)
class _Certificate:
    """Outcome of one :func:`_certify`."""

    #: message id -> scan line of a schedule delivering ``upper`` messages,
    #: or None when the search found none beating the caller's ``lower``
    assign: dict[int, int] | None
    #: proven upper bound on the optimum: the caller's, less one for every
    #: target the search showed unreachable
    upper: int
    nodes: int
    #: None when the optimum is settled, else ``"nodes"`` or ``"wall_time"``
    stop: str | None


def _certify(
    msgs: list[Message],
    *,
    lower: int,
    upper: int,
    node_limit: int,
    meter: BudgetMeter | None = None,
) -> _Certificate:
    """Settle the optimum, known to lie in ``[lower, upper]``, by search.

    For ``target = upper, upper - 1, ...`` down to ``lower + 1`` the search
    looks for a schedule delivering ``target`` messages; the first target
    it meets is the optimum, and if it meets none, ``lower`` is.  The
    search is a depth-first one with forward checking: every open message
    keeps a bitmask of the lines still free for it, placing a message on a
    line takes that line from the open messages whose spans overlap it,
    and a message left with no line is as good as dropped.  A branch is
    pruned when the messages placed plus those still placeable fall short
    of the target.  It branches on the open message with the fewest free
    lines (ties: order of window start), lowest line first, then drops
    it.  Every target shares ``node_limit`` and ``meter``.
    """
    msgs = sorted(msgs, key=lambda m: (m.alpha_min, m.alpha_max, m.id))
    base = min((m.alpha_min for m in msgs), default=0)
    free = [
        ((1 << (m.alpha_max - m.alpha_min + 1)) - 1) << (m.alpha_min - base)
        for m in msgs
    ]
    overlaps = [
        [j for j, o in enumerate(msgs) if j != i and o.source < m.dest and m.source < o.dest]
        for i, m in enumerate(msgs)
    ]
    is_open = [True] * len(msgs)
    assign: dict[int, int] = {}
    nodes = 0

    def dfs(count: int, placeable: int, target: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _Stop("nodes")
        if meter is not None and meter.tick() == "wall_time":
            raise _Stop("wall_time")
        if count >= target:
            raise _Stop("target")
        if count + placeable < target:
            return
        i = min(
            (j for j in range(len(msgs)) if is_open[j] and free[j]),
            key=lambda j: free[j].bit_count(),
        )
        m = msgs[i]
        is_open[i] = False
        lines = free[i]
        while lines:
            bit = lines & -lines
            lines ^= bit
            taken = [j for j in overlaps[i] if is_open[j] and free[j] & bit]
            for j in taken:
                free[j] ^= bit
            emptied = sum(1 for j in taken if not free[j])
            assign[m.id] = base + bit.bit_length() - 1
            dfs(count + 1, placeable - 1 - emptied, target)
            del assign[m.id]
            for j in taken:
                free[j] |= bit
        dfs(count, placeable - 1, target)  # drop m
        is_open[i] = True

    target = upper
    try:
        while target > lower:
            dfs(0, len(msgs), target)
            target -= 1
    except _Stop as exc:
        if exc.args[0] == "target":
            return _Certificate(dict(assign), target, nodes, None)
        return _Certificate(None, target, nodes, exc.args[0])
    return _Certificate(None, target, nodes, None)


def opt_bufferless_bnb(
    instance: Instance,
    *,
    node_limit: int = 2_000_000,
    budget: SolverBudget | None = None,
) -> BufferlessResult:
    """Branch-and-bound reference solver (no SciPy).

    Messages are branched in order of window end; each branch either drops
    the message or places it on one of its feasible lines given the lines'
    current occupancy.  The bound is the trivial ``scheduled + remaining``.

    ``node_limit`` caps the search; exceeding it raises
    :class:`~repro.errors.BudgetExceeded` — this solver is for cross-checks
    on small instances, not production use.  ``budget`` additionally caps
    wall time and/or tightens the node cap; either way the exception
    carries the best incumbent found plus certified ``lower``/``upper``
    throughput bounds, so callers can degrade instead of crash.
    """
    tr = obs.tracer()
    t0 = time.perf_counter() if tr.enabled else 0.0
    work, msgs = _prepare(instance)
    if not msgs:
        return BufferlessResult(Schedule(), True)
    msgs = sorted(msgs, key=lambda m: (m.alpha_min, m.alpha_max, m.id))

    meter = budget.meter() if budget is not None else None
    if budget is not None and budget.nodes is not None:
        node_limit = min(node_limit, budget.nodes)

    best_count = -1
    best_assign: dict[int, int] = {}
    # Best *partial* assignment seen at any search node — never used for
    # pruning (leaf-only incumbents keep the search identical to before),
    # only as the certified-feasible incumbent when the budget trips.
    best_partial_count = 0
    best_partial: dict[int, int] = {}
    # occupancy per line: sorted list of (left, right) node intervals
    occupancy: dict[int, list[tuple[int, int]]] = {}
    nodes_visited = 0
    prunes = 0

    def exhausted(reason: str) -> BudgetExceeded:
        incumbent_assign = (
            best_assign if best_count >= best_partial_count else best_partial
        )
        incumbent = Schedule(
            tuple(
                bufferless_trajectory(instance[mid], alpha)
                for mid, alpha in incumbent_assign.items()
            )
        )
        return BudgetExceeded(
            reason,
            lower=incumbent.throughput,
            upper=max(incumbent.throughput, cut_upper_bound(work)),
            incumbent=incumbent,
            spent={"nodes": nodes_visited},
        )

    def fits(alpha: int, left: int, right: int) -> bool:
        occ = occupancy.get(alpha, [])
        i = bisect_left(occ, (left, left))
        if i < len(occ) and occ[i][0] < right:
            return False
        if i > 0 and occ[i - 1][1] > left:
            return False
        return True

    def place(alpha: int, left: int, right: int) -> None:
        insort(occupancy.setdefault(alpha, []), (left, right))

    def unplace(alpha: int, left: int, right: int) -> None:
        occupancy[alpha].remove((left, right))

    def dfs(i: int, count: int, assign: dict[int, int]) -> None:
        nonlocal best_count, best_assign, nodes_visited, prunes
        nonlocal best_partial_count, best_partial
        nodes_visited += 1
        if nodes_visited > node_limit:
            raise exhausted(f"branch-and-bound exceeded {node_limit} nodes")
        if meter is not None and meter.tick() == "wall_time":
            raise exhausted(
                f"branch-and-bound exceeded {budget.wall_time}s wall time "
                f"after {nodes_visited} nodes"
            )
        if count > best_partial_count:
            best_partial_count = count
            best_partial = dict(assign)
        if count + (len(msgs) - i) <= best_count:
            prunes += 1
            return
        if i == len(msgs):
            best_count = count
            best_assign = dict(assign)
            return
        m = msgs[i]
        for alpha in range(m.alpha_max, m.alpha_min - 1, -1):
            if fits(alpha, m.source, m.dest):
                place(alpha, m.source, m.dest)
                assign[m.id] = alpha
                dfs(i + 1, count + 1, assign)
                del assign[m.id]
                unplace(alpha, m.source, m.dest)
        dfs(i + 1, count, assign)  # drop m

    dfs(0, 0, {})
    if tr.enabled:
        tr.count("exact.bnb.solves")
        tr.count("exact.bnb.nodes", nodes_visited)
        tr.count("exact.bnb.prunes", prunes)
        tr.record_span(
            "exact.bnb.bufferless",
            t0,
            nodes=nodes_visited,
            prunes=prunes,
            messages=len(msgs),
            best=best_count,
        )
    trajectories = tuple(
        bufferless_trajectory(instance[mid], alpha) for mid, alpha in best_assign.items()
    )
    return BufferlessResult(Schedule(trajectories), True)
