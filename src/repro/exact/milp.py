"""One HiGHS layer for the exact MILPs.

Every exact solver that needs an integer program — the line's bufferless
assignment and buffered time-indexed MILPs, the ring's two and the mesh's
XY MILP — builds a :class:`Program` and hands it to :func:`solve`, the
one place SciPy's HiGHS ``milp`` is called.

* :class:`Program` — a 0/1 program: maximise ``objective · x`` subject to
  rows ``lo <= Σ ±x_j <= hi``, with :meth:`Program.pack` adding the
  "at most one" rows every formulation shares.
* :func:`solve` — maps ``time_limit`` and a
  :class:`~repro.budget.SolverBudget` to HiGHS options, solves, decodes
  the chosen variables and turns every limit or failure into a typed
  error (:class:`~repro.errors.BudgetExceeded` with certified bounds,
  :class:`~repro.errors.SolverBackendError`).
* :func:`time_indexed` — the buffered (message, hop, time) formulation:
  path packing in the (link, step) space-time grid (Even, Medina & Rosén),
  shared by the line and the ring, which differ only in which physical
  link a message's ``h``-th hop uses.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from .. import obs
from ..budget import SolverBudget
from ..errors import BudgetExceeded, SolverBackendError

__all__ = ["Program", "solve", "time_indexed", "check_weights"]


class Program:
    """A 0/1 program under construction.

    The goal is to maximise ``objective · x``; row ``r`` reads ``lo <=
    Σ plus - Σ minus <= hi``.  Every coefficient is ``+1`` or ``-1``, which
    is all the exact formulations use.  ``started`` timestamps the build,
    so the ``exact.milp.*`` span covers building and solving.
    """

    def __init__(self, nvar: int) -> None:
        self.started = time.perf_counter()
        self.nvar = nvar
        self.objective = np.zeros(nvar)
        self._lo: list[float] = []
        self._hi: list[float] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    @property
    def nrow(self) -> int:
        return len(self._lo)

    def row(
        self,
        plus: Iterable[int],
        minus: Iterable[int] = (),
        *,
        lo: float = -np.inf,
        hi: float = 1.0,
    ) -> None:
        """Add ``lo <= Σ x[plus] - Σ x[minus] <= hi`` (default: at most one)."""
        r = self.nrow
        for sign, cols in ((1.0, plus), (-1.0, minus)):
            for j in cols:
                self._rows.append(r)
                self._cols.append(j)
                self._vals.append(sign)
        self._lo.append(lo)
        self._hi.append(hi)

    def pack(
        self, groups: Iterable[Sequence[int]], *, owner: Sequence[int] | None = None
    ) -> None:
        """Add the "at most one" rows: first one per owner — ``owner[j]``
        numbers variable ``j``'s owner ``0, 1, ...`` — then one per
        conflict group of two or more variables."""
        if owner is not None:
            base, count = self.nrow, (max(owner) + 1 if len(owner) else 0)
            self._rows.extend(base + int(o) for o in owner)
            self._cols.extend(range(len(owner)))
            self._vals.extend([1.0] * len(owner))
            self._lo.extend([-np.inf] * count)
            self._hi.extend([1.0] * count)
        for js in groups:
            if len(js) >= 2:
                self.row(js)

    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self._vals, (self._rows, self._cols)), shape=(self.nrow, self.nvar)
        )


def check_weights(weights: dict[int, float] | None) -> None:
    """Weighted objectives take positive values only."""
    for mid, w in (weights or {}).items():
        if w <= 0:
            raise ValueError(f"weight of message {mid} must be positive, got {w}")


def _options(budget: SolverBudget | None, time_limit: float | None) -> dict[str, float]:
    """Translate ``time_limit`` and a :class:`SolverBudget` to HiGHS options."""
    options: dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if budget is not None:
        if budget.wall_time is not None:
            options["time_limit"] = (
                budget.wall_time
                if time_limit is None
                else min(time_limit, budget.wall_time)
            )
        if budget.nodes is not None:
            options["node_limit"] = int(budget.nodes)
    return options


def _upper_bound(res: Any, upper: float, *, integral: bool) -> float:
    """Certified upper bound on the optimum from a limit-hit MILP result.

    HiGHS's dual bound lower-bounds the minimisation objective, so its
    negation upper-bounds the (weighted) throughput; with unit weights the
    optimum is integral and the bound can be floored.  The caller's
    ``upper`` is valid independently — take the tighter of the two.
    """
    dual = getattr(res, "mip_dual_bound", None)
    bound = float(upper)
    if dual is not None and np.isfinite(dual):
        from_dual = -float(dual)
        if integral:
            from_dual = float(np.floor(from_dual + 1e-6))
        bound = min(bound, from_dual)
    return bound


def solve(
    program: Program,
    decode: Callable[[np.ndarray], Any],
    *,
    name: str,
    messages: int,
    time_limit: float | None = None,
    budget: SolverBudget | None = None,
    weights: dict[int, float] | None = None,
    upper: float = np.inf,
) -> tuple[Any, bool]:
    """Solve ``program`` with HiGHS; ``(decode(chosen), optimal)``.

    ``decode`` maps the boolean mask of chosen variables to a schedule
    (anything with ``throughput`` and ``delivered_ids``).  ``optimal`` is
    False only if ``time_limit`` stopped HiGHS first.  With a ``budget``,
    a limit hit instead raises :class:`~repro.errors.BudgetExceeded`
    carrying the incumbent and certified ``lower``/``upper`` bounds, where
    ``upper`` is the caller's own bound on the optimum (``inf`` when none
    applies, as for ``weights``).  A run with no solution otherwise raises
    :class:`~repro.errors.SolverBackendError`.  With tracing on it counts
    ``exact.milp.solves/variables/constraints/timeouts`` and records the
    span ``exact.milp.<name>``.
    """
    integral = weights is None
    res = milp(
        c=-program.objective,
        constraints=[
            LinearConstraint(
                program.matrix(), np.asarray(program._lo), np.asarray(program._hi)
            )
        ],
        integrality=np.ones(program.nvar),
        bounds=Bounds(0, 1),
        options=_options(budget, time_limit),
    )
    if res.x is None:
        if budget is not None and res.status == 1:
            raise BudgetExceeded(
                f"{name} MILP budget exhausted with no incumbent: {res.message}",
                lower=0,
                upper=_upper_bound(res, upper, integral=integral),
                incumbent=None,
            )
        raise SolverBackendError(f"HiGHS failed on {name} MILP: {res.message}")
    schedule = decode(res.x > 0.5)
    optimal = bool(res.status == 0)
    tr = obs.tracer()
    if tr.enabled:
        tr.count("exact.milp.solves")
        tr.count("exact.milp.variables", program.nvar)
        tr.count("exact.milp.constraints", program.nrow)
        if not optimal:
            tr.count("exact.milp.timeouts")
        tr.record_span(
            f"exact.milp.{name}",
            program.started,
            variables=program.nvar,
            constraints=program.nrow,
            messages=messages,
            optimal=optimal,
        )
    if budget is not None and not optimal:
        lower: float = (
            schedule.throughput
            if weights is None
            else sum(weights.get(mid, 1.0) for mid in schedule.delivered_ids)
        )
        raise BudgetExceeded(
            f"{name} MILP budget exhausted before proving optimality "
            f"(incumbent delivers {schedule.throughput})",
            lower=lower,
            upper=max(lower, _upper_bound(res, upper, integral=integral)),
            incumbent=schedule,
        )
    return schedule, optimal


def time_indexed(
    msgs: Sequence[Any],
    link: Callable[[Any, int], Any],
    values: Sequence[float],
) -> tuple[Program, Callable[[np.ndarray], dict[int, tuple[int, ...]]]]:
    """The buffered (message, hop, time) 0/1 program.

    Each message (``release``, ``deadline``, ``span`` hops) crosses its
    ``h``-th hop on physical link ``link(m, h)``; variable ``y[m, h, t]``
    says it does so during ``[t, t+1]``.  Hop ``h`` can be crossed no
    sooner than ``release + h`` and, with ``span - h - 1`` hops still to
    go, no later than ``deadline - (span - h)``.  Rows, per message:

    * at most one crossing of its first hop, which earns ``values[i]``;
    * **conservation** — every later hop is crossed as often (0 or 1) as
      the first;
    * **precedence** — cumulative form: by any time ``t`` hop ``h+1`` has
      been crossed no more often than hop ``h`` by ``t - 1``;

    then **capacity**: each (link, step) carries at most one message.
    Returns the program and a decoder from chosen variables to each
    delivered message's hop times, keyed by its index in ``msgs``.
    """

    def window(m: Any, h: int) -> range:
        return range(m.release + h, m.deadline - (m.span - h) + 1)

    index: dict[tuple[int, int, int], int] = {}
    for mi, m in enumerate(msgs):
        for h in range(m.span):
            for t in window(m, h):
                index[(mi, h, t)] = len(index)
    program = Program(len(index))
    for mi, m in enumerate(msgs):
        first = [index[(mi, 0, t)] for t in window(m, 0)]
        program.objective[first] = values[mi]
        program.row(first)
        for h in range(1, m.span):
            program.row([index[(mi, h, t)] for t in window(m, h)], first, lo=0.0, hi=0.0)
        for h in range(m.span - 1):
            for t in window(m, h + 1):
                program.row(
                    [index[(mi, h + 1, tt)] for tt in window(m, h + 1) if tt <= t],
                    [index[(mi, h, tt)] for tt in window(m, h) if tt <= t - 1],
                    hi=0.0,
                )
    slots: dict[tuple[Any, int], list[int]] = {}
    for (mi, h, t), j in index.items():
        slots.setdefault((link(msgs[mi], h), t), []).append(j)
    program.pack(slots.values())

    def hop_times(chosen: np.ndarray) -> dict[int, tuple[int, ...]]:
        hops: dict[int, dict[int, int]] = {}
        for (mi, h, t), j in index.items():
            if chosen[j]:
                hops.setdefault(mi, {})[h] = t
        return {
            mi: tuple(per_hop[h] for h in range(msgs[mi].span))
            for mi, per_hop in hops.items()
        }

    return program, hop_times
