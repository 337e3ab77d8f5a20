"""Structured resource budgets for the NP-hard exact solvers.

A :class:`SolverBudget` caps how much work an exact solve may do —
wall-clock seconds, branch-and-bound nodes, or both — and is threaded
through ``opt_bufferless`` / ``opt_bufferless_bnb`` / ``opt_buffered``
/ ``opt_buffered_bruteforce`` and :func:`repro.api.solve`.  Exhaustion raises
:class:`repro.errors.BudgetExceeded` carrying certified bounds and the
best incumbent, instead of silently returning a maybe-suboptimal answer:
a budgeted solve either *proves* its result or *says how far it got*.

The MILP solvers map the budget onto HiGHS options (``time_limit``,
``node_limit``); the pure-Python branch-and-bound and brute-force
searches poll a :class:`BudgetMeter` inside their search loops.  ``opt_bufferless`` does
both: its certificate search polls the wall clock, and the MILP it falls
back to gets the remaining wall time plus the node limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["SolverBudget", "BudgetMeter"]


@dataclass(frozen=True)
class SolverBudget:
    """Resource ceiling for one exact solve.

    ``wall_time`` is in seconds, ``nodes`` counts branch-and-bound search
    nodes (for the MILP backends it maps to the HiGHS node limit).
    ``None`` means unlimited for that axis; at least one axis must be set.
    """

    wall_time: float | None = None
    nodes: int | None = None

    def __post_init__(self) -> None:
        if self.wall_time is None and self.nodes is None:
            raise ValueError("a SolverBudget needs wall_time and/or nodes")
        if self.wall_time is not None and self.wall_time <= 0:
            raise ValueError(f"wall_time must be positive, got {self.wall_time}")
        if self.nodes is not None and self.nodes <= 0:
            raise ValueError(f"nodes must be positive, got {self.nodes}")

    def meter(self) -> "BudgetMeter":
        """Start the clock: a mutable meter for search loops to poll."""
        return BudgetMeter(self)


class BudgetMeter:
    """Tracks consumption against one :class:`SolverBudget`.

    Search loops call :meth:`tick` once per node; it returns the name of
    the exhausted axis (``"nodes"`` / ``"wall_time"``) or ``None`` while
    within budget.  The wall clock is only consulted every
    ``check_interval`` ticks to keep the per-node overhead to an integer
    compare.
    """

    __slots__ = ("budget", "nodes", "_deadline", "_check_interval")

    def __init__(self, budget: SolverBudget, *, check_interval: int = 1024) -> None:
        self.budget = budget
        self.nodes = 0
        self._deadline = (
            time.perf_counter() + budget.wall_time
            if budget.wall_time is not None
            else None
        )
        self._check_interval = check_interval

    def tick(self) -> str | None:
        self.nodes += 1
        if self.budget.nodes is not None and self.nodes > self.budget.nodes:
            return "nodes"
        if (
            self._deadline is not None
            and self.nodes % self._check_interval == 0
            and time.perf_counter() > self._deadline
        ):
            return "wall_time"
        return None

    def spent(self) -> dict[str, float]:
        """What has been consumed so far (for ``BudgetExceeded.spent``)."""
        out: dict[str, float] = {"nodes": self.nodes}
        if self._deadline is not None:
            assert self.budget.wall_time is not None
            out["wall_time"] = self.budget.wall_time - (
                self._deadline - time.perf_counter()
            )
        return out
