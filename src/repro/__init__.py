"""repro — time-constrained message scheduling in linear networks.

A complete, executable reproduction of Adler, Rosenberg, Sitaraman & Unger,
*Scheduling Time-Constrained Communication in Linear Networks* (SPAA 1998):
the BFL 2-approximation, the distributed online D-BFL, exact NP-hard
baselines, the buffered-vs-bufferless separation constructions, the 3-SAT
hardness reduction, a discrete-time network simulator, workload generators,
and the benchmark harness regenerating every figure and theorem bound.

Quickstart
----------
>>> from repro import make_instance, solve
>>> inst = make_instance(8, [(0, 4, 0, 6), (1, 5, 0, 5), (2, 6, 1, 8)])
>>> result = solve(inst, regime="bufferless", method="bfl")
>>> result.delivered
3

:func:`repro.api.solve` is the facade over every regime × method pair;
the per-module entrypoints (``bfl``, ``opt_bufferless``, ...) remain the
implementation layer underneath it.
"""

from .core import (
    BidirectionalSchedule,
    ConflictError,
    Direction,
    Instance,
    Message,
    Parallelogram,
    Schedule,
    ScheduleError,
    Segment,
    Trajectory,
    bfl,
    bfl_fast,
    buffered_trajectory,
    bufferless_trajectory,
    make_instance,
    schedule_problems,
    validate_schedule,
)
from .core.dbfl import dbfl
from .api import ScheduleResult, parse_instance, solve, solve_bidirectional
from .backend import BACKENDS, current_backend, resolve_backend, use_backend
from .budget import SolverBudget
from .errors import (
    BudgetExceeded,
    ConfigError,
    ReproError,
    ServerError,
    ServerOverloaded,
    SolverBackendError,
    TaskTimeoutError,
)

__version__ = "1.0.0"

__all__ = [
    "Message",
    "Direction",
    "Instance",
    "make_instance",
    "Parallelogram",
    "Segment",
    "Trajectory",
    "bufferless_trajectory",
    "buffered_trajectory",
    "Schedule",
    "ConflictError",
    "ScheduleError",
    "schedule_problems",
    "validate_schedule",
    "bfl",
    "bfl_fast",
    "dbfl",
    "BidirectionalSchedule",
    "ScheduleResult",
    "parse_instance",
    "solve",
    "solve_bidirectional",
    "BACKENDS",
    "current_backend",
    "resolve_backend",
    "use_backend",
    "SolverBudget",
    "ReproError",
    "BudgetExceeded",
    "ConfigError",
    "ServerError",
    "ServerOverloaded",
    "SolverBackendError",
    "TaskTimeoutError",
    "__version__",
]

