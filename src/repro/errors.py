"""Typed exceptions for the scheduling stack.

The NP-hard solvers and the sweep engine distinguish three ways
a call can stop short of a proven answer:

* :class:`BudgetExceeded` — a node/wall-time budget ran out.  Not a dead
  end: the exception carries *certified* throughput bounds (``lower`` from
  the best incumbent schedule found, ``upper`` from a relaxation or cut
  bound, so ``lower <= OPT <= upper`` always holds) plus the incumbent
  itself, letting callers degrade instead of crash —
  ``api.solve(..., on_budget="degrade")`` turns it into a
  ``status="bounded"`` result.
* :class:`SolverBackendError` — the MILP backend (HiGHS) failed outright;
  nothing certified is available.  ``solver="auto"`` falls back to the
  dependency-free branch-and-bound on this one.
* :class:`TaskTimeoutError` — a sweep-engine task exceeded its per-task
  wall ceiling more times than the retry policy allows.

All three subclass both :class:`ReproError` (the package-wide base) and
:class:`RuntimeError`, so pre-existing ``except RuntimeError`` call sites
keep working.

:class:`ConfigError` is the configuration-side counterpart: a run was
*described* wrongly (an unknown experiment parameter, a typo'd key, an
unregistered dispatch cell).  It subclasses both :class:`TypeError` and
:class:`ValueError` for the same compatibility reason — historic call
sites raised one or the other depending on whether the *shape* or the
*value* of the configuration was wrong.

:class:`ServerError` / :class:`ServerOverloaded` are the serving tier's
exceptions (:mod:`repro.server`, :mod:`repro.client`): the first wraps
any structured error payload a server returned that has no richer local
type, the second is the typed form of an HTTP 429 backpressure response
and carries the server's ``retry_after`` hint.

The crash-durability layer adds three more serving-tier types:

* :class:`DeadlineExceeded` — a ``deadline_ms``-tagged request could not
  finish in time.  Raised server-side (queue shedding, engine timeout,
  deadline-capped solver budget) and rebuilt client-side from the typed
  HTTP 504 payload; ``details`` may carry certified partial bounds when
  the solver got far enough to produce them.
* :class:`ServerShutdownError` — ``ReproServer.shutdown()`` could not
  join the server thread within its timeout; carries the drained vs.
  abandoned request counts so the failure is diagnosable instead of
  silently swallowed.
* :class:`CircuitOpenError` — the *client's* circuit breaker is open
  after consecutive connect failures; the request was never sent.
  ``retry_after`` says when the breaker will allow a half-open probe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.schedule import Schedule

__all__ = [
    "ReproError",
    "BudgetExceeded",
    "CircuitOpenError",
    "ConfigError",
    "DeadlineExceeded",
    "ServerError",
    "ServerOverloaded",
    "ServerShutdownError",
    "SolverBackendError",
    "TaskTimeoutError",
]


class ReproError(Exception):
    """Base class for every exception the package raises deliberately."""


class ConfigError(ReproError, TypeError, ValueError):
    """A run configuration names parameters the target does not accept."""


class SolverBackendError(ReproError, RuntimeError):
    """The underlying solver backend (HiGHS) failed to produce a result."""


class BudgetExceeded(ReproError, RuntimeError):
    """A solver budget (wall time or search nodes) was exhausted.

    Attributes
    ----------
    lower:
        Certified lower bound on the optimum — the throughput (or weighted
        value) of the best *feasible* schedule found before the budget
        tripped.  ``0`` when no incumbent exists (the empty schedule).
    upper:
        Certified upper bound on the optimum, from the MILP dual bound
        and/or :func:`repro.exact.bounds.cut_upper_bound`.  ``None`` only
        if the raising site could not compute one.
    incumbent:
        The best feasible :class:`~repro.core.schedule.Schedule` found so
        far (``None`` when none exists; treat as the empty schedule).
    spent:
        What was consumed when the budget tripped, e.g.
        ``{"nodes": 2000000}`` or ``{"wall_time": 1.5}``.
    """

    def __init__(
        self,
        message: str,
        *,
        lower: float = 0,
        upper: float | None = None,
        incumbent: "Schedule | None" = None,
        spent: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.incumbent = incumbent
        self.spent = dict(spent) if spent else {}


class TaskTimeoutError(ReproError, RuntimeError):
    """A sweep-engine task exceeded its per-task timeout on every attempt."""


class ServerError(ReproError, RuntimeError):
    """A scheduling server returned a structured error payload.

    Attributes
    ----------
    error_type:
        The wire error type (``"internal"``, ``"not_found"``, ...).
    details:
        The payload's machine-readable ``details`` object (may be empty).
    """

    def __init__(
        self,
        message: str,
        *,
        error_type: str = "internal",
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.details = dict(details) if details else {}


class ServerOverloaded(ServerError):
    """The server shed this request under backpressure (HTTP 429).

    ``retry_after`` is the server's back-off hint in seconds (``None``
    when the server did not send one).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message, error_type="overloaded", details=details)
        self.retry_after = retry_after


class DeadlineExceeded(ServerError):
    """A ``deadline_ms``-tagged request could not finish in time (HTTP 504).

    Raised at any point of the deadline chain — queue shedding before
    dispatch, the engine's per-batch timeout, or the deadline-derived
    solver wall-clock budget.  Attributes:

    ``deadline_ms``
        The end-to-end budget the request carried.
    ``shed``
        ``True`` when the request was dropped *before* any solver work
        started (pure queue shedding); ``False`` when work began but did
        not finish.  ``details`` may then carry certified partial bounds
        (``lower``/``upper``) from the interrupted solver.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_ms: float | None = None,
        shed: bool = False,
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message, error_type="deadline", details=details)
        self.deadline_ms = deadline_ms
        self.shed = shed


class ServerShutdownError(ReproError, RuntimeError):
    """The server thread failed to join within the shutdown timeout.

    ``drained`` counts requests fully answered over the server's
    lifetime, ``abandoned`` counts requests shed at shutdown (queued or
    in flight when the queue stopped) — surfaced so a wedged shutdown is
    a diagnosable failure, not a silently leaked thread.
    """

    def __init__(self, message: str, *, drained: int = 0, abandoned: int = 0) -> None:
        super().__init__(message)
        self.drained = drained
        self.abandoned = abandoned


class CircuitOpenError(ServerError):
    """The client's circuit breaker is open; the request was not sent.

    After ``threshold`` consecutive connect-level failures the breaker
    opens and fails calls fast for ``cooldown`` seconds, then lets one
    half-open probe through.  ``retry_after`` is the time until that
    probe is allowed.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message, error_type="circuit_open", details=details)
        self.retry_after = retry_after
