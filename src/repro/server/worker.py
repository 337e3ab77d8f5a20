"""The solve task the server's batch queue hands to the engine pool.

:func:`solve_cell` is module-level and takes/returns plain dicts only,
so it pickles into ``ProcessPoolExecutor`` workers when the server runs
with ``jobs > 1`` (:class:`repro.engine.Engine` semantics).  It never
raises: every failure is folded into a structured error payload
(:func:`repro.server.protocol.error_body`), because one bad request in a
batch must not poison the other requests travelling with it.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any

from ..api import parse_instance, solve
from ..budget import SolverBudget
from ..chaos.plan import KILL_GATE_ENV
from ..errors import BudgetExceeded, ConfigError, SolverBackendError
from .protocol import error_body

__all__ = ["solve_cell", "decode_options"]


def _maybe_chaos_kill(payload: dict[str, Any]) -> None:
    """Honour a ``{"chaos": {"kill": true}}`` payload — in a pool worker.

    The chaos harness uses this to crash a worker process mid-batch
    (``BrokenProcessPool`` upstream).  Two guards keep it from ever
    touching production or the server process itself: the
    ``REPRO_CHAOS_ALLOW_KILL`` env gate must be set, and the current
    process must be a multiprocessing child (``jobs=1`` in-process
    solves refuse the kill and answer normally).
    """
    chaos = payload.get("chaos")
    if not (isinstance(chaos, dict) and chaos.get("kill")):
        return
    if not os.environ.get(KILL_GATE_ENV):
        return
    if multiprocessing.current_process().name == "MainProcess":
        return
    os._exit(137)  # simulate SIGKILL: no cleanup, no excepthook


def decode_options(options: Any) -> dict[str, Any]:
    """Decode a request's JSON ``options`` into ``api.solve`` keywords.

    Most options pass through untouched (``solver``, ``tie_break``,
    ``policy``, ``on_budget``, ...); the one wire-specific shape is
    ``budget``, which arrives as ``{"wall_time": ..., "nodes": ...}``
    and becomes a :class:`~repro.budget.SolverBudget`.
    """
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise ValueError(
            f"'options' must be a JSON object, got {type(options).__name__}"
        )
    opts = dict(options)
    budget = opts.get("budget")
    if budget is not None and not isinstance(budget, SolverBudget):
        if not isinstance(budget, dict):
            raise ValueError(
                "'budget' must be an object like "
                '{"wall_time": seconds, "nodes": count}'
            )
        unknown = set(budget) - {"wall_time", "nodes"}
        if unknown:
            raise ValueError(f"unknown budget field(s): {sorted(unknown)}")
        opts["budget"] = SolverBudget(
            wall_time=budget.get("wall_time"), nodes=budget.get("nodes")
        )
    return opts


def solve_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one solve request; always returns a dict, never raises.

    Success: ``{"ok": True, "result": <ScheduleResult.to_dict()>}``.
    Failure: ``{"ok": False, "error": <error payload>}`` with the error
    type picking the HTTP status upstream (``config`` -> 400,
    ``budget_exceeded`` -> 422, ``solver_backend`` -> 503, ...).
    ``on_budget="degrade"`` solves come back as *successes* with
    ``status="bounded"`` — the server passes certified degradation
    through instead of turning it into an error.
    """
    deadline_s = None
    try:
        _maybe_chaos_kill(payload)
        deadline_s = payload.get("_deadline_s")
        instance = parse_instance(payload["instance"])
        regime = payload.get("regime", "bufferless")
        method = payload.get("method", "exact")
        opts = decode_options(payload.get("options"))
        if deadline_s is not None and method == "exact":
            # Deadline chain, last solver-side link: cap the exact
            # solver's wall budget with the request's remaining time so
            # the search stops (with certified bounds) instead of
            # overrunning the deadline.
            budget = opts.get("budget")
            if budget is None:
                opts["budget"] = SolverBudget(wall_time=float(deadline_s))
            elif budget.wall_time is None or budget.wall_time > deadline_s:
                opts["budget"] = SolverBudget(
                    wall_time=float(deadline_s), nodes=budget.nodes
                )
        result = solve(instance, regime, method, **opts)
        return {"ok": True, "result": result.to_dict()}
    except ConfigError as exc:
        return {"ok": False, "error": error_body("config", str(exc))}
    except BudgetExceeded as exc:
        if deadline_s is not None and "budget" not in (
            (payload.get("options") or {}) if isinstance(payload, dict) else {}
        ):
            # The budget that tripped was the deadline cap the server
            # injected, not one the client asked for: the typed outcome
            # is a deadline miss, with the certified partial bounds the
            # interrupted search still earned.
            return {
                "ok": False,
                "error": error_body(
                    "deadline",
                    f"solve exceeded its {deadline_s * 1e3:.0f} ms deadline: "
                    f"{exc}",
                    deadline_ms=deadline_s * 1e3,
                    lower=exc.lower,
                    upper=exc.upper,
                    spent=exc.spent,
                ),
            }
        return {
            "ok": False,
            "error": error_body(
                "budget_exceeded",
                str(exc),
                lower=exc.lower,
                upper=exc.upper,
                spent=exc.spent,
            ),
        }
    except SolverBackendError as exc:
        return {"ok": False, "error": error_body("solver_backend", str(exc))}
    except KeyError as exc:
        return {
            "ok": False,
            "error": error_body("bad_request", f"missing field {exc} in request"),
        }
    except (ValueError, TypeError) as exc:
        return {"ok": False, "error": error_body("bad_request", str(exc))}
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return {
            "ok": False,
            "error": error_body("internal", f"{type(exc).__name__}: {exc}"),
        }
