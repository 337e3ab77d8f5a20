"""Facade solver adapters, one per ``(topology, regime, method)`` cell.

Every adapter has the registry signature ``(instance, opts) -> RawResult``:
``opts`` is the facade's remaining keyword-option dict, which the adapter
must fully consume (unknown leftovers raise ``TypeError``, exactly as the
pre-topology facade did).  The implementation layer stays where it was —
``repro.exact.*``, ``repro.core.*``, ``repro.baselines.*``,
``repro.online.*`` for the line; :mod:`repro.topology.ring` /
:mod:`repro.topology.mesh` and their ``*_exact`` MILPs for the other
shapes — these wrappers only translate options and normalise results.

Heavy backends are imported inside the adapters, and the adapters
themselves are registered as lazy ``"module:attr"`` strings (see
``repro/topology/__init__.py``), so importing :mod:`repro` never drags
scipy in.
"""

from __future__ import annotations

from typing import Any

from .. import obs
from .base import RawResult

__all__ = ["BASELINES", "GREEDY_ORDERS", "POLICIES"]


def _take(opts: dict[str, Any], name: str, default: Any) -> Any:
    return opts.pop(name, default)


def _reject_unknown(opts: dict[str, Any], regime: str, method: str) -> None:
    if opts:
        unknown = ", ".join(sorted(opts))
        raise TypeError(
            f"solve(regime={regime!r}, method={method!r}) got unexpected "
            f"option(s): {unknown}"
        )


GREEDY_ORDERS = ("edf", "arrival", "laxity", "random")
BASELINES = ("exact", "bfl", "none")
POLICIES: dict[str, str] = {
    "edf": "EDFPolicy",
    "fcfs": "FCFSPolicy",
    "laxity": "MinLaxityPolicy",
    "nearest": "NearestDestPolicy",
}


def _named_policy(policy: Any) -> Any:
    """Resolve a policy name (or pass a ``Policy`` instance through)."""
    from .. import baselines
    from ..network.policy import Policy

    if isinstance(policy, str):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose one of {tuple(POLICIES)} "
                "or pass a Policy instance"
            )
        return getattr(baselines, POLICIES[policy])()
    if not isinstance(policy, Policy):
        raise TypeError(f"policy must be a name or Policy instance, got {policy!r}")
    return policy


# ==================================================================== #
# line
# ==================================================================== #


def line_bufferless_exact(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..errors import SolverBackendError
    from ..exact import opt_bufferless, opt_bufferless_bnb

    solver = _take(opts, "solver", "milp")
    if solver in ("milp", "auto"):
        kwargs: dict[str, Any] = {}
        for name in ("time_limit", "weights", "budget"):
            if name in opts:
                kwargs[name] = opts.pop(name)
        _reject_unknown(opts, "bufferless", "exact")
        try:
            result = opt_bufferless(instance, **kwargs)
        except SolverBackendError:
            if solver != "auto":
                raise
            # MILP backend failure: fall back to the dependency-free BnB.
            # BudgetExceeded deliberately propagates instead — the budget
            # was spent, so restarting a slower search would ignore it.
            obs.tracer().count("exact.fallbacks")
            result = opt_bufferless_bnb(instance, budget=kwargs.get("budget"))
        return RawResult(result.schedule, result.optimal)
    if solver == "bnb":
        kwargs = {}
        for name in ("node_limit", "budget"):
            if name in opts:
                kwargs[name] = opts.pop(name)
        _reject_unknown(opts, "bufferless", "exact")
        result = opt_bufferless_bnb(instance, **kwargs)
        return RawResult(result.schedule, result.optimal)
    raise ValueError(f"unknown exact solver {solver!r}; choose milp, bnb or auto")


def line_bufferless_bfl(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..backend import fall_back, resolve_backend
    from ..core.bfl import EDF, LONGEST_FIRST, NEAREST_DEST, bfl
    from ..core.bfl_fast import bfl_fast

    clip_slack = _take(opts, "clip_slack", False)
    tie_break = _take(opts, "tie_break", None)
    _reject_unknown(opts, "bufferless", "bfl")
    if resolve_backend() == "numpy":
        fall_back("bfl")  # BFL has no vectorized form
    if tie_break is None:
        return RawResult(bfl_fast(instance, clip_slack=clip_slack))
    # Non-default tie-breaks only exist in the readable reference.
    if isinstance(tie_break, str):
        named = {"nearest_dest": NEAREST_DEST, "edf": EDF, "longest_first": LONGEST_FIRST}
        if tie_break not in named:
            raise ValueError(
                f"unknown tie_break {tie_break!r}; choose one of {tuple(named)} "
                "(or pass a callable)"
            )
        tie_break = named[tie_break]
    return RawResult(bfl(instance, tie_break=tie_break, clip_slack=clip_slack))


def line_bufferless_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..baselines.bufferless import (
        edf_bufferless,
        first_fit,
        min_laxity_first,
        random_assignment,
    )

    order = _take(opts, "order", "edf")
    rng = _take(opts, "rng", None)
    _reject_unknown(opts, "bufferless", "greedy")
    if order == "edf":
        return RawResult(edf_bufferless(instance))
    if order == "arrival":
        return RawResult(first_fit(instance))
    if order == "laxity":
        return RawResult(min_laxity_first(instance))
    if order == "random":
        if rng is None:
            raise TypeError("order='random' requires an rng= option")
        return RawResult(random_assignment(instance, rng))
    raise ValueError(f"unknown greedy order {order!r}; choose one of {GREEDY_ORDERS}")


def line_buffered_exact(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..exact import opt_buffered, opt_buffered_bruteforce

    solver = _take(opts, "solver", "milp")
    if solver == "milp":
        kwargs: dict[str, Any] = {}
        for name in ("time_limit", "weights", "budget"):
            if name in opts:
                kwargs[name] = opts.pop(name)
        _reject_unknown(opts, "buffered", "exact")
        result = opt_buffered(instance, **kwargs)
        return RawResult(result.schedule, result.optimal)
    if solver == "bruteforce":
        kwargs = {}
        if "max_messages" in opts:
            kwargs["max_messages"] = opts.pop("max_messages")
        _reject_unknown(opts, "buffered", "exact")
        result = opt_buffered_bruteforce(instance, **kwargs)
        return RawResult(result.schedule, result.optimal)
    raise ValueError(f"unknown exact solver {solver!r}; choose milp or bruteforce")


def line_buffered_bfl(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..core.dbfl import dbfl

    from ..buffers import DEFAULT_ADMISSION
    from ..network.simulator import simulate

    buffer_capacity = _take(opts, "buffer_capacity", None)
    admission = _take(opts, "admission", DEFAULT_ADMISSION)
    _reject_unknown(opts, "buffered", "bfl")
    if buffer_capacity is not None:
        instance = instance.with_buffer_capacity(buffer_capacity)
    if admission != DEFAULT_ADMISSION:
        from ..core.dbfl import DBFLPolicy

        result = simulate(instance, DBFLPolicy(), admission=admission)
    else:
        result = dbfl(instance)
    extra = {"steps": result.stats.steps, "dropped": len(result.dropped_ids)}
    return RawResult(result.schedule, None, extra)


def line_buffered_ca(instance: Any, opts: dict[str, Any]) -> RawResult:
    """``method="ca"``: the Even–Medina–Rosén constant-approximation family
    (greedy reservation core, :mod:`repro.approx.ca`).

    Memoized through the content-addressed cache: the instance's own
    ``buffer_capacity`` is in its ``content_hash``, and an explicit
    override travels through the cache params.
    """
    from ..engine.cache import cached_ca

    buffer_capacity = _take(opts, "buffer_capacity", None)
    _reject_unknown(opts, "buffered", "ca")
    if buffer_capacity is None:
        result = cached_ca(instance)
    else:
        result = cached_ca(instance, buffer_capacity=buffer_capacity)
    extra = dict(result.extra)
    extra["buffer_capacity"] = result.buffer_capacity
    return RawResult(result.schedule, None, extra)


def line_buffered_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..network.simulator import simulate

    from ..buffers import DEFAULT_ADMISSION

    policy = _named_policy(_take(opts, "policy", "edf"))
    buffer_capacity = _take(opts, "buffer_capacity", None)
    admission = _take(opts, "admission", DEFAULT_ADMISSION)
    _reject_unknown(opts, "buffered", "greedy")
    result = simulate(
        instance, policy, buffer_capacity=buffer_capacity, admission=admission
    )
    extra = {"steps": result.stats.steps, "dropped": len(result.dropped_ids)}
    return RawResult(result.schedule, None, extra)


def _line_offline_opt(instance: Any, *, bufferless: bool) -> int:
    """Offline optimum throughput of the matching regime (MILP, with the
    dependency-free fallback when the backend is unavailable)."""
    from ..errors import SolverBackendError

    if bufferless:
        from ..exact import opt_bufferless, opt_bufferless_bnb

        try:
            return opt_bufferless(instance).schedule.throughput
        except SolverBackendError:
            obs.tracer().count("exact.fallbacks")
            return opt_bufferless_bnb(instance).schedule.throughput
    from ..exact import opt_buffered, opt_buffered_bruteforce

    try:
        return opt_buffered(instance).schedule.throughput
    except SolverBackendError:
        obs.tracer().count("exact.fallbacks")
        return opt_buffered_bruteforce(instance).schedule.throughput


def _stream_extra(run: Any) -> dict[str, Any]:
    # "__stream__" is not telemetry: api.solve pops the full StreamResult
    # out into ScheduleResult.stream before building the telemetry block.
    return {
        "policy": run.policy,
        "steps": run.steps,
        "decisions": len(run.decisions),
        "drops": {
            "policy": len(run.policy_dropped_ids),
            "fault": len(run.fault_dropped_ids),
        },
        **run.stats,
        "__stream__": run,
    }


def _line_online(instance: Any, method: str, opts: dict[str, Any]) -> RawResult:
    from ..online import online_bfl, online_dbfl, online_greedy

    baseline = _take(opts, "baseline", "exact")
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}; choose one of {BASELINES}")
    faults = _take(opts, "faults", None)
    if method == "bfl":
        _reject_unknown(opts, "online", "bfl")
        run = online_bfl(instance, faults=faults)
    elif method == "dbfl":
        buffer_capacity = _take(opts, "buffer_capacity", None)
        admission = _take(opts, "admission", None)
        _reject_unknown(opts, "online", "dbfl")
        kw = {} if admission is None else {"admission": admission}
        run = online_dbfl(
            instance, buffer_capacity=buffer_capacity, faults=faults, **kw
        )
    else:
        buffer_capacity = _take(opts, "buffer_capacity", None)
        admission = _take(opts, "admission", None)
        policy = _take(opts, "policy", "edf")
        _reject_unknown(opts, "online", "greedy")
        kw = {} if admission is None else {"admission": admission}
        run = online_greedy(
            instance, policy=policy, buffer_capacity=buffer_capacity, faults=faults, **kw
        )

    opt_value: int | None = None
    ratio: float | None = None
    if baseline == "bfl":
        from ..core.bfl_fast import bfl_fast

        ref = bfl_fast(instance).throughput
        ratio = 1.0 if ref == 0 else run.throughput / ref
    elif baseline == "exact":
        # Compared against the clean offline optimum of the matching
        # regime, even when faults= is active: the ratio then measures
        # the policy *and* the environment together.
        opt_value = _line_offline_opt(instance, bufferless=(method == "bfl"))
        ratio = 1.0 if opt_value == 0 else run.throughput / opt_value
    return RawResult(run.schedule, None, _stream_extra(run), ratio, opt_value)


def line_online_bfl(instance: Any, opts: dict[str, Any]) -> RawResult:
    return _line_online(instance, "bfl", opts)


def line_online_dbfl(instance: Any, opts: dict[str, Any]) -> RawResult:
    return _line_online(instance, "dbfl", opts)


def line_online_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    return _line_online(instance, "greedy", opts)


# ==================================================================== #
# ring
# ==================================================================== #


def ring_bufferless_exact(instance: Any, opts: dict[str, Any]) -> RawResult:
    from .ring_exact import opt_ring_bufferless

    kwargs: dict[str, Any] = {}
    if "time_limit" in opts:
        kwargs["time_limit"] = opts.pop("time_limit")
    _reject_unknown(opts, "bufferless", "exact")
    result = opt_ring_bufferless(instance, **kwargs)
    return RawResult(result.schedule, result.optimal)


def ring_bufferless_bfl(instance: Any, opts: dict[str, Any]) -> RawResult:
    from .ring import ring_bfl

    _reject_unknown(opts, "bufferless", "bfl")
    return RawResult(ring_bfl(instance))


def ring_buffered_exact(instance: Any, opts: dict[str, Any]) -> RawResult:
    from .ring_exact import opt_ring_buffered

    kwargs: dict[str, Any] = {}
    if "time_limit" in opts:
        kwargs["time_limit"] = opts.pop("time_limit")
    _reject_unknown(opts, "buffered", "exact")
    result = opt_ring_buffered(instance, **kwargs)
    return RawResult(result.schedule, result.optimal)


def ring_buffered_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..network.simulator import simulate

    from ..buffers import DEFAULT_ADMISSION

    policy = _named_policy(_take(opts, "policy", "edf"))
    buffer_capacity = _take(opts, "buffer_capacity", None)
    admission = _take(opts, "admission", DEFAULT_ADMISSION)
    _reject_unknown(opts, "buffered", "greedy")
    result = simulate(
        instance, policy, buffer_capacity=buffer_capacity, admission=admission
    )
    extra = {"steps": result.stats.steps, "dropped": len(result.dropped_ids)}
    return RawResult(result.schedule, None, extra)


def ring_online_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..online import online_greedy

    baseline = _take(opts, "baseline", "exact")
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}; choose one of {BASELINES}")
    faults = _take(opts, "faults", None)
    buffer_capacity = _take(opts, "buffer_capacity", None)
    admission = _take(opts, "admission", None)
    policy = _take(opts, "policy", "edf")
    _reject_unknown(opts, "online", "greedy")
    kw = {} if admission is None else {"admission": admission}
    run = online_greedy(
        instance, policy=policy, buffer_capacity=buffer_capacity, faults=faults, **kw
    )

    opt_value: int | None = None
    ratio: float | None = None
    if baseline == "bfl":
        from .ring import ring_bfl

        ref = ring_bfl(instance).throughput
        ratio = 1.0 if ref == 0 else run.throughput / ref
    elif baseline == "exact":
        # The buffered ring optimum bounds any (buffered) online run.
        from .ring_exact import opt_ring_buffered

        opt_value = opt_ring_buffered(instance).schedule.throughput
        ratio = 1.0 if opt_value == 0 else run.throughput / opt_value
    return RawResult(run.schedule, None, _stream_extra(run), ratio, opt_value)


# ==================================================================== #
# mesh
# ==================================================================== #


def mesh_bufferless_exact(instance: Any, opts: dict[str, Any]) -> RawResult:
    from .mesh_exact import opt_mesh_xy

    kwargs: dict[str, Any] = {}
    for name in ("conversion_delay", "time_limit"):
        if name in opts:
            kwargs[name] = opts.pop(name)
    _reject_unknown(opts, "bufferless", "exact")
    result = opt_mesh_xy(instance, **kwargs)
    return RawResult(result.schedule, result.optimal)


def mesh_bufferless_bfl(instance: Any, opts: dict[str, Any]) -> RawResult:
    from .mesh import xy_schedule

    conversion_delay = _take(opts, "conversion_delay", 0)
    _reject_unknown(opts, "bufferless", "bfl")
    return RawResult(xy_schedule(instance, conversion_delay=conversion_delay))


def mesh_bufferless_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..baselines.bufferless import edf_bufferless, first_fit
    from .mesh import xy_schedule

    order = _take(opts, "order", "edf")
    conversion_delay = _take(opts, "conversion_delay", 0)
    _reject_unknown(opts, "bufferless", "greedy")
    schedulers = {"edf": edf_bufferless, "arrival": first_fit}
    if order not in schedulers:
        raise ValueError(
            f"unknown greedy order {order!r}; choose one of {tuple(schedulers)}"
        )
    return RawResult(
        xy_schedule(
            instance,
            line_scheduler=schedulers[order],
            conversion_delay=conversion_delay,
        )
    )


def mesh_buffered_greedy(instance: Any, opts: dict[str, Any]) -> RawResult:
    from ..network.simulator import simulate

    from ..buffers import DEFAULT_ADMISSION

    policy = _named_policy(_take(opts, "policy", "edf"))
    buffer_capacity = _take(opts, "buffer_capacity", None)
    admission = _take(opts, "admission", DEFAULT_ADMISSION)
    _reject_unknown(opts, "buffered", "greedy")
    result = simulate(
        instance, policy, buffer_capacity=buffer_capacity, admission=admission
    )
    extra = {"steps": result.stats.steps, "dropped": len(result.dropped_ids)}
    return RawResult(result.schedule, None, extra)
