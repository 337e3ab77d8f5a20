"""``repro.api`` — the unified solver facade.

One entry point replaces the scattered per-module solvers::

    from repro import api

    result = api.solve(instance, regime="bufferless", method="exact")
    result.schedule    # the Schedule (byte-identical to the legacy call)
    result.delivered   # throughput
    result.optimal     # True = proven optimum, None = heuristic
    result.telemetry   # runtime + solver counters for this call

The instance's *topology* (``instance.topology`` — ``"line"`` for
:class:`~repro.core.instance.Instance`, ``"ring"``/``"mesh"`` for
``RingInstance``/``MeshInstance``) picks the network shape; ``regime``
selects the machine model; ``method`` the algorithm family.  Three
regimes exist:

* ``"bufferless"`` — offline, no waiting after departure;
* ``"buffered"`` — offline, store-and-forward with per-node buffers
  (unbounded by default; ``Instance.buffer_capacity`` bounds them, with
  the admission policies of :mod:`repro.buffers`);
* ``"online"`` — messages are revealed at their release times, every
  admit/launch/drop decision is irrevocable, and the result carries an
  empirical ``competitive_ratio`` against the offline optimum on the
  realized instance (see :mod:`repro.online`).

:data:`DISPATCH` is the full ``(topology, regime) -> methods`` matrix
(mirrored in ``docs/api.md``), populated by the solver registry in
:mod:`repro.topology`:

========  ============  =============================================
topology  regime        methods
========  ============  =============================================
line      bufferless    ``exact`` (``solver="milp"|"bnb"|"auto"``),
                        ``bfl`` (``tie_break=``, ``clip_slack=``),
                        ``greedy`` (``order=``, ``rng=``)
line      buffered      ``exact`` (``solver="milp"|"bruteforce"``),
                        ``bfl`` (D-BFL; ``buffer_capacity=``,
                        ``admission=``),
                        ``ca`` (Even–Medina–Rosén constant
                        approximation; ``buffer_capacity=``),
                        ``greedy`` (``policy=``, ``buffer_capacity=``,
                        ``admission=``)
line      online        ``bfl``, ``dbfl``, ``greedy`` (``baseline=``,
                        ``faults=``, ``buffer_capacity=``,
                        ``admission=``, ``policy=``)
ring      bufferless    ``exact`` (candidate-departure MILP,
                        ``time_limit=``), ``bfl`` (helix JISP greedy)
ring      buffered      ``exact`` (time-indexed MILP, ``time_limit=``),
                        ``greedy`` (``policy=``, ``buffer_capacity=``,
                        ``admission=``)
ring      online        ``greedy`` (``baseline=``, ``faults=``,
                        ``buffer_capacity=``, ``policy=``)
mesh      bufferless    ``exact`` (two-phase XY MILP,
                        ``conversion_delay=``, ``time_limit=``),
                        ``bfl`` (XY + BFL per row/column),
                        ``greedy`` (``order="edf"|"arrival"``)
mesh      buffered      ``greedy`` (``policy=``, ``buffer_capacity=``,
                        ``admission=``)
========  ============  =============================================

A missing combination raises a :class:`~repro.errors.ConfigError`
(also a ``ValueError``/``TypeError`` for compatibility) whose message
lists the live dispatch matrix and points at
:func:`repro.topology.register_solver`.  Online
solves accept ``baseline="exact"`` (default; the offline optimum of the
matching regime), ``"bfl"`` (the shape's scan-line/helix kernel —
cheap) or ``"none"`` to control what ``competitive_ratio`` is measured
against.

Every offline combination returns the *same schedule object* the legacy
entrypoint would (``repro.exact.*``, ``repro.core.bfl*``,
``repro.baselines.*``, ``repro.online.*`` and the
:mod:`repro.topology.ring`/:mod:`repro.topology.mesh` solvers remain the
implementation layer), wrapped in one :class:`ScheduleResult`.
Mixed-direction line instances go through :func:`solve_bidirectional`,
which performs the paper's split/mirror reduction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import obs
from . import topology as _topology
from .core.instance import Instance
from .core.schedule import Schedule
from .errors import ConfigError

__all__ = [
    "ScheduleResult",
    "solve",
    "solve_bidirectional",
    "parse_instance",
    "REGIMES",
    "METHODS",
    "DISPATCH",
]

REGIMES = ("bufferless", "buffered", "online")
#: The complete dispatch matrix: ``(topology, regime) -> methods``.
#: A snapshot of :func:`repro.topology.dispatch_matrix` taken at import;
#: :func:`solve` always consults the live registry, so late
#: ``register_solver`` calls take effect even though this constant does
#: not change.
DISPATCH = _topology.dispatch_matrix()
#: Union of all method names across regimes.
METHODS = ("exact", "bfl", "ca", "dbfl", "greedy")


@dataclass(frozen=True)
class ScheduleResult:
    """The canonical outcome of one :func:`solve` call.

    ``optimal`` is ``True`` when the method proved optimality, ``False``
    when an exact solver gave up early (e.g. a MILP time limit), and
    ``None`` for heuristics that never claim it.  ``telemetry`` holds the
    wall time of the call plus whatever counters the observability layer
    collected while it ran (solver nodes, simulator steps, ...).

    ``status`` summarises what the call *certifies*:

    * ``"optimal"`` — the schedule is a proven optimum;
    * ``"feasible"`` — a valid schedule with no optimality certificate
      (heuristics, or an exact solver that hit a plain ``time_limit``);
    * ``"bounded"`` — a budgeted exact solve degraded
      (``on_budget="degrade"``): the schedule is the best incumbent and
      ``lower <= OPT <= upper`` is certified;
    * ``"infeasible"`` — it is proven that no message can be delivered
      (certified upper bound 0).

    ``lower`` is always the delivered throughput of the returned schedule
    (feasible, hence a valid lower bound); ``upper`` is set only when
    certified (proven optima, degraded budget solves, and online solves
    against the ``"exact"`` baseline, where the offline optimum bounds
    any schedule).

    ``competitive_ratio`` is set by online solves only: delivered
    throughput divided by the baseline's (``1.0`` when the baseline
    itself delivers nothing).

    ``topology`` names the shape the solve ran on; ``schedule`` is the
    matching schedule type (``Schedule``, ``RingSchedule`` or
    ``MeshSchedule`` — all expose ``throughput`` and ``delivered_ids``).

    ``request`` is set only on results that travelled through the serving
    tier (:mod:`repro.server`): a small telemetry block recording the
    request id, the server that answered, the execution backend, and the
    seconds the request waited in the solve queue.  Local solves leave it
    ``None`` and :meth:`to_dict` omits the key.

    ``workload`` is workload provenance — the ``{trace_id, shape, seed}``
    block a trace replay stamps (``solve(..., workload=...)``, usually via
    :func:`repro.trace.replay`) so any result can be traced back to the
    workload that produced it.  Ad-hoc solves leave it ``None`` and
    :meth:`to_dict` omits the key.

    ``buffers`` is the bounded-buffer provenance block —
    ``{"capacity": int | None, "admission": str}`` — stamped whenever
    the solve ran against a finite buffer capacity (from the instance's
    ``buffer_capacity`` or a ``buffer_capacity=`` option) or a
    non-default admission policy.  Unbounded solves leave it ``None``
    and :meth:`to_dict` omits the key, keeping v4-era payloads
    byte-identical.

    ``stream`` is set on online solves only: the full
    :class:`~repro.online.StreamResult` of the run (decision log, drop
    attribution, stats).  It is a local-process convenience — it does not
    serialize; :meth:`to_dict` round trips drop it.
    """

    schedule: Any
    regime: str
    method: str
    optimal: bool | None
    telemetry: dict[str, Any] = field(default_factory=dict)
    status: str = "feasible"
    lower: float | None = None
    upper: float | None = None
    competitive_ratio: float | None = None
    topology: str = "line"
    request: dict[str, Any] | None = None
    workload: dict[str, Any] | None = None
    buffers: dict[str, Any] | None = None
    stream: Any = field(default=None, compare=False, repr=False)

    #: Version of the :meth:`to_dict` serialization schema (bump on any
    #: backwards-incompatible change; documented in ``docs/api.md``).
    #: v2 added the ``topology`` field and per-topology ``schedule``
    #: documents; v3 added the optional ``request`` telemetry block and
    #: the lossless :meth:`from_dict` inverse; v4 added the optional
    #: ``workload`` provenance block; v5 added the optional ``buffers``
    #: provenance block (bounded buffer capacity + admission policy).
    SCHEMA_VERSION = 5

    @property
    def delivered(self) -> int:
        """Number of messages the schedule delivers."""
        return self.schedule.throughput

    @property
    def throughput(self) -> int:
        return self.schedule.throughput

    @property
    def delivered_ids(self) -> frozenset[int]:
        return self.schedule.delivered_ids

    def __iter__(self):
        """Iterate over the schedule's trajectories."""
        return iter(self.schedule.trajectories)

    def summary(self) -> dict[str, Any]:
        """The scalar facts of the solve — no schedule, no telemetry."""
        out: dict[str, Any] = {
            "topology": self.topology,
            "regime": self.regime,
            "method": self.method,
            "status": self.status,
            "delivered": self.delivered,
            "optimal": self.optimal,
            "lower": self.lower,
            "upper": self.upper,
        }
        if self.competitive_ratio is not None:
            out["competitive_ratio"] = self.competitive_ratio
        return out

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON form shared by sweeps, checkpoints and exporters.

        Schema (documented in ``docs/api.md``): ``format`` is always
        ``"repro-schedule-result"``, ``version`` is
        :data:`SCHEMA_VERSION`; the scalar fields of :meth:`summary` sit
        at the top level next to the embedded ``schedule`` document
        (delegated to the topology — :func:`repro.io.schedule_to_dict`
        for lines, the ring/mesh documents otherwise) and the
        JSON-sanitized ``telemetry``.  The ``request`` block appears only
        on server-produced results.  :meth:`from_dict` is the lossless
        inverse.
        """
        out = {
            "format": "repro-schedule-result",
            "version": self.SCHEMA_VERSION,
            **self.summary(),
            "schedule": _topology.get_topology(self.topology).schedule_to_dict(
                self.schedule
            ),
            "telemetry": _jsonable(self.telemetry),
        }
        if self.request is not None:
            out["request"] = _jsonable(self.request)
        if self.workload is not None:
            out["workload"] = _jsonable(self.workload)
        if self.buffers is not None:
            out["buffers"] = _jsonable(self.buffers)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScheduleResult":
        """Rebuild a :class:`ScheduleResult` from its :meth:`to_dict` form.

        Accepts every schema version up to :data:`SCHEMA_VERSION` — v1
        payloads (no ``topology`` field) parse as line results, v2
        payloads (no ``request`` block) parse with ``request=None``, v3
        payloads (no ``workload`` block) with ``workload=None``, v4
        payloads (no ``buffers`` block) with ``buffers=None`` — so
        archived results and older servers keep deserializing.  The
        embedded ``schedule`` document is delegated to the topology's
        ``schedule_from_dict``, which re-runs the model validators.
        """
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        fmt = data.get("format")
        if fmt != "repro-schedule-result":
            raise ValueError(f"expected format 'repro-schedule-result', got {fmt!r}")
        version = data.get("version")
        if not isinstance(version, int) or not 1 <= version <= cls.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported version {version!r} "
                f"(supported: 1..{cls.SCHEMA_VERSION})"
            )
        topo_name = data.get("topology", "line")
        try:
            schedule = _topology.get_topology(topo_name).schedule_from_dict(
                data["schedule"]
            )
            regime = data["regime"]
            method = data["method"]
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in result data") from exc
        request = data.get("request")
        workload = data.get("workload")
        buffers = data.get("buffers")
        return cls(
            schedule=schedule,
            regime=regime,
            method=method,
            optimal=data.get("optimal"),
            telemetry=dict(data.get("telemetry") or {}),
            status=data.get("status", "feasible"),
            lower=data.get("lower"),
            upper=data.get("upper"),
            competitive_ratio=data.get("competitive_ratio"),
            topology=topo_name,
            request=dict(request) if request is not None else None,
            workload=dict(workload) if workload is not None else None,
            buffers=dict(buffers) if buffers is not None else None,
        )


def _jsonable(value: Any) -> Any:
    """Best-effort projection onto the JSON value space."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def parse_instance(data: dict[str, Any] | str | bytes) -> Any:
    """Parse one instance document (dict or JSON text) into an instance.

    The single parse entrypoint shared by the CLI (``repro solve``), the
    server (:mod:`repro.server`) and the client (:mod:`repro.client`) —
    every path that turns JSON back into an ``Instance`` /
    ``RingInstance`` / ``MeshInstance`` goes through here.  The
    document's ``topology`` key (default ``"line"``, so pre-existing
    line files parse unchanged) selects the topology, whose
    ``instance_from_dict`` validates the header and re-runs the model
    validators.  Raises ``ValueError`` on malformed documents.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(
            f"expected a JSON object for the instance, got {type(data).__name__}"
        )
    topo_name = data.get("topology", "line")
    if not isinstance(topo_name, str):
        raise ValueError(f"instance 'topology' must be a string, got {topo_name!r}")
    return _topology.get_topology(topo_name).instance_from_dict(data)


def _render_matrix(matrix: dict[tuple[str, str], tuple[str, ...]]) -> str:
    """The live dispatch matrix as one readable line per (topology, regime)."""
    return "; ".join(
        f"{topo}/{regime}: {', '.join(methods)}"
        for (topo, regime), methods in sorted(matrix.items())
    )


def solve(
    instance: Any,
    regime: str = "bufferless",
    method: str = "exact",
    **opts: Any,
) -> ScheduleResult:
    """Schedule ``instance`` under ``regime`` with ``method``.

    The instance's ``topology`` attribute picks the network shape; the
    solver registry (:func:`repro.topology.register_solver`) supplies the
    implementation for the ``(topology, regime, method)`` cell.  See the
    module docstring for the full matrix and each cell's options.  The
    returned schedule is identical to the one the corresponding legacy
    entrypoint produces.  Mixed-direction line instances raise — use
    :func:`solve_bidirectional` for the split/mirror reduction.

    Exact solves on lines accept ``budget=SolverBudget(wall_time=...,
    nodes=...)``.  ``on_budget`` decides what an exhausted budget does:
    ``"raise"`` (the default) lets the typed
    :class:`~repro.errors.BudgetExceeded` propagate; ``"degrade"``
    converts it into a result whose ``status`` is ``"bounded"`` (or
    ``"infeasible"``/``"optimal"`` when the certified bounds close the
    gap), whose schedule is the best incumbent found, and whose
    ``lower``/``upper`` bracket the true optimum.

    ``backend="python"|"numpy"`` selects the execution backend for the
    kernels underneath the call (the network simulator and the online
    policies that run through it ship a vectorized twin with
    bit-identical results — see :mod:`repro.backend`).  Omitted, the
    ambient backend applies (``repro.use_backend(...)`` context, else the
    ``REPRO_BACKEND`` environment variable, else python).  The resolved
    choice is recorded in ``telemetry["backend"]``; work outside the
    vectorized envelope falls back to the python path per call, counted
    under the ``backend.fallbacks`` observability counters.
    """
    topo = _topology.topology_of(instance)
    matrix = _topology.dispatch_matrix()
    if regime not in REGIMES:
        raise ConfigError(
            f"unknown regime {regime!r}; choose one of {REGIMES}. "
            f"Registered cells: {_render_matrix(matrix)}"
        )
    methods = matrix.get((topo.name, regime))
    if not methods:
        raise ConfigError(
            f"no solver registered for topology {topo.name!r} in regime "
            f"{regime!r}. Registered cells: {_render_matrix(matrix)} "
            "(register new ones with repro.topology.register_solver)"
        )
    if method not in methods:
        raise ConfigError(
            f"unknown method {method!r} for topology {topo.name!r}, regime "
            f"{regime!r}; choose one of {methods}. "
            f"Registered cells: {_render_matrix(matrix)} "
            "(register new ones with repro.topology.register_solver)"
        )
    on_budget = opts.pop("on_budget", "raise")
    if on_budget not in ("raise", "degrade"):
        raise ValueError(
            f"unknown on_budget {on_budget!r}; choose 'raise' or 'degrade'"
        )
    workload = opts.pop("workload", None)
    if workload is not None and not isinstance(workload, dict):
        raise ValueError(
            f"workload= must be a provenance dict "
            f"(e.g. trace.provenance()), got {type(workload).__name__}"
        )
    if "budget" in opts and method != "exact":
        raise TypeError(
            f"budget= only applies to method='exact' solves, not method={method!r}"
        )
    from .backend import resolve_backend, use_backend
    from .buffers import DEFAULT_ADMISSION
    from .errors import BudgetExceeded

    # Bounded-buffer provenance: the effective capacity is the option if
    # given, else the instance's own; captured here because the adapter
    # consumes the opts dict.
    eff_capacity = opts.get("buffer_capacity")
    if eff_capacity is None:
        eff_capacity = getattr(instance, "buffer_capacity", None)
    eff_admission = opts.get("admission", DEFAULT_ADMISSION)
    buffers_block: dict[str, Any] | None = None
    if eff_capacity is not None or eff_admission != DEFAULT_ADMISSION:
        buffers_block = {"capacity": eff_capacity, "admission": eff_admission}

    backend = resolve_backend(opts.pop("backend", None))
    fn = _topology.solver_for(topo.name, regime, method)

    tr = obs.tracer()
    counters_before = tr.counters_snapshot() if tr.enabled else None
    t0 = time.perf_counter()
    degraded: BudgetExceeded | None = None
    try:
        with use_backend(backend):
            raw = fn(instance, opts)
        schedule = raw.schedule
        optimal = raw.optimal
        extra: dict[str, Any] = dict(raw.extra)
        ratio = raw.ratio
        online_opt = raw.upper
    except BudgetExceeded as exc:
        if on_budget != "degrade":
            raise
        degraded = exc
        schedule = exc.incumbent if exc.incumbent is not None else Schedule()
        optimal = False
        extra = {}
        ratio = None
        online_opt = None
    elapsed = time.perf_counter() - t0
    # Online adapters tuck the full StreamResult into the extras; it is a
    # rich local object, not telemetry — lift it out before serialization
    # and stamp the workload provenance on it so result.stream.to_dict()
    # matches what a served replay of the same trace returns.
    stream = extra.pop("__stream__", None)
    if stream is not None and workload is not None:
        import dataclasses

        stream = dataclasses.replace(stream, workload=dict(workload))

    if degraded is not None:
        lower: float | None = degraded.lower
        upper: float | None = degraded.upper
        if upper == 0:
            status = "infeasible"
        elif upper is not None and lower == upper:
            status = "optimal"
            optimal = True
        else:
            status = "bounded"
        extra["budget"] = {"reason": str(degraded), "spent": degraded.spent}
        tr.count("api.budget_degrades")
        tr.event("api.budget_degrade", regime=regime, status=status)
    elif optimal:
        status = "infeasible" if schedule.throughput == 0 and len(instance) else "optimal"
        lower = upper = schedule.throughput
    else:
        status = "feasible"
        lower = schedule.throughput
        # The offline optimum certifies an upper bound on any online run.
        upper = online_opt

    telemetry: dict[str, Any] = {"seconds": elapsed, "backend": backend, **extra}
    if counters_before is not None:
        delta = tr.counters_since(counters_before)
        if delta:
            telemetry["counters"] = delta
        tr.record_span(
            "api.solve",
            t0,
            topology=topo.name,
            regime=regime,
            method=method,
            delivered=schedule.throughput,
            status=status,
        )
    return ScheduleResult(
        schedule=schedule,
        regime=regime,
        method=method,
        optimal=optimal,
        telemetry=telemetry,
        status=status,
        lower=lower,
        upper=upper,
        competitive_ratio=ratio,
        topology=topo.name,
        workload=dict(workload) if workload is not None else None,
        buffers=buffers_block,
        stream=stream,
    )


def solve_bidirectional(
    instance: Instance,
    scheduler: Callable[[Instance], Schedule] | None = None,
    *,
    validate: bool = True,
):
    """Split by direction, solve each half, recombine (the paper's reduction).

    The two directions share no resources on a full-duplex, dual-ported
    line, so superposing per-direction solutions preserves any
    per-direction guarantee — with exact per-half schedulers the combined
    throughput is the global optimum.  ``scheduler`` maps a purely
    left-to-right instance to a :class:`Schedule`; the default is the
    scan-line BFL kernel.  Returns a
    :class:`repro.core.solve.BidirectionalSchedule` (the right-to-left
    half is expressed in mirrored coordinates, exactly as before).

    Line-only: the reduction *is* the line topology's decomposition.
    Rings cut-reduce and meshes XY-decompose instead — see
    ``Topology.decompose``.
    """
    from .core.bfl_fast import bfl_fast
    from .core.solve import BidirectionalSchedule
    from .core.validate import validate_schedule

    if getattr(instance, "topology", "line") != "line":
        raise ValueError(
            "solve_bidirectional is line-only (the direction split is the "
            "line's decomposition); use repro.topology.topology_of(instance)"
            ".decompose(instance) for the ring/mesh reductions"
        )
    if scheduler is None:
        scheduler = bfl_fast
    lr_half, rl_half = instance.split_directions()
    mirrored_rl = rl_half.mirrored()

    lr_schedule = scheduler(lr_half)
    rl_schedule = scheduler(mirrored_rl)
    if validate:
        validate_schedule(lr_half, lr_schedule)
        validate_schedule(mirrored_rl, rl_schedule)
    return BidirectionalSchedule(instance=instance, lr=lr_schedule, rl=rl_schedule)
