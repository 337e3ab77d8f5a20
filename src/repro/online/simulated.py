"""Simulator-backed online policies: ``online_dbfl`` and ``online_greedy``.

D-BFL and the buffered per-link heuristics already *are* online
algorithms — every decision at node ``v``, step ``t`` uses only what has
physically reached ``v`` by ``t`` (the simulator enforces this; see
:mod:`repro.network.policy`).  :class:`SimulatedRunner` drives them
through :class:`~repro.network.simulator.LinearNetworkSimulator` and
re-expresses the run in the stream vocabulary: a
:class:`~repro.online.stream.Decision` log (launch = first link
crossing, whether or not the packet is later delivered; drops from the
simulator's drop events) and a :class:`~repro.online.stream.StreamResult`.

Drop attribution: the simulator's ``"fault"`` drops are *fault* drops;
``"deadline"`` (starved until hopeless, or past the horizon) and
``"buffer_full"`` (finite buffer full — a consequence of the policy's
forwarding choices) are *policy* drops.

A run fed in one batch and closed (:func:`repro.online.run_online`)
hands the whole instance to :meth:`LinearNetworkSimulator.run`, so the
numpy backend applies.  A run fed in batches steps the python simulator
(``start`` / ``add`` / ``advance``) up to each frontier; a ``"numpy"``
request then falls back, counted under ``backend.fallbacks``.  Both give
the same result (the python ≡ numpy parity invariant).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from ..buffers import DEFAULT_ADMISSION
from ..core.instance import Instance
from ..network.faults import FaultPlan
from ..network.policy import Policy
from ..network.simulator import LinearNetworkSimulator
from .runner import OnlineRunner
from .stream import Decision, StreamResult

__all__ = ["SimulatedRunner", "online_dbfl", "online_greedy"]

GREEDY_POLICIES = ("edf", "fcfs", "laxity", "nearest")


def _greedy_policy(policy: str | Policy) -> tuple[str, Policy]:
    """``(display name, Policy object)`` for a greedy policy name or object."""
    from .. import baselines

    if isinstance(policy, Policy):
        return type(policy).__name__, policy
    if not isinstance(policy, str):
        raise TypeError(f"policy must be a name or Policy instance, got {policy!r}")
    named = {
        "edf": baselines.EDFPolicy,
        "fcfs": baselines.FCFSPolicy,
        "laxity": baselines.MinLaxityPolicy,
        "nearest": baselines.NearestDestPolicy,
    }
    if policy not in named:
        raise ValueError(
            f"unknown policy {policy!r}; choose one of {GREEDY_POLICIES} "
            "or pass a Policy instance"
        )
    return policy, named[policy]()


def _decision_log(
    launches: Iterable[tuple[int, int]], drops: Iterable[tuple[int, int, str]]
) -> list[Decision]:
    """Decisions from ``(id, time)`` launches and ``(id, time, simulator
    reason)`` drops, in log order ``(time, message_id)``."""
    out = [Decision(mid, "launch", at) for mid, at in launches]
    out.extend(
        Decision(mid, "drop", at, reason="fault" if why == "fault" else "policy")
        for mid, at, why in drops
    )
    out.sort(key=lambda d: (d.time, d.message_id))
    return out


class SimulatedRunner(OnlineRunner):
    """A simulator policy as a resumable online run.

    The simulator starts stepping on the first feed whose frontier is
    past time 0; until then arrivals only accumulate, and a close runs
    the whole instance through :meth:`LinearNetworkSimulator.run`.
    """

    def __init__(
        self,
        name: str,
        instance: Any,
        policy: Policy,
        *,
        buffer_capacity: int | None = None,
        admission: str = DEFAULT_ADMISSION,
        faults: FaultPlan | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(instance)
        self.name = name
        self._options = dict(
            buffer_capacity=buffer_capacity,
            admission=admission,
            faults=faults,
            backend=backend,
        )
        # Built now so a bad capacity, admission or fault plan is
        # rejected at start, before anything is fed.
        self._sim = LinearNetworkSimulator(instance, policy, **self._options)
        self._started = False
        self._unstarted: list[Any] = []  # arrivals fed before stepping began

    @property
    def steps(self) -> int:
        return self._sim.time if self._started else 0

    def _check(self, batch: Any) -> None:
        self._sim.topology.validate_sim_instance(batch)

    def _add(self, batch: Any) -> None:
        if self._started:
            self._sim.add(batch)
        else:
            self._unstarted.extend(batch)

    def _advance(self, until: int | None) -> list[Decision]:
        if not self._started:
            if until is None or until <= 0:
                return []  # nothing can happen before time 0
            from ..backend import fall_back, resolve_backend

            if resolve_backend(self._sim.backend) == "numpy":
                fall_back("simulator")  # incremental runs step the python loop
            self._sim.start()
            self._sim.add(self._whole())
            self._unstarted = []
            self._started = True
        launched, dropped = self._sim.advance(until)
        return _decision_log(
            ((p.id, p.crossings[0]) for p in launched),
            ((p.id, p.dropped_at, p.drop_reason) for p in dropped),
        )

    def _whole(self) -> Any:
        return dataclasses.replace(self.instance, messages=tuple(self._unstarted))

    def _finish(self) -> StreamResult:
        if self._started:
            result = self._sim.finish()
        else:
            result = LinearNetworkSimulator(
                self._whole(), self._sim.policy, **self._options
            ).run()
        st = result.stats
        return StreamResult(
            policy=self.name,
            schedule=result.schedule,
            delivered_ids=result.delivered_ids,
            dropped={
                mid: "fault" if why == "fault" else "policy"
                for mid, _at, why in result.drop_events
            },
            decisions=tuple(_decision_log(result.launch_events, result.drop_events)),
            steps=st.steps,
            stats={
                "fault_drops": st.fault_drops,
                "link_down_blocks": st.link_down_blocks,
                "stall_blocks": st.stall_blocks,
                "buffer_overflow_drops": st.buffer_overflow_drops,
            },
            topology=getattr(self.instance, "topology", "line"),
        )


def online_dbfl(
    instance: Instance,
    *,
    buffer_capacity: int | None = None,
    admission: str = DEFAULT_ADMISSION,
    faults: FaultPlan | None = None,
    backend: str | None = None,
) -> StreamResult:
    """The paper's distributed online rule, streamed through the simulator.

    ``backend`` is forwarded to the simulator; D-BFL drives the control
    channel, which is outside the vectorized envelope, so a ``"numpy"``
    request currently falls back to the python loop (counted under
    ``backend.fallbacks``).
    """
    from . import run_online

    return run_online(
        instance,
        "dbfl",
        buffer_capacity=buffer_capacity,
        admission=admission,
        faults=faults,
        backend=backend,
    )


def online_greedy(
    instance: Instance,
    *,
    policy: str | Policy = "edf",
    buffer_capacity: int | None = None,
    admission: str = DEFAULT_ADMISSION,
    faults: FaultPlan | None = None,
    backend: str | None = None,
) -> StreamResult:
    """A buffered per-link heuristic, streamed through the simulator.

    With ``backend="numpy"`` (explicit or ambient) the named policies run
    on the vectorized simulator loop — bit-identical results, including
    the decision log and drop attribution.
    """
    from . import run_online

    return run_online(
        instance,
        "greedy",
        policy=policy,
        buffer_capacity=buffer_capacity,
        admission=admission,
        faults=faults,
        backend=backend,
    )
