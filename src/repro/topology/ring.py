"""Ring-structured networks (paper, Section 1: "most of our results extend
readily to ring-structured networks").

An ``n``-node ring has directed clockwise links ``(v, (v+1) mod n)`` (the
counter-clockwise direction is independent, exactly like the two directions
of the line, so we model clockwise only).  A bufferless trajectory that
departs ``source`` at time ``t`` crosses link ``(source + i) mod n`` at
time ``t + i``.

Geometrically the scan lines of the line become *helices*: the 45-degree
lines wrap around the ring, and the helix through ``(v, t)`` is identified
by ``(v - t) mod n``.  On one helix exactly one link slot exists per time
step, so two trajectories on the same helix conflict iff their
``[depart, arrive)`` time intervals overlap — per-helix scheduling is
interval scheduling on the *time* axis, which is what :func:`ring_bfl`
exploits.

This module is the home of everything ring-shaped: the data model, the
helix greedy, the buffered trajectory shape and the :class:`Ring`
topology object that plugs it all into the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Sequence

from .base import Topology, register_topology

__all__ = [
    "RingMessage",
    "RingInstance",
    "RingTrajectory",
    "BufferedRingTrajectory",
    "RingSchedule",
    "ring_schedule_problems",
    "validate_ring_schedule",
    "ring_bfl",
    "Ring",
]


@dataclass(frozen=True, slots=True)
class RingMessage:
    """A clockwise time-constrained packet on a ring."""

    id: int
    source: int
    dest: int
    release: int
    deadline: int
    n: int  # ring size (needed for modular spans)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("a ring needs at least 3 nodes")
        if not (0 <= self.source < self.n and 0 <= self.dest < self.n):
            raise ValueError(f"message {self.id}: endpoints outside the ring")
        if self.source == self.dest:
            raise ValueError(f"message {self.id}: source == dest")
        if self.release < 0 or self.deadline < self.release:
            raise ValueError(f"message {self.id}: bad time window")

    @property
    def span(self) -> int:
        """Clockwise hop count, in ``1 .. n-1``."""
        return (self.dest - self.source) % self.n

    @property
    def slack(self) -> int:
        return self.deadline - self.release - self.span

    @property
    def feasible(self) -> bool:
        return self.slack >= 0

    @property
    def latest_departure(self) -> int:
        return self.deadline - self.span

    def helix(self, depart: int) -> int:
        """The helix index of a bufferless departure at ``depart``."""
        return (self.source - depart) % self.n


@dataclass(frozen=True)
class RingInstance:
    """A set of clockwise messages on one ring.

    ``buffer_capacity`` mirrors :class:`repro.core.instance.Instance`:
    ``None`` (the default) is the unbounded setting.
    """

    n: int
    messages: tuple[RingMessage, ...] = field(default_factory=tuple)
    buffer_capacity: int | None = None

    #: Registry key consumed by :func:`repro.topology.topology_of`.
    topology = "ring"

    def __post_init__(self) -> None:
        from ..buffers import check_capacity

        check_capacity(self.buffer_capacity)
        seen: set[int] = set()
        for m in self.messages:
            if m.n != self.n:
                raise ValueError(f"message {m.id} built for a {m.n}-node ring")
            if m.id in seen:
                raise ValueError(f"duplicate message id {m.id}")
            seen.add(m.id)

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[RingMessage]:
        return iter(self.messages)

    def __getitem__(self, message_id: int) -> RingMessage:
        for m in self.messages:
            if m.id == message_id:
                return m
        raise KeyError(message_id)

    @property
    def horizon(self) -> int:
        """One past the largest deadline — all activity happens before it."""
        return max((m.deadline for m in self.messages), default=0) + 1


@dataclass(frozen=True, slots=True)
class RingTrajectory:
    """A bufferless clockwise trajectory: message + departure time."""

    message_id: int
    source: int
    depart: int
    span: int
    n: int

    @property
    def arrive(self) -> int:
        return self.depart + self.span

    @property
    def helix(self) -> int:
        return (self.source - self.depart) % self.n

    def edges(self) -> Iterator[tuple[int, int]]:
        """(link, time) slots occupied; link ``v`` is ``(v, (v+1) mod n)``."""
        for i in range(self.span):
            yield ((self.source + i) % self.n, self.depart + i)


@dataclass(frozen=True)
class BufferedRingTrajectory(RingTrajectory):
    """A ring trajectory with explicit (possibly non-consecutive) hop times."""

    hop_times: tuple[int, ...] = ()

    @property
    def arrive(self) -> int:  # type: ignore[override]
        return self.hop_times[-1] + 1

    def edges(self):  # type: ignore[override]
        for i, t in enumerate(self.hop_times):
            yield ((self.source + i) % self.n, t)


@dataclass(frozen=True)
class RingSchedule:
    """A conflict-free set of ring trajectories."""

    trajectories: tuple[RingTrajectory, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        owner: dict[tuple[int, int], int] = {}
        ids: set[int] = set()
        for traj in self.trajectories:
            if traj.message_id in ids:
                raise ValueError(f"message {traj.message_id} scheduled twice")
            ids.add(traj.message_id)
            for slot in traj.edges():
                if slot in owner:
                    raise ValueError(
                        f"messages {owner[slot]} and {traj.message_id} share "
                        f"link {slot[0]} at time {slot[1]}"
                    )
                owner[slot] = traj.message_id

    @property
    def throughput(self) -> int:
        return len(self.trajectories)

    @property
    def delivered_ids(self) -> frozenset[int]:
        return frozenset(t.message_id for t in self.trajectories)


def ring_schedule_problems(
    instance: RingInstance,
    schedule: RingSchedule,
    *,
    require_bufferless: bool = False,
) -> list[str]:
    """Every constraint violation of a ring schedule (empty == valid)."""
    problems: list[str] = []
    for traj in schedule.trajectories:
        try:
            m = instance[traj.message_id]
        except KeyError:
            problems.append(f"message {traj.message_id}: not in instance")
            continue
        if traj.source != m.source or traj.span != m.span or traj.n != instance.n:
            problems.append(f"trajectory of {m.id} does not match its message")
            continue
        if traj.depart < m.release:
            problems.append(f"message {m.id} departs before release")
        if traj.arrive > m.deadline:
            problems.append(f"message {m.id} arrives after deadline")
        if require_bufferless and isinstance(traj, BufferedRingTrajectory):
            if traj.arrive - traj.depart != traj.span:
                problems.append(
                    f"message {m.id} buffers en route in a bufferless schedule"
                )
    return problems


def validate_ring_schedule(instance: RingInstance, schedule: RingSchedule) -> None:
    """Raise ``ValueError`` on any constraint violation."""
    problems = ring_schedule_problems(instance, schedule)
    if problems:
        raise ValueError("; ".join(problems))


def ring_bfl(instance: RingInstance) -> RingSchedule:
    """Bufferless scheduling on rings: the BFL sweep generalised to helices.

    On a ring, a message may have several candidate departures on the
    *same* helix (whenever its slack reaches the ring size), so the
    line-by-line sweep generalises to the classic earliest-completion
    greedy over all (message, departure) candidates — the Job Interval
    Selection Problem greedy, which keeps BFL's factor-2 guarantee: every
    optimal trajectory not chosen shares a slot with a chosen trajectory
    that finishes no later, and a chosen trajectory can block at most two
    optimal ones this way (one per endpoint side on its helix).

    Candidates are enumerated per message over its departure window and
    processed in order of arrival time (ties: nearest destination — i.e.
    smallest span — then id), scheduling whenever every (link, step) slot
    on the trajectory is still free.  Throughput is at least half of the
    bufferless optimum.  On instances that never wrap (all traffic inside
    an arc), the greedy coincides with Algorithm BFL applied to the
    corresponding line instance.
    """
    candidates: list[tuple[int, int, int, RingTrajectory]] = []
    for m in instance:
        if not m.feasible:
            continue
        for depart in range(m.release, m.latest_departure + 1):
            traj = RingTrajectory(
                message_id=m.id,
                source=m.source,
                depart=depart,
                span=m.span,
                n=instance.n,
            )
            candidates.append((traj.arrive, m.span, m.id, traj))
    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3].depart))

    occupied: set[tuple[int, int]] = set()
    scheduled: dict[int, RingTrajectory] = {}
    for _, _, mid, traj in candidates:
        if mid in scheduled:
            continue
        slots = list(traj.edges())
        if any(slot in occupied for slot in slots):
            continue
        occupied.update(slots)
        scheduled[mid] = traj
    return RingSchedule(tuple(scheduled.values()))


class Ring(Topology):
    """The clockwise ring as a registry topology.

    The decomposition is the *cut reduction*: removing one link
    ``(cut, cut+1 mod n)`` unrolls the ring into a line, and every message
    whose path avoids the cut maps onto a plain line instance (wrapping
    messages stay behind as the genuinely ring-bound remainder).
    """

    name = "ring"
    uniform_route = True

    # ----------------------------------------------------------- #

    def nodes(self, instance: Any) -> Sequence[int]:
        return range(instance.n)

    def links(self, instance: Any) -> Sequence[int]:
        return range(instance.n)

    def out_nodes(self, instance: Any) -> Sequence[int]:
        return range(instance.n)

    def next_hop(
        self, instance: Any, node: int, message: Any
    ) -> tuple[int, int] | None:
        return (node, (node + 1) % instance.n)

    def control_next(self, instance: Any, node: int) -> int:
        return (node + 1) % instance.n

    # ----------------------------------------------------------- #

    def validate_instance(self, instance: Any) -> None:
        if not isinstance(instance, RingInstance):
            raise TypeError(
                f"the ring topology schedules RingInstance objects, got "
                f"{type(instance).__name__}"
            )

    def schedule_problems(self, instance: Any, schedule: Any, **opts: Any) -> list[str]:
        require_bufferless = opts.pop("require_bufferless", False)
        buffer_capacity = opts.pop("buffer_capacity", None)
        if buffer_capacity is not None:
            raise TypeError("buffer_capacity validation is not supported on rings")
        if opts:
            raise TypeError(f"unknown ring validation option(s): {sorted(opts)}")
        return ring_schedule_problems(
            instance, schedule, require_bufferless=require_bufferless
        )

    # ----------------------------------------------------------- #

    def alpha_of(self, instance: Any, node: int, time: int) -> int:
        """The helix index through lattice point ``(node, time)``."""
        return (node - time) % instance.n

    def decompose(self, instance: Any, **opts: Any) -> tuple[Any, Any]:
        """Cut-reduce: ``(line instance, wrapping remainder)``.

        Cutting link ``(cut, cut+1 mod n)`` relabels node ``v`` as the
        line position ``(v - cut - 1) mod n``.  Messages whose clockwise
        path avoids the cut become ordinary left-to-right line messages
        on an ``n``-node line (ids preserved); messages crossing the cut
        are returned as a smaller :class:`RingInstance`.  The default cut
        is link ``n-1``, under which non-wrapping messages keep their
        coordinates verbatim.
        """
        cut = opts.pop("cut", instance.n - 1)
        if opts:
            raise TypeError(f"unknown ring decomposition option(s): {sorted(opts)}")
        n = instance.n
        if not 0 <= cut < n:
            raise ValueError(f"cut must name a link in 0..{n - 1}, got {cut}")
        from ..core.instance import Instance
        from ..core.message import Message

        line_msgs: list[Message] = []
        wrapped: list[RingMessage] = []
        for m in instance:
            pos = (m.source - cut - 1) % n
            if pos + m.span <= n - 1:
                line_msgs.append(
                    Message(m.id, pos, pos + m.span, m.release, m.deadline)
                )
            else:
                wrapped.append(m)
        return (
            Instance(n, tuple(line_msgs)),
            RingInstance(n, tuple(wrapped)),
        )

    # ----------------------------------------------------------- #

    def sim_trajectory(self, instance: Any, packet: Any) -> RingTrajectory:
        m = packet.message
        times = tuple(packet.crossings)
        if times[-1] - times[0] == m.span - 1:
            return RingTrajectory(
                message_id=m.id, source=m.source, depart=times[0], span=m.span, n=m.n
            )
        return BufferedRingTrajectory(
            message_id=m.id,
            source=m.source,
            depart=times[0],
            span=m.span,
            n=m.n,
            hop_times=times,
        )

    def sim_schedule(self, instance: Any, trajectories: Iterable[Any]) -> RingSchedule:
        return RingSchedule(tuple(trajectories))

    # ----------------------------------------------------------- #

    def schedule_to_dict(self, schedule: Any) -> dict[str, Any]:
        trajs = []
        for t in schedule.trajectories:
            row: dict[str, Any] = {
                "message_id": t.message_id,
                "source": t.source,
                "depart": t.depart,
                "arrive": t.arrive,
                "span": t.span,
            }
            if isinstance(t, BufferedRingTrajectory):
                row["hop_times"] = list(t.hop_times)
            trajs.append(row)
        n = schedule.trajectories[0].n if schedule.trajectories else None
        return {
            "format": "repro-ring-schedule",
            "version": 1,
            "n": n,
            "throughput": schedule.throughput,
            "trajectories": trajs,
        }

    def schedule_from_dict(self, data: dict[str, Any]) -> RingSchedule:
        from ..io import _check_header, wire_int

        _check_header(data, "repro-ring-schedule")
        n = data.get("n")  # None on an empty schedule
        trajectories: list[RingTrajectory] = []
        try:
            for i, row in enumerate(data["trajectories"]):
                mid = wire_int(row["message_id"], "message_id", f"trajectory at row {i}")
                owner = f"trajectory for message {mid}"
                fields = {
                    "message_id": mid,
                    "source": wire_int(row["source"], "source", owner),
                    "depart": wire_int(row["depart"], "depart", owner),
                    "span": wire_int(row["span"], "span", owner),
                    "n": wire_int(n, "n", "ring schedule"),
                }
                if row.get("hop_times") is not None:
                    trajectories.append(
                        BufferedRingTrajectory(
                            **fields,
                            hop_times=tuple(
                                wire_int(t, "hop_times", owner) for t in row["hop_times"]
                            ),
                        )
                    )
                else:
                    trajectories.append(RingTrajectory(**fields))
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in ring schedule data") from exc
        return RingSchedule(tuple(trajectories))  # re-validates slot-disjointness

    def instance_to_dict(self, instance: Any) -> dict[str, Any]:
        out = {
            "format": "repro-instance",
            "version": 1,
            "topology": "ring",
            "n": instance.n,
            "messages": [
                {
                    "id": m.id,
                    "source": m.source,
                    "dest": m.dest,
                    "release": m.release,
                    "deadline": m.deadline,
                }
                for m in instance
            ],
        }
        cap = getattr(instance, "buffer_capacity", None)
        if cap is not None:
            out["buffer_capacity"] = cap
        return out

    def instance_from_dict(self, data: dict[str, Any]) -> RingInstance:
        from ..io import _check_header, wire_int, wire_message_row

        _check_header(data, "repro-instance")
        try:
            n = wire_int(data["n"], "n", "ring instance")
            messages = tuple(
                RingMessage(*wire_message_row(row, f"message at row {i}"), n=n)
                for i, row in enumerate(data["messages"])
            )
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in ring instance data") from exc
        cap = data.get("buffer_capacity")
        return RingInstance(
            n,
            messages,
            None if cap is None else wire_int(cap, "buffer_capacity", "ring instance"),
        )


register_topology(Ring())
