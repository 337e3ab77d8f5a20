"""The :class:`Mesh` topology: 2-D grids under dimension-order (XY) routing.

Home of the mesh data model and XY scheduler.  Nodes are ``(row, col)``
on an ``R x C`` grid with full-duplex horizontal and vertical links.  Under
dimension-order routing a message travels its source *row* first (to its
destination column), turns once, then travels the destination *column*.
Row links and column links are disjoint resources, and within one row the
two directions are independent (full-duplex), so the whole problem
decomposes into one-directional *line* sub-problems — which is exactly
why the paper's linear-network results power mesh scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from ..core.bfl_fast import bfl_fast
from ..core.instance import Instance
from ..core.message import Message
from ..core.schedule import Schedule
from ..core.trajectory import Trajectory
from .base import Topology, register_topology

__all__ = [
    "MeshMessage",
    "MeshInstance",
    "MeshTrajectory",
    "MeshSchedule",
    "make_mesh_instance",
    "xy_schedule",
    "mesh_schedule_problems",
    "validate_mesh_schedule",
    "Mesh",
]


@dataclass(frozen=True, slots=True)
class MeshMessage:
    """A time-constrained packet on the mesh."""

    id: int
    source: tuple[int, int]  # (row, col)
    dest: tuple[int, int]
    release: int
    deadline: int

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise ValueError(f"message {self.id}: source == dest")
        if min(*self.source, *self.dest) < 0:
            raise ValueError(f"message {self.id}: negative coordinate")
        if self.release < 0 or self.deadline < self.release:
            raise ValueError(f"message {self.id}: bad time window")

    @property
    def row_span(self) -> int:
        """Horizontal hops (phase 1)."""
        return abs(self.dest[1] - self.source[1])

    @property
    def col_span(self) -> int:
        """Vertical hops (phase 2)."""
        return abs(self.dest[0] - self.source[0])

    @property
    def span(self) -> int:
        """Total XY path length."""
        return self.row_span + self.col_span

    @property
    def slack(self) -> int:
        return self.deadline - self.release - self.span

    @property
    def feasible(self) -> bool:
        return self.slack >= 0

    @property
    def turning_node(self) -> tuple[int, int]:
        """Where the single dimension change (conversion) happens."""
        return (self.source[0], self.dest[1])


@dataclass(frozen=True)
class MeshInstance:
    """A set of messages on one ``rows x cols`` mesh.

    ``buffer_capacity`` mirrors :class:`repro.core.instance.Instance`:
    ``None`` (the default) is the unbounded setting.
    """

    #: Registry key picked up by :func:`repro.topology.topology_of`.
    topology = "mesh"

    rows: int
    cols: int
    messages: tuple[MeshMessage, ...] = field(default_factory=tuple)
    buffer_capacity: int | None = None

    def __post_init__(self) -> None:
        from ..buffers import check_capacity

        check_capacity(self.buffer_capacity)
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ValueError("mesh needs at least two nodes")
        seen: set[int] = set()
        for m in self.messages:
            if m.id in seen:
                raise ValueError(f"duplicate message id {m.id}")
            seen.add(m.id)
            for r, c in (m.source, m.dest):
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise ValueError(f"message {m.id}: node ({r}, {c}) off the mesh")

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[MeshMessage]:
        return iter(self.messages)

    def __getitem__(self, message_id: int) -> MeshMessage:
        for m in self.messages:
            if m.id == message_id:
                return m
        raise KeyError(message_id)


def make_mesh_instance(
    rows: int,
    cols: int,
    entries: list[tuple[tuple[int, int], tuple[int, int], int, int]],
) -> MeshInstance:
    """Build from ``(source, dest, release, deadline)`` rows; positional ids."""
    msgs = tuple(
        MeshMessage(i, src, dst, rel, dl) for i, (src, dst, rel, dl) in enumerate(entries)
    )
    return MeshInstance(rows, cols, msgs)


@dataclass(frozen=True)
class MeshTrajectory:
    """A delivered message's two-phase path.

    Either leg may be ``None`` when the message needs no movement in that
    dimension.  Legs are stored as *line* trajectories in their row/column
    coordinates (already mirrored for leftward/upward travel), plus enough
    bookkeeping to recover absolute times.
    """

    message_id: int
    row_leg: Trajectory | None  # horizontal phase, in (possibly mirrored) col coords
    col_leg: Trajectory | None  # vertical phase, in (possibly mirrored) row coords
    turn_wait: int  # steps parked at the turning node (conversion + queueing)

    def __post_init__(self) -> None:
        if self.row_leg is None and self.col_leg is None:
            raise ValueError("a trajectory needs at least one leg")
        if self.turn_wait < 0:
            raise ValueError("negative turn wait")

    @property
    def depart(self) -> int:
        leg = self.row_leg if self.row_leg is not None else self.col_leg
        assert leg is not None
        return leg.depart

    @property
    def arrive(self) -> int:
        leg = self.col_leg if self.col_leg is not None else self.row_leg
        assert leg is not None
        return leg.arrive


@dataclass(frozen=True)
class MeshSchedule:
    """Delivered trajectories of one XY scheduling run."""

    trajectories: tuple[MeshTrajectory, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ids = [t.message_id for t in self.trajectories]
        if len(ids) != len(set(ids)):
            raise ValueError("a message is scheduled twice")

    @property
    def throughput(self) -> int:
        return len(self.trajectories)

    @property
    def delivered_ids(self) -> frozenset[int]:
        return frozenset(t.message_id for t in self.trajectories)

    def __getitem__(self, message_id: int) -> MeshTrajectory:
        for t in self.trajectories:
            if t.message_id == message_id:
                return t
        raise KeyError(message_id)

    @property
    def total_turn_wait(self) -> int:
        """Aggregate steps spent parked at turning nodes."""
        return sum(t.turn_wait for t in self.trajectories)


# -------------------------------------------------------------------- #
# the XY dimension-order scheduler
# -------------------------------------------------------------------- #

LineScheduler = Callable[[Instance], Schedule]


def _phase1_groups(
    instance: MeshInstance, feasible: list[MeshMessage], conversion_delay: int
) -> dict[tuple[int, bool], Instance]:
    """Phase-1 ``(row, rightward) -> line Instance`` in mirrored coordinates."""
    row_groups: dict[tuple[int, bool], list[MeshMessage]] = {}
    for m in feasible:
        if m.row_span:
            rightward = m.dest[1] > m.source[1]
            row_groups.setdefault((m.source[0], rightward), []).append(m)
    out: dict[tuple[int, bool], Instance] = {}
    for (row, rightward), msgs in row_groups.items():
        line_msgs = []
        for m in msgs:
            c1, c2 = m.source[1], m.dest[1]
            if not rightward:
                c1, c2 = instance.cols - 1 - c1, instance.cols - 1 - c2
            tail = m.col_span + (conversion_delay if m.col_span else 0)
            line_msgs.append(Message(m.id, c1, c2, m.release, m.deadline - tail))
        out[(row, rightward)] = Instance(instance.cols, tuple(line_msgs))
    return out


def _feasible(instance: MeshInstance, conversion_delay: int) -> list[MeshMessage]:
    return [
        m for m in instance if m.deadline - m.release >= m.span + (
            conversion_delay if m.row_span and m.col_span else 0
        )
    ]


def xy_schedule(
    instance: MeshInstance,
    *,
    line_scheduler: LineScheduler = bfl_fast,
    conversion_delay: int = 0,
) -> MeshSchedule:
    """Schedule a mesh instance with dimension-order routing.

    Phase 1 (rows): every message with horizontal distance travels
    bufferlessly along its source row to its destination column.  Each
    (row, direction) pair is an independent linear-network instance —
    solved with any line scheduler (BFL by default) — where the message's
    phase-1 deadline is its real deadline minus the column distance still
    ahead (and minus the conversion delay).

    Phase 2 (columns): phase-1 survivors re-release at their turning nodes
    at ``row arrival + conversion_delay`` and run down/up their destination
    columns, again one line instance per (column, direction).

    Messages that lose either phase are dropped (a phase-1 winner that
    loses phase 2 has consumed row capacity for nothing — the price of the
    greedy phase split; E14 measures how much that costs against upper
    bounds).  For the same reason throughput is not monotone in
    ``conversion_delay``: a later turn can clear a column edge that a
    free turn would have taken from another message.

    Parameters
    ----------
    line_scheduler:
        Any left-to-right line scheduler (``bfl_fast``, the default, which
        matches the reference ``bfl`` schedule for schedule; a baseline; or
        an exact solver's ``.schedule``-returning wrapper); it is invoked
        once per non-empty (row|column, direction).
    conversion_delay:
        Extra steps a message must spend at its turning node (the cost of
        the optical-electric conversion; 0 models a free turn).
    """
    if conversion_delay < 0:
        raise ValueError("conversion_delay must be non-negative")

    feasible = _feasible(instance, conversion_delay)

    # ---------------- phase 1: rows ----------------------------------- #
    row_legs: dict[int, Trajectory] = {}
    for line_instance in _phase1_groups(instance, feasible, conversion_delay).values():
        schedule = line_scheduler(line_instance)
        for traj in schedule:
            row_legs[traj.message_id] = traj

    # ---------------- phase 2: columns -------------------------------- #
    col_groups: dict[tuple[int, bool], list[tuple[MeshMessage, int]]] = {}
    single_phase: dict[int, MeshTrajectory] = {}
    for m in feasible:
        if m.row_span and m.id not in row_legs:
            continue  # lost phase 1
        if m.col_span == 0:
            if m.id in row_legs:
                single_phase[m.id] = MeshTrajectory(m.id, row_legs[m.id], None, 0)
            continue
        ready = (
            row_legs[m.id].arrive + conversion_delay if m.row_span else m.release
        )
        downward = m.dest[0] > m.source[0]
        col_groups.setdefault((m.dest[1], downward), []).append((m, ready))

    trajectories: list[MeshTrajectory] = list(single_phase.values())
    for (col, downward), entries in col_groups.items():
        line_msgs = []
        ready_by_id: dict[int, int] = {}
        for m, ready in entries:
            r1, r2 = m.source[0], m.dest[0]
            if not downward:
                r1, r2 = instance.rows - 1 - r1, instance.rows - 1 - r2
            if m.deadline - ready < abs(r2 - r1):
                continue  # arrived too late to ever finish
            line_msgs.append(Message(m.id, r1, r2, ready, m.deadline))
            ready_by_id[m.id] = ready
        schedule = line_scheduler(Instance(instance.rows, tuple(line_msgs)))
        for traj in schedule:
            m = instance[traj.message_id]
            row_leg = row_legs.get(m.id)
            # wait at the turn = phase-2 departure minus earliest readiness
            wait = traj.depart - ready_by_id[m.id] + (conversion_delay if row_leg else 0)
            trajectories.append(MeshTrajectory(m.id, row_leg, traj, wait))
    return MeshSchedule(tuple(trajectories))


# -------------------------------------------------------------------- #
# schedule validation
# -------------------------------------------------------------------- #

# a directed link-step slot: ("H"|"V", row, col, direction, time)
_Slot = tuple[str, int, int, int, int]


def _row_slots(
    instance: MeshInstance, traj: MeshTrajectory, source: tuple[int, int], dest: tuple[int, int]
) -> list[_Slot]:
    leg = traj.row_leg
    assert leg is not None
    rightward = dest[1] > source[1]
    row = source[0]
    slots = []
    for j, t in enumerate(leg.crossings):
        c_line = leg.source + j  # column in (possibly mirrored) line coords
        c = c_line if rightward else instance.cols - 1 - c_line
        slots.append(("H", row, c, +1 if rightward else -1, t))
    return slots


def _col_slots(
    instance: MeshInstance, traj: MeshTrajectory, source: tuple[int, int], dest: tuple[int, int]
) -> list[_Slot]:
    leg = traj.col_leg
    assert leg is not None
    downward = dest[0] > source[0]
    col = dest[1]
    slots = []
    for j, t in enumerate(leg.crossings):
        r_line = leg.source + j
        r = r_line if downward else instance.rows - 1 - r_line
        slots.append(("V", r, col, +1 if downward else -1, t))
    return slots


def mesh_schedule_problems(
    instance: MeshInstance,
    schedule: MeshSchedule,
    *,
    conversion_delay: int = 0,
) -> list[str]:
    """All constraint violations (empty list == valid).

    Reconstructs every trajectory's absolute (link, step) usage from its
    two legs — undoing the per-direction mirroring — and checks geometry
    (each leg runs source → turning node → destination), timing (release ≤
    row departure, row arrival + conversion ≤ column departure, column
    arrival ≤ deadline; legs are internally bufferless), and capacity
    (every directed link carries at most one message per step, across the
    *whole* schedule, not just within the per-line groups).
    """
    problems: list[str] = []
    occupancy: dict[_Slot, int] = {}

    for traj in schedule.trajectories:
        try:
            m = instance[traj.message_id]
        except KeyError:
            problems.append(f"message {traj.message_id}: not in instance")
            continue

        # ---- geometry
        if (traj.row_leg is None) != (m.row_span == 0):
            problems.append(f"message {m.id}: row leg presence mismatch")
            continue
        if (traj.col_leg is None) != (m.col_span == 0):
            problems.append(f"message {m.id}: column leg presence mismatch")
            continue
        if traj.row_leg is not None and traj.row_leg.span != m.row_span:
            problems.append(f"message {m.id}: row leg has wrong span")
        if traj.col_leg is not None and traj.col_leg.span != m.col_span:
            problems.append(f"message {m.id}: column leg has wrong span")
        for leg, name in ((traj.row_leg, "row"), (traj.col_leg, "col")):
            if leg is not None and not leg.bufferless:
                problems.append(f"message {m.id}: {name} leg buffers mid-phase")

        # ---- timing
        if traj.depart < m.release:
            problems.append(f"message {m.id}: departs at {traj.depart} before release")
        if traj.arrive > m.deadline:
            problems.append(f"message {m.id}: arrives at {traj.arrive} after deadline")
        if traj.row_leg is not None and traj.col_leg is not None:
            earliest_turn = traj.row_leg.arrive + conversion_delay
            if traj.col_leg.depart < earliest_turn:
                problems.append(
                    f"message {m.id}: turns at {traj.col_leg.depart} before "
                    f"conversion completes at {earliest_turn}"
                )

        # ---- capacity
        slots: list[_Slot] = []
        if traj.row_leg is not None:
            slots += _row_slots(instance, traj, m.source, m.dest)
        if traj.col_leg is not None:
            slots += _col_slots(instance, traj, m.source, m.dest)
        for slot in slots:
            if slot in occupancy:
                kind, r, c, d, t = slot
                problems.append(
                    f"messages {occupancy[slot]} and {m.id} share {kind} link "
                    f"at ({r}, {c}) direction {d:+d} during [{t}, {t + 1}]"
                )
            occupancy[slot] = m.id
    return problems


def validate_mesh_schedule(
    instance: MeshInstance,
    schedule: MeshSchedule,
    *,
    conversion_delay: int = 0,
) -> None:
    problems = mesh_schedule_problems(
        instance, schedule, conversion_delay=conversion_delay
    )
    if problems:
        raise ValueError("; ".join(problems))


# -------------------------------------------------------------------- #
# the topology object
# -------------------------------------------------------------------- #


class Mesh(Topology):
    """``R x C`` grid under dimension-order routing.

    Links are identified by their origin: ``("H", r, c, step)`` is the
    horizontal link ``(r, c) -> (r, c + step)`` and ``("V", r, c, step)``
    the vertical link ``(r, c) -> (r + step, c)`` — matching the slot
    encoding of :func:`mesh_schedule_problems`.
    """

    name = "mesh"
    uniform_route = False

    # ----------------------------------------------------------- #

    def nodes(self, instance: Any) -> Sequence[tuple[int, int]]:
        return [
            (r, c) for r in range(instance.rows) for c in range(instance.cols)
        ]

    def links(self, instance: Any) -> Sequence[Hashable]:
        out: list[Hashable] = []
        for r in range(instance.rows):
            for c in range(instance.cols):
                if c + 1 < instance.cols:
                    out.append(("H", r, c, +1))
                if c - 1 >= 0:
                    out.append(("H", r, c, -1))
                if r + 1 < instance.rows:
                    out.append(("V", r, c, +1))
                if r - 1 >= 0:
                    out.append(("V", r, c, -1))
        return out

    def out_nodes(self, instance: Any) -> Sequence[tuple[int, int]]:
        return self.nodes(instance)

    def next_hop(
        self, instance: Any, node: tuple[int, int], message: Any
    ) -> tuple[Hashable, tuple[int, int]] | None:
        if message is None:
            return None
        r, c = node
        dr, dc = message.dest
        if c != dc:  # phase 1: horizontal first
            step = 1 if dc > c else -1
            return (("H", r, c, step), (r, c + step))
        if r != dr:  # phase 2: vertical
            step = 1 if dr > r else -1
            return (("V", r, c, step), (r + step, c))
        return None

    # ----------------------------------------------------------- #

    def validate_instance(self, instance: Any) -> None:
        if not isinstance(instance, MeshInstance):
            raise TypeError(
                f"mesh topology needs a MeshInstance, got {type(instance).__name__}"
            )

    def schedule_problems(self, instance: Any, schedule: Any, **opts: Any) -> list[str]:
        # XY legs are checked bufferless unconditionally, so the flag is moot.
        opts.pop("require_bufferless", False)
        if opts.pop("buffer_capacity", None) is not None:
            raise TypeError("buffer_capacity validation is not supported on meshes")
        conversion_delay = opts.pop("conversion_delay", 0)
        if opts:
            raise TypeError(f"unknown mesh validation option(s): {sorted(opts)}")
        return mesh_schedule_problems(
            instance, schedule, conversion_delay=conversion_delay
        )

    # ----------------------------------------------------------- #

    def decompose(self, instance: Any, **opts: Any) -> tuple[Any, ...]:
        """The statically-known line sub-instances of the XY split.

        One left-to-right line :class:`~repro.core.instance.Instance` per
        non-empty phase-1 ``(row, direction)`` group (in mirrored
        coordinates, deadlines shortened by the column tail), plus one per
        phase-2 ``(column, direction)`` group of messages that *start*
        vertical (``row_span == 0``) — the groups whose release times do
        not depend on a phase-1 schedule.
        """
        conversion_delay = opts.pop("conversion_delay", 0)
        if opts:
            raise TypeError(f"unknown mesh decomposition option(s): {sorted(opts)}")
        feasible = _feasible(instance, conversion_delay)
        parts = list(_phase1_groups(instance, feasible, conversion_delay).values())
        col_groups: dict[tuple[int, bool], list[Message]] = {}
        for m in feasible:
            if m.row_span or m.col_span == 0:
                continue
            downward = m.dest[0] > m.source[0]
            r1, r2 = m.source[0], m.dest[0]
            if not downward:
                r1, r2 = instance.rows - 1 - r1, instance.rows - 1 - r2
            col_groups.setdefault((m.dest[1], downward), []).append(
                Message(m.id, r1, r2, m.release, m.deadline)
            )
        parts.extend(
            Instance(instance.rows, tuple(msgs)) for msgs in col_groups.values()
        )
        return tuple(parts)

    # ----------------------------------------------------------- #

    def sim_trajectory(self, instance: Any, packet: Any) -> MeshTrajectory:
        m = packet.message
        times = tuple(packet.crossings)
        row_leg = col_leg = None
        if m.row_span:
            rightward = m.dest[1] > m.source[1]
            c1 = m.source[1] if rightward else instance.cols - 1 - m.source[1]
            row_leg = Trajectory(m.id, c1, times[: m.row_span])
        if m.col_span:
            downward = m.dest[0] > m.source[0]
            r1 = m.source[0] if downward else instance.rows - 1 - m.source[0]
            col_leg = Trajectory(m.id, r1, times[m.row_span :])
        turn_wait = (
            col_leg.depart - row_leg.arrive
            if row_leg is not None and col_leg is not None
            else 0
        )
        return MeshTrajectory(m.id, row_leg, col_leg, turn_wait)

    def sim_schedule(self, instance: Any, trajectories: Iterable[Any]) -> MeshSchedule:
        # No validation: simulated packets may buffer mid-leg, which the
        # (bufferless-XY) validator rejects by design.
        return MeshSchedule(tuple(trajectories))

    # ----------------------------------------------------------- #

    def schedule_to_dict(self, schedule: Any) -> dict[str, Any]:
        def leg(t: Trajectory | None) -> dict[str, Any] | None:
            if t is None:
                return None
            return {"source": t.source, "crossings": list(t.crossings)}

        return {
            "format": "repro-mesh-schedule",
            "version": 1,
            "throughput": schedule.throughput,
            "trajectories": [
                {
                    "message_id": t.message_id,
                    "turn_wait": t.turn_wait,
                    "row_leg": leg(t.row_leg),
                    "col_leg": leg(t.col_leg),
                }
                for t in schedule.trajectories
            ],
        }

    def schedule_from_dict(self, data: dict[str, Any]) -> MeshSchedule:
        from ..io import _check_header, check_row_object, wire_int

        _check_header(data, "repro-mesh-schedule")

        def leg(mid: int, doc: dict[str, Any] | None) -> Trajectory | None:
            if doc is None:
                return None
            owner = f"trajectory for message {mid}"
            return Trajectory(
                message_id=mid,
                source=wire_int(doc["source"], "source", owner),
                crossings=tuple(wire_int(t, "crossings", owner) for t in doc["crossings"]),
            )

        def trajectory(index: int, row: Any) -> MeshTrajectory:
            where = f"trajectory at row {index}"
            mid = wire_int(check_row_object(row, where)["message_id"], "message_id", where)
            return MeshTrajectory(
                message_id=mid,
                row_leg=leg(mid, row.get("row_leg")),
                col_leg=leg(mid, row.get("col_leg")),
                turn_wait=wire_int(
                    row["turn_wait"], "turn_wait", f"trajectory for message {mid}"
                ),
            )

        try:
            trajectories = tuple(
                trajectory(i, row) for i, row in enumerate(data["trajectories"])
            )
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in mesh schedule data") from exc
        return MeshSchedule(trajectories)

    def instance_to_dict(self, instance: Any) -> dict[str, Any]:
        out = {
            "format": "repro-instance",
            "version": 1,
            "topology": "mesh",
            "rows": instance.rows,
            "cols": instance.cols,
            "messages": [
                {
                    "id": m.id,
                    "source": list(m.source),
                    "dest": list(m.dest),
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

    def instance_from_dict(self, data: dict[str, Any]) -> MeshInstance:
        from ..io import _check_header, wire_int

        _check_header(data, "repro-instance")
        try:
            messages = tuple(
                _mesh_message_from_row(i, row) for i, row in enumerate(data["messages"])
            )
            cap = data.get("buffer_capacity")
            return MeshInstance(
                wire_int(data["rows"], "rows", "mesh instance"),
                wire_int(data["cols"], "cols", "mesh instance"),
                messages,
                None if cap is None else wire_int(cap, "buffer_capacity", "mesh instance"),
            )
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in mesh instance data") from exc


def _mesh_message_from_row(index: int, row: Any) -> MeshMessage:
    from ..io import check_row_object, wire_int

    where = f"message at row {index}"
    mid = wire_int(check_row_object(row, where)["id"], "id", where)
    owner = f"message {mid}"
    return MeshMessage(
        id=mid,
        source=(
            wire_int(row["source"][0], "source", owner),
            wire_int(row["source"][1], "source", owner),
        ),
        dest=(
            wire_int(row["dest"][0], "dest", owner),
            wire_int(row["dest"][1], "dest", owner),
        ),
        release=wire_int(row["release"], "release", owner),
        deadline=wire_int(row["deadline"], "deadline", owner),
    )


register_topology(Mesh())
