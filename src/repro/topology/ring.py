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
exploits: taking candidates in arrival order, it keeps one int per helix
(the end of the latest interval chosen there) as its whole slot state.
A helix is the line's scan line ``source - depart`` taken mod ``n``, so
:class:`RingSchedule` keeps a bufferless schedule as the line's
:class:`~repro.core.schedule.SegmentTable` and checks it with the line's
scan-line check; only a schedule that fails it, or holds a buffered
trajectory, runs the per-slot loop that names the conflict.

Like the line's :class:`~repro.core.instance.Instance`, a
:class:`RingInstance` holds its messages as int columns first
(:attr:`RingInstance.table`, checked in bulk by
:meth:`RingInstance.from_table`); the wire reader and ``ring_bfl`` use
only the columns, and ``RingMessage`` objects are built the first time
``messages`` is read.  Ring instance documents are version-2 columns.
A bufferless ring schedule is a version-2 document too: ``n`` plus its
segments as the columns ``message_id``, ``source``, ``depart`` and
``span``; a schedule holding a :class:`BufferedRingTrajectory` stays
version-1 rows.  ``ring_bfl`` and the reader build no
:class:`RingTrajectory`: the objects are built on first read.

This module is the home of everything ring-shaped: the data model, the
helix greedy, the buffered trajectory shape and the :class:`Ring`
topology object that plugs it all into the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

from ..core import schedule as line_schedule
from ..core.instance import BuiltFromTable, MessageTable
from ..core.schedule import SegmentTable, _check_lengths
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


def _ring_messages(n: int, table: MessageTable) -> tuple[RingMessage, ...]:
    """The rows of ``table`` as ``n``-node :class:`RingMessage` objects
    (each runs its validator)."""
    return tuple(map(RingMessage, *table, repeat(n)))


@dataclass(frozen=True)
class RingInstance:
    """A set of clockwise messages on one ring.

    ``buffer_capacity`` mirrors :class:`repro.core.instance.Instance`:
    ``None`` (the default) is the unbounded setting.  So do the two forms
    of the messages: :attr:`table` holds five int columns,
    :meth:`from_table` validates them in bulk, and ``messages`` is built
    from them on first read.
    """

    n: int
    messages: tuple[RingMessage, ...] = BuiltFromTable(  # type: ignore[assignment]
        lambda inst: _ring_messages(inst.n, inst._table)
    )
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

    @classmethod
    def from_table(
        cls, n: int, table: MessageTable, *, buffer_capacity: int | None = None
    ) -> "RingInstance":
        """A ring instance over ``table``'s int columns.

        A ring message passes the line's row checks
        (:meth:`MessageTable.valid_on_line`), so those and ``n >= 3`` are
        the bulk check; ``messages`` is built the first time it is read.
        A table that fails goes through the object-built constructor,
        which raises the same ``ValueError`` it would for those messages.
        """
        capacity_ok = buffer_capacity is None or (
            type(buffer_capacity) is int and buffer_capacity >= 0
        )
        if not (n >= 3 and capacity_ok and table.valid_on_line(n)):
            return cls(n, _ring_messages(n, table), buffer_capacity)
        inst = object.__new__(cls)
        inst.__dict__.update(n=n, buffer_capacity=buffer_capacity, _table=table)
        return inst

    @property
    def table(self) -> MessageTable:
        """The messages as int columns (derived once for object-built
        instances)."""
        table = self.__dict__.get("_table")
        if table is None:
            table = MessageTable.of(self.messages)
            object.__setattr__(self, "_table", table)
        return table

    def __getstate__(self) -> dict[str, Any]:
        # As Instance: pickle one form of the messages only.
        state = self.__dict__
        if "messages" in state and "_table" in state:
            state = {k: v for k, v in state.items() if k != "_table"}
        return state

    def __len__(self) -> int:
        messages = self.__dict__.get("messages")
        return len(messages) if messages is not None else len(self.table.id)

    def __iter__(self) -> Iterator[RingMessage]:
        return iter(self.messages)

    def __getitem__(self, message_id: int) -> RingMessage:
        """Look up a message by id; ``KeyError`` if there is none."""
        cache = self.__dict__.get("_by_id")
        if cache is None:
            cache = {m.id: m for m in self.messages}
            object.__setattr__(self, "_by_id", cache)
        return cache[message_id]

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

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(
                f"trajectory for message {self.message_id}: a ring needs at least 3 nodes"
            )
        if self.span < 1:
            raise ValueError(f"trajectory for message {self.message_id} crosses no link")

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


def _ring_trajectory(m: RingMessage, times: tuple[int, ...]) -> RingTrajectory:
    """``m`` crossing its links at ``times``: bufferless when they are
    consecutive."""
    if times[-1] - times[0] == m.span - 1:
        return RingTrajectory(m.id, m.source, times[0], m.span, m.n)
    return BufferedRingTrajectory(m.id, m.source, times[0], m.span, m.n, hop_times=times)


#: The columns of a version-2 ring schedule document (plus its ``n``).
_SEGMENT_FIELDS = ("message_id", "source", "depart", "span")


def _trajectories_from_rows(rows: Any, n: Any) -> tuple[RingTrajectory, ...]:
    """The row-by-row read of a ring schedule document: every field
    through :func:`~repro.io.wire_int`, a ``hop_times`` array making the
    row a :class:`BufferedRingTrajectory`."""
    from ..io import check_row_object, wire_int, wire_int_array

    if rows is None:
        raise ValueError("missing field 'trajectories' in ring schedule data")
    trajectories: list[RingTrajectory] = []
    try:
        for i, row in enumerate(rows):
            where = f"trajectory at row {i}"
            mid = wire_int(check_row_object(row, where)["message_id"], "message_id", where)
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
                        hop_times=wire_int_array(row["hop_times"], "hop_times", owner),
                    )
                )
            else:
                trajectories.append(RingTrajectory(**fields))
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in ring schedule data") from exc
    return tuple(trajectories)


def _claim_slots(trajectories: Iterable[RingTrajectory]) -> None:
    """The per-slot check, in order: raises ``ValueError`` naming the first
    repeated message id or the first ``(link, time)`` slot claimed twice."""
    owner: dict[tuple[int, int], int] = {}
    ids: set[int] = set()
    for traj in trajectories:
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


@dataclass(frozen=True)
class RingSchedule:
    """A conflict-free set of ring trajectories.

    ``n`` is the ring size (the first row's, ``None`` when empty) and
    ``segments`` the rows as a :class:`~repro.core.schedule.SegmentTable`
    (``hops`` is the span), ``None`` when a row is buffered or the rows
    lie on more than one ring size.  :meth:`from_segments` keeps only
    those two; ``trajectories`` is built the first time it is read.
    Every constructor runs the line's scan-line check on the helices,
    and only a schedule that fails it, or holds a buffered row, runs the
    per-slot loop, so a rejected schedule raises the same error either way.
    """

    trajectories: tuple[RingTrajectory, ...] = BuiltFromTable(  # type: ignore[assignment]
        lambda sched: tuple(map(RingTrajectory, *sched.segments, repeat(sched.n))),
        key="segments",
    )

    def __post_init__(self) -> None:
        rows = self.trajectories
        *columns, ns = zip(*map(attrgetter(*_SEGMENT_FIELDS, "n"), rows)) if rows else [()] * 5
        one_shape = set(map(type, rows)) <= {RingTrajectory} and len(set(ns)) <= 1
        object.__setattr__(self, "n", ns[0] if ns else None)
        object.__setattr__(self, "segments", SegmentTable(*columns) if one_shape else None)
        # the int screen keeps a float field away from the sort
        if not (one_shape and set(map(type, chain(*columns))) <= {int} and self._disjoint()):
            _claim_slots(rows)  # raises the first conflict in order

    def _disjoint(self) -> bool:
        n = self.n
        return type(n) is int and n >= 3 and line_schedule._disjoint_segments(self.segments, n)

    @classmethod
    def from_segments(cls, n: int, segments: SegmentTable) -> "RingSchedule":
        """A bufferless schedule on an ``n``-node ring over ``segments``'
        columns: kept as they are when they pass the scan-line check, else
        (and when empty) built as objects, which raises the error the
        object-built schedule raises."""
        _check_lengths("segment", segments)
        sched = object.__new__(cls)
        sched.__dict__.update(segments=segments, n=n)
        if segments.message_id and sched._disjoint():
            return sched
        return cls(tuple(map(RingTrajectory, *segments, repeat(n))))

    def __getstate__(self) -> dict[str, Any]:
        # One form, as Schedule: the objects once they exist, else the segments.
        if "trajectories" in self.__dict__:
            return {"trajectories": self.trajectories}
        return self.__dict__

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        if "segments" not in state:  # the objects: derive the segments
            self.__post_init__()

    @property
    def throughput(self) -> int:
        return len(self.trajectories if self.segments is None else self.segments.message_id)

    @property
    def delivered_ids(self) -> frozenset[int]:
        if self.segments is None:
            return frozenset(t.message_id for t in self.trajectories)
        return frozenset(self.segments.message_id)


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
    smallest span — then id, then departure), scheduling whenever every
    (link, step) slot on the trajectory is still free.  Throughput is at
    least half of the bufferless optimum.  On instances that never wrap
    (all traffic inside an arc), the greedy coincides with Algorithm BFL
    applied to the corresponding line instance.

    The slot test needs one int per helix.  A candidate departing at
    ``depart`` holds the time interval ``[depart, arrive)`` on helix
    ``(source - depart) mod n``, and two trajectories share a slot iff
    they share a helix and their intervals overlap.  Candidates come in
    non-decreasing arrival order, so every interval already chosen on the
    candidate's helix ends no later than the candidate does, and it
    overlaps the candidate iff it ends after ``depart``.  With ``end[h]``
    the latest arrival chosen on helix ``h``, every slot is free iff
    ``depart >= end[h]``.

    A message's candidates are its departures in increasing order, so the
    global candidate order is a merge of one sorted stream per message: a
    heap holds each unscheduled message's next candidate, and a message
    leaves the heap once it is scheduled or out of departures.  The
    greedy reads the instance's int columns (:attr:`RingInstance.table`)
    and writes the chosen segments as columns
    (:meth:`RingSchedule.from_segments`): it builds no
    :class:`RingTrajectory`.
    """
    n = instance.n
    # (arrive, span, id, depart, source, deadline): ids are unique, so the
    # entries order by (arrive, span, id, depart).
    heap = []
    for mid, source, dest, release, deadline in zip(*instance.table):
        span = (dest - source) % n
        if release + span <= deadline:  # infeasible messages have none
            heap.append((release + span, span, mid, release, source, deadline))
    heapify(heap)

    end = [0] * n  # per helix: the latest arrival chosen on it
    ids, sources, departs, spans = [], [], [], []  # the chosen segments
    while heap:
        arrive, span, mid, depart, source, deadline = heap[0]
        helix = (source - depart) % n
        if depart >= end[helix]:
            end[helix] = arrive
            ids.append(mid)
            sources.append(source)
            departs.append(depart)
            spans.append(span)
            heappop(heap)
        elif arrive < deadline:  # the message's next departure
            heapreplace(heap, (arrive + 1, span, mid, depart + 1, source, deadline))
        else:
            heappop(heap)
    return RingSchedule.from_segments(n, SegmentTable(*map(tuple, (ids, sources, departs, spans))))


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
        return _ring_trajectory(packet.message, tuple(packet.crossings))

    def sim_schedule(self, instance: Any, trajectories: Iterable[Any]) -> RingSchedule:
        return RingSchedule(tuple(trajectories))

    # ----------------------------------------------------------- #

    def schedule_to_dict(self, schedule: Any) -> dict[str, Any]:
        """A ring schedule document: version-2 columns ``message_id``,
        ``source``, ``depart`` and ``span`` when every trajectory is a
        bufferless :class:`RingTrajectory`, version-1 rows otherwise."""
        segments = schedule.segments
        out = {
            "format": "repro-ring-schedule",
            "version": 1,
            "n": schedule.n,
            "throughput": schedule.throughput,
        }
        if segments is not None:
            out["version"] = 2
            out["trajectories"] = dict(zip(_SEGMENT_FIELDS, map(list, segments)))
            return out
        rows = []
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
            rows.append(row)
        out["trajectories"] = rows
        return out

    def schedule_from_dict(self, data: dict[str, Any]) -> RingSchedule:
        """The inverse of :meth:`schedule_to_dict`.

        Version-2 columns of plain ints (and an int ``n``) are read in
        bulk; any other version-2 table is zipped back into rows, so its
        error is the version-1 row read's.
        """
        from ..io import _check_header, _check_row_array, column_rows, plain_int_columns

        version = _check_header(data, "repro-ring-schedule", latest=2)
        n = data.get("n")  # None on an empty schedule
        if version == 1:
            _check_row_array(data, "trajectories", "ring schedule")
            rows = data.get("trajectories")
        else:
            columns = plain_int_columns(data.get("trajectories"), _SEGMENT_FIELDS)
            if columns is not None and (type(n) is int or not columns[0]):
                return RingSchedule.from_segments(n, SegmentTable(*columns))
            rows = [
                dict(zip(_SEGMENT_FIELDS, row))
                for row in column_rows(data, "trajectories", _SEGMENT_FIELDS, "ring schedule")
            ]
        return RingSchedule(_trajectories_from_rows(rows, n))  # re-validates the slots

    def instance_to_dict(self, instance: Any) -> dict[str, Any]:
        from ..io import instance_to_dict

        return {**instance_to_dict(instance), "topology": "ring"}

    def instance_from_dict(self, data: dict[str, Any]) -> RingInstance:
        from ..io import instance_rows, instance_table, wire_int, wire_message_row

        plain = instance_table(data)
        if plain is not None:
            n, table, cap = plain
            return RingInstance.from_table(n, table, buffer_capacity=cap)
        try:
            n = wire_int(data["n"], "n", "ring instance")
            messages = tuple(
                RingMessage(*wire_message_row(row, f"message at row {i}"), n=n)
                for i, row in enumerate(instance_rows(data, "ring instance"))
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
