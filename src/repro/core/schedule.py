"""Schedules: conflict-free collections of trajectories.

A *schedule* assigns at most one trajectory to each message of an instance
such that no two trajectories share a diagonal lattice edge (sharing riser
edges or endpoints is allowed — paper, Section 2).  Its *throughput* is the
number of messages delivered.

:class:`Schedule` is an immutable value object; construction validates
internal consistency but not instance-compatibility — use
:func:`repro.core.validate.validate_schedule` for the full check against an
:class:`~repro.core.instance.Instance`.

The trajectories have three forms.  A bufferless trajectory is one 45°
segment on the scan line ``α = source − depart``, so an all-bufferless
schedule is given by :attr:`Schedule.segments`, a :class:`SegmentTable` of
four int columns (message id, source, departure, hop count) in schedule
order.  :attr:`Schedule.table` is a :class:`TrajectoryTable` of crossing
times (message id, source, one tuple per row), which holds buffered
trajectories too.  ``Schedule.trajectories`` is the tuple of
:class:`~repro.core.trajectory.Trajectory` objects the readable algorithms
walk.

:meth:`Schedule.from_segments` (the constructor of the BFL kernel and of
the version-3 JSON reader) keeps the segments only: ``len()``,
``throughput``, ``delivered_ids``, ``bufferless`` and the JSON writer read
them, the crossings are derived the first time ``table`` is read and the
objects the first time ``trajectories`` is.  :meth:`Schedule.from_table`
(the version-1 and version-2 reader) keeps an all-bufferless table as
segments too.  A schedule built from objects derives either table on
demand, so it writes the same document.

Every constructor runs one bulk check.  On segments it is the scan-line
check: ids are unique, every segment crosses a link, and two segments
share a diagonal edge exactly when they lie on the same scan line and
their time intervals overlap, so the segments are sorted by
``(α, depart, arrive)`` and each is compared with its neighbour on the
same line; ``RingSchedule`` runs it with ``α`` mod ``n`` (the helices).
A schedule with a buffered trajectory is checked with one set of
``(node, time)`` edges instead, compared in size with the edge count.
Only a failed check builds the ``Trajectory`` objects and runs the
per-edge owner loop, which names the first invalid row, duplicate id or
contested edge, so a rejected schedule raises the same error whichever
constructor built it.  No edge map is kept: :meth:`Schedule.edge_owner`
builds one with that same loop on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, and_, attrgetter, eq, itemgetter, lt, mod, sub
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .instance import BuiltFromTable
from .trajectory import DiagEdge, Trajectory

__all__ = ["Schedule", "SegmentTable", "TrajectoryTable", "ConflictError"]

_trajectory_fields = attrgetter("message_id", "source", "crossings")


class TrajectoryTable(NamedTuple):
    """A schedule's trajectories as three columns, in schedule order.

    ``crossings`` holds one tuple of crossing times per row, as
    :class:`~repro.core.trajectory.Trajectory` does.
    """

    message_id: tuple[int, ...]
    source: tuple[int, ...]
    crossings: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> "TrajectoryTable":
        if not trajectories:
            return cls((), (), ())
        return cls(*zip(*map(_trajectory_fields, trajectories)))

    def to_trajectories(self) -> tuple[Trajectory, ...]:
        """The rows as :class:`Trajectory` objects (each runs its validator)."""
        return tuple(map(Trajectory, *self))


class SegmentTable(NamedTuple):
    """An all-bufferless schedule's trajectories as four int columns, in
    schedule order.

    Row ``i`` leaves node ``source[i]`` at time ``depart[i]`` and crosses
    ``hops[i]`` links, one per step: its crossing times are
    ``range(depart[i], depart[i] + hops[i])``.
    """

    message_id: tuple[int, ...]
    source: tuple[int, ...]
    depart: tuple[int, ...]
    hops: tuple[int, ...]

    @classmethod
    def of(cls, table: TrajectoryTable) -> "SegmentTable | None":
        """``table``'s rows as segments; ``None`` unless every row's
        crossings equal ``range(c0, c0 + len)``, which also makes them
        non-empty and strictly increasing."""
        ids, sources, crossings = table
        if not all(crossings):  # an empty row
            return None
        try:
            firsts = tuple(map(itemgetter(0), crossings))
            hops = tuple(map(len, crossings))
            runs = map(tuple, map(range, firsts, map(add, firsts, hops)))
            if not all(map(eq, crossings, runs)):
                return None
        except TypeError:  # non-integer times: leave them to the edge set
            return None
        return cls(ids, sources, firsts, hops)

    def crossings(self) -> tuple[tuple[int, ...], ...]:
        """Each row's crossing times."""
        return tuple(map(tuple, map(range, self.depart, map(add, self.depart, self.hops))))

    def to_table(self) -> TrajectoryTable:
        return TrajectoryTable(self.message_id, self.source, self.crossings())

    def to_trajectories(self) -> tuple[Trajectory, ...]:
        """The rows as :class:`Trajectory` objects (each runs its validator)."""
        return tuple(map(Trajectory, self.message_id, self.source, self.crossings()))


def _disjoint_segments(segments: SegmentTable, n: int | None = None) -> bool:
    """The scan-line bulk check of line and ring schedules: ``True`` iff
    no id repeats, every segment crosses a link and no two segments
    overlap on one scan line.  A segment holds the time interval
    ``[depart, depart + hops)`` on the line ``source - depart``, taken
    mod ``n`` on an ``n``-node ring (whose scan lines are helices)."""
    ids, sources, departs, hops = segments
    if len(set(ids)) != len(ids):
        return False
    if not ids:
        return True
    try:
        if min(hops) < 1:
            return False
        lines = map(sub, sources, departs)
        if n is not None:
            lines = map(mod, lines, repeat(n))
        # One (line, depart, arrive) interval per row, sorted: with each
        # line's intervals in time order, two overlap somewhere iff some
        # interval departs before its predecessor on that line arrives.
        line, depart, arrive = zip(*sorted(zip(lines, departs, map(add, departs, hops))))
    except TypeError:  # non-integer fields: left to the row checks
        return False
    return not any(map(and_, map(eq, line[1:], line), map(lt, depart[1:], arrive)))


def _disjoint_edges(sources: Iterable[int], crossings: Iterable[Sequence[int]]) -> bool:
    """Whether no ``(node, time)`` edge is crossed twice (any schedule)."""
    edges: set[DiagEdge] = set()
    crossed = 0
    for s, c in zip(sources, crossings):
        edges.update(zip(range(s, s + len(c)), c))
        crossed += len(c)
    return len(edges) == crossed


def _owner_map(trajectories: Iterable[Trajectory]) -> dict[DiagEdge, int]:
    """Map each crossed diagonal edge to its message id, in order.

    Raises ``ValueError`` on the first repeated message id and
    :class:`ConflictError` on the first edge claimed twice.
    """
    owner: dict[DiagEdge, int] = {}
    ids: set[int] = set()
    for traj in trajectories:
        if traj.message_id in ids:
            raise ValueError(f"message {traj.message_id} scheduled twice")
        ids.add(traj.message_id)
        for edge in traj.diagonal_edges():
            if edge in owner:
                raise ConflictError(edge, owner[edge], traj.message_id)
            owner[edge] = traj.message_id
    return owner


def _check_lengths(what: str, columns: NamedTuple) -> None:
    """Refuse a ``what`` table whose columns differ in length."""
    lengths = list(map(len, columns))
    if len(set(lengths)) > 1:
        named = ", ".join(f"{field} {n}" for field, n in zip(columns._fields, lengths))
        raise ValueError(f"{what} table columns differ in length: {named}")


class ConflictError(ValueError):
    """Two trajectories claim the same diagonal lattice edge."""

    def __init__(self, edge: DiagEdge, first: int, second: int):
        self.edge = edge
        self.first = first
        self.second = second
        node, t = edge
        super().__init__(
            f"messages {first} and {second} both cross link ({node}, {node + 1}) "
            f"during [{t}, {t + 1}]"
        )


@dataclass(frozen=True)
class Schedule:
    """An immutable, internally conflict-free set of trajectories."""

    trajectories: tuple[Trajectory, ...] = BuiltFromTable(  # type: ignore[assignment]
        lambda sched: sched._segments.to_trajectories(), key="_segments"
    )

    def __post_init__(self) -> None:
        trajectories = self.trajectories
        table = TrajectoryTable.of(trajectories)
        segments = SegmentTable.of(table)
        if segments is not None:
            ok = _disjoint_segments(segments)
        else:
            ids, sources, crossings = table
            ok = len(set(ids)) == len(ids) and _disjoint_edges(sources, crossings)
        if not ok:
            _owner_map(trajectories)  # raises the first conflict in order

    # ------------------------------------------------------------------ #
    # The column forms (segments first, crossings and objects on demand)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_segments(cls, segments: SegmentTable) -> "Schedule":
        """An all-bufferless schedule over ``segments``' columns.

        Segments that pass the scan-line check are kept as they are, and
        ``table`` and ``trajectories`` are built the first time they are
        read.  Any other table goes through the object-built constructor,
        which raises the error it raises for those trajectories.
        """
        _check_lengths("segment", segments)
        if not _disjoint_segments(segments):
            return cls(segments.to_trajectories())
        sched = object.__new__(cls)
        sched.__dict__["_segments"] = segments
        return sched

    @classmethod
    def from_table(cls, table: TrajectoryTable) -> "Schedule":
        """A schedule over ``table``'s columns.

        A table whose rows are all bufferless and pass the scan-line check
        is kept as segments (and as the table itself), and
        ``trajectories`` is built the first time it is read.  Any other
        table goes through the object-built constructor, which accepts it
        (a valid buffered schedule) or raises the error it raises for
        those trajectories.
        """
        _check_lengths("trajectory", table)
        segments = SegmentTable.of(table)
        if segments is None or not _disjoint_segments(segments):
            return cls(table.to_trajectories())
        sched = object.__new__(cls)
        sched.__dict__.update(_segments=segments, _table=table)
        return sched

    @property
    def segments(self) -> SegmentTable | None:
        """The trajectories as scan-line segments, or ``None`` when some
        trajectory waits at a node (derived once for object-built
        schedules)."""
        segments = self.__dict__.get("_segments")
        if segments is None:
            segments = SegmentTable.of(self.table)
            if segments is not None:
                object.__setattr__(self, "_segments", segments)
        return segments

    @property
    def table(self) -> TrajectoryTable:
        """The trajectories as crossing-time columns (derived once, from
        the segments when the schedule has them)."""
        table = self.__dict__.get("_table")
        if table is None:
            segments = self.__dict__.get("_segments")
            if segments is not None:
                table = segments.to_table()
            else:
                table = TrajectoryTable.of(self.trajectories)
            object.__setattr__(self, "_table", table)
        return table

    def __getstate__(self) -> dict[str, Any]:
        # Pickle one form only: the objects once they exist, so
        # object-built schedules pickle as they always did, else the
        # segments.  The crossings are always derived again.
        state = self.__dict__
        drop = {"_table", "_segments"} if "trajectories" in state else {"_table"}
        if not drop.isdisjoint(state):
            state = {k: v for k, v in state.items() if k not in drop}
        return state

    def __setstate__(self, state: dict) -> None:
        # On-disk result caches written by older releases pickled an eager
        # `_edge_owner` map with every schedule (shed on load), or kept a
        # bufferless schedule as its crossings table (read as segments).
        state = dict(state)
        state.pop("_edge_owner", None)
        if "trajectories" not in state and "_segments" not in state:
            table = state["_table"]
            segments = SegmentTable.of(table)
            if segments is None:
                state["trajectories"] = table.to_trajectories()
            else:
                state["_segments"] = segments
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #

    @classmethod
    def of(cls, trajectories: Iterable[Trajectory]) -> "Schedule":
        return cls(tuple(trajectories))

    @property
    def throughput(self) -> int:
        """Number of messages delivered — the objective the paper maximises."""
        return len(self)

    @property
    def delivered_ids(self) -> frozenset[int]:
        segments = self.__dict__.get("_segments")
        if segments is not None:
            return frozenset(segments.message_id)
        return frozenset(self.table.message_id)

    @property
    def bufferless(self) -> bool:
        """True iff no trajectory ever waits after departure."""
        if "_segments" in self.__dict__:
            return True
        return all(t.bufferless for t in self.trajectories)

    @property
    def total_wait(self) -> int:
        """Aggregate buffered steps across all trajectories."""
        if "_segments" in self.__dict__:
            return 0
        return sum(t.total_wait for t in self.trajectories)

    def __len__(self) -> int:
        trajectories = self.__dict__.get("trajectories")
        if trajectories is not None:
            return len(trajectories)
        return len(self.__dict__["_segments"].message_id)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self.delivered_ids

    def __getitem__(self, message_id: int) -> Trajectory:
        for t in self.trajectories:
            if t.message_id == message_id:
                return t
        raise KeyError(f"message {message_id} not in schedule")

    # ------------------------------------------------------------------ #

    def edge_owner(self) -> Mapping[DiagEdge, int]:
        """Map from each occupied diagonal edge to its message id, built on
        demand (a fresh dict per call)."""
        return _owner_map(self.trajectories)

    def delivery_lines(self) -> dict[int, int]:
        """Map message id -> ao-parameter of the scan line of its final hop.

        This is the quantity Theorem 5.2 equates between BFL and D-BFL.
        """
        return {t.message_id: t.final_alpha for t in self.trajectories}

    def extended_with(self, *trajectories: Trajectory) -> "Schedule":
        """A new schedule with extra trajectories (re-validated)."""
        return Schedule(self.trajectories + tuple(trajectories))

    def without(self, *message_ids: int) -> "Schedule":
        drop = set(message_ids)
        return Schedule(tuple(t for t in self.trajectories if t.message_id not in drop))

    def translated(self, dnode: int = 0, dtime: int = 0) -> "Schedule":
        return Schedule(tuple(t.translated(dnode, dtime) for t in self.trajectories))

    def merged_with(self, other: "Schedule") -> "Schedule":
        """Union of two schedules (must remain conflict-free)."""
        return Schedule(self.trajectories + other.trajectories)

    def max_buffer_occupancy(self) -> dict[int, int]:
        """Peak number of messages simultaneously buffered at each node.

        Buffering at a node spans the half-open interval between a message's
        arrival there and its next departure.  Source-side waiting before
        departure is not counted (the message has not entered the network).
        """
        events: dict[int, list[tuple[int, int]]] = {}
        for traj in self.trajectories:
            for node, start, end in traj.waits():
                events.setdefault(node, []).extend([(start, +1), (end, -1)])
        peaks: dict[int, int] = {}
        for node, evs in events.items():
            evs.sort()
            cur = peak = 0
            for _, delta in evs:
                cur += delta
                peak = max(peak, cur)
            peaks[node] = peak
        return peaks
