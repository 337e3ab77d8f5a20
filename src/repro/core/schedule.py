"""Schedules: conflict-free collections of trajectories.

A *schedule* assigns at most one trajectory to each message of an instance
such that no two trajectories share a diagonal lattice edge (sharing riser
edges or endpoints is allowed — paper, Section 2).  Its *throughput* is the
number of messages delivered.

:class:`Schedule` is an immutable value object; construction validates
internal consistency but not instance-compatibility — use
:func:`repro.core.validate.validate_schedule` for the full check against an
:class:`~repro.core.instance.Instance`.

The trajectories have two forms.  :attr:`Schedule.table` is a
:class:`TrajectoryTable`: three columns (message id, source, crossing
times) in schedule order, which is all ``len()``, ``throughput``,
``delivered_ids`` and the JSON writer read.  ``Schedule.trajectories`` is
the tuple of :class:`~repro.core.trajectory.Trajectory` objects the
readable algorithms walk.  A schedule built from objects derives its table
on first use; :meth:`Schedule.from_table` (the constructor the BFL kernel
and the JSON reader use) builds the objects only when ``trajectories`` is
first read.

Both constructors run one bulk check.  The ids must be unique.  When every
trajectory is bufferless it is one segment on the scan line
``α = source − depart``, and two such segments share a diagonal edge
exactly when they lie on the same line and their node intervals overlap:
the segments are sorted by ``(α, source, dest)`` and each is compared with
its neighbour on the same line.  A schedule with a buffered trajectory is
checked with one set of ``(node, time)`` edges instead, compared in size
with the edge count.  Only a failed check runs the per-edge owner loop over
``Trajectory`` objects, which names the first duplicate id or contested
edge, so a rejected schedule raises the same error whichever constructor
built it.  No edge map is kept: :meth:`Schedule.edge_owner` builds one with
that same loop on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, and_, attrgetter, eq, itemgetter, lt, sub
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .instance import BuiltFromTable
from .trajectory import DiagEdge, Trajectory

__all__ = ["Schedule", "TrajectoryTable", "ConflictError"]

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


def _disjoint_lines(
    ids: Sequence[int], sources: Sequence[int], crossings: Sequence[Sequence[int]]
) -> bool | None:
    """The scan-line bulk check.

    ``False`` on a repeated id or on two segments that overlap on one scan
    line; ``None`` when some row is not bufferless (its crossings must
    equal ``range(c0, c0 + len)``, which also makes them non-empty and
    strictly increasing); ``True`` when the rows are conflict-free.
    """
    if len(set(ids)) != len(ids):
        return False
    if not all(crossings):  # an empty row
        return None
    try:
        firsts = list(map(itemgetter(0), crossings))
        lengths = list(map(len, crossings))
        runs = map(tuple, map(range, firsts, map(add, firsts, lengths)))
        if not all(map(eq, crossings, runs)):
            return None
    except TypeError:  # non-integer times: leave them to the edge set
        return None
    if not ids:
        return True
    # One (alpha, source, dest) segment per row, sorted: with each line's
    # segments in source order, two overlap somewhere iff some segment
    # starts before its predecessor on that line ends.
    alpha, start, end = zip(
        *sorted(zip(map(sub, sources, firsts), sources, map(add, sources, lengths)))
    )
    return not any(map(and_, map(eq, alpha[1:], alpha), map(lt, start[1:], end)))


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
        lambda sched: sched._table.to_trajectories()
    )

    def __post_init__(self) -> None:
        trajectories = self.trajectories
        ids, sources, crossings = TrajectoryTable.of(trajectories)
        ok = _disjoint_lines(ids, sources, crossings)
        if ok is None:
            ok = _disjoint_edges(sources, crossings)
        if not ok:
            _owner_map(trajectories)  # raises the first conflict in order

    # ------------------------------------------------------------------ #
    # The trajectory table (columns first, objects on demand)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_table(cls, table: TrajectoryTable) -> "Schedule":
        """A schedule over ``table``'s columns.

        A table whose rows are all bufferless and pass the scan-line check
        is kept as it is, and ``trajectories`` is built the first time it
        is read.  Any other table goes through the object-built
        constructor, which accepts it (a valid buffered schedule) or raises
        the error it raises for those trajectories.
        """
        ids, sources, crossings = table
        if not len(ids) == len(sources) == len(crossings):
            raise ValueError(
                f"trajectory table columns differ in length: {len(ids)} ids, "
                f"{len(sources)} sources, {len(crossings)} crossings"
            )
        if not _disjoint_lines(ids, sources, crossings):
            return cls(table.to_trajectories())
        sched = object.__new__(cls)
        sched.__dict__["_table"] = table
        return sched

    @property
    def table(self) -> TrajectoryTable:
        """The trajectories as columns (derived once for object-built
        schedules)."""
        table = self.__dict__.get("_table")
        if table is None:
            table = TrajectoryTable.of(self.trajectories)
            object.__setattr__(self, "_table", table)
        return table

    def __getstate__(self) -> dict[str, Any]:
        # The table is derived from the trajectories once they exist;
        # pickle one form only, so object-built schedules pickle as they
        # always did.
        state = self.__dict__
        if "trajectories" in state and "_table" in state:
            state = {k: v for k, v in state.items() if k != "_table"}
        return state

    def __setstate__(self, state: dict) -> None:
        # On-disk result caches written by older releases pickled an eager
        # `_edge_owner` map with every schedule; shed it on load.
        state = dict(state)
        state.pop("_edge_owner", None)
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
        return frozenset(self.table.message_id)

    @property
    def bufferless(self) -> bool:
        """True iff no trajectory ever waits after departure."""
        return all(t.bufferless for t in self.trajectories)

    @property
    def total_wait(self) -> int:
        """Aggregate buffered steps across all trajectories."""
        return sum(t.total_wait for t in self.trajectories)

    def __len__(self) -> int:
        trajectories = self.__dict__.get("trajectories")
        if trajectories is not None:
            return len(trajectories)
        return len(self.__dict__["_table"].message_id)

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
