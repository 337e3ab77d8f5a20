"""Schedules: conflict-free collections of trajectories.

A *schedule* assigns at most one trajectory to each message of an instance
such that no two trajectories share a diagonal lattice edge (sharing riser
edges or endpoints is allowed — paper, Section 2).  Its *throughput* is the
number of messages delivered.

:class:`Schedule` is an immutable value object; construction validates
internal consistency but not instance-compatibility — use
:func:`repro.core.validate.validate_schedule` for the full check against an
:class:`~repro.core.instance.Instance`.

Construction checks ids and edge-disjointness in bulk: one set of ids and
one set of ``(node, time)`` edges, compared in size with the trajectory and
edge counts.  Only a failed check runs the per-edge owner loop, which names
the first duplicate id or contested edge.  No edge map is kept: the
schedule holds only its trajectories, and :meth:`Schedule.edge_owner`
builds the map with that same loop on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .trajectory import DiagEdge, Trajectory

__all__ = ["Schedule", "ConflictError"]


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

    trajectories: tuple[Trajectory, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        trajectories = self.trajectories
        edges: set[DiagEdge] = set()
        crossed = 0
        for traj in trajectories:
            c = traj.crossings
            edges.update(zip(range(traj.source, traj.source + len(c)), c))
            crossed += len(c)
        ids = {t.message_id for t in trajectories}
        if len(ids) != len(trajectories) or len(edges) != crossed:
            _owner_map(trajectories)  # raises the first conflict in order

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
        return len(self.trajectories)

    @property
    def delivered_ids(self) -> frozenset[int]:
        return frozenset(t.message_id for t in self.trajectories)

    @property
    def bufferless(self) -> bool:
        """True iff no trajectory ever waits after departure."""
        return all(t.bufferless for t in self.trajectories)

    @property
    def total_wait(self) -> int:
        """Aggregate buffered steps across all trajectories."""
        return sum(t.total_wait for t in self.trajectories)

    def __len__(self) -> int:
        return len(self.trajectories)

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
