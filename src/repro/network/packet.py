"""Runtime packet state inside the simulator.

A :class:`Packet` wraps one message and tracks its journey: current node,
link-crossing times so far, and final status.  Packets are mutable — they
are simulator internals; the immutable record of a run is the schedule
assembled afterwards.

The packet is topology-agnostic: ``node`` is whatever node id the active
:class:`~repro.topology.Topology` uses (an ``int`` on lines and rings, a
``(row, col)`` tuple on meshes), progress is counted in ``hops_done``
against the message's ``span``, and :meth:`record_hop` accepts the
explicit next node the topology routed to (defaulting to ``node + 1``,
the line's successor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..core.trajectory import Trajectory

__all__ = ["Packet", "PacketStatus"]


class PacketStatus(enum.Enum):
    """Lifecycle of a packet inside a simulation run."""

    PENDING = "pending"  # not yet released
    IN_NETWORK = "in_network"  # buffered at a node or crossing a link
    DELIVERED = "delivered"  # reached its destination by its deadline
    DROPPED = "dropped"  # can no longer meet its deadline


@dataclass(eq=False, slots=True)
class Packet:
    """One message's mutable runtime state.

    ``message`` is any message type exposing ``id``, ``source``, ``dest``,
    ``release``, ``deadline`` and ``span`` (``Message``, ``RingMessage``,
    ``MeshMessage`` all do).  The fields the step loop reads every step
    are copied off it once: ``id``, ``deadline``, ``dest``, ``span`` and
    ``last``, the latest step the packet can still leave its current node
    and arrive in time (``deadline - span`` at the source, one more per
    hop).  Packets compare by identity.
    """

    message: Any
    id: int = field(init=False)
    deadline: int = field(init=False)
    dest: Any = field(init=False)
    span: int = field(init=False)
    last: int = field(init=False)
    node: Any = field(init=False)
    status: PacketStatus = field(init=False, default=PacketStatus.PENDING)
    hops_done: int = field(init=False, default=0)
    crossings: list[int] = field(init=False, default_factory=list)
    dropped_at: int | None = field(init=False, default=None)
    drop_reason: str | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        m = self.message
        self.id = m.id
        self.deadline = m.deadline
        self.dest = m.dest
        self.span = m.span
        self.last = m.deadline - self.span
        self.node = m.source

    # ------------------------------------------------------------------ #

    def remaining_hops(self) -> int:
        return self.span - self.hops_done

    def can_meet_deadline(self, time: int) -> bool:
        """Whether full-speed travel from here still beats the deadline."""
        return time <= self.last

    def laxity(self, time: int) -> int:
        """Steps of waiting the packet can still afford (0 == must move now)."""
        return self.last - time

    # ------------------------------------------------------------------ #

    def record_hop(self, time: int, next_node: Any = None) -> None:
        """Advance one node, crossing the link during ``[time, time + 1]``.

        ``next_node`` is where the topology routed the packet; ``None``
        keeps the line's default successor ``node + 1``.
        """
        self.crossings.append(time)
        self.node = self.node + 1 if next_node is None else next_node
        self.hops_done += 1
        self.last += 1
        if self.hops_done == self.span:
            self.status = PacketStatus.DELIVERED

    def mark_dropped(self, time: int, reason: str = "deadline") -> None:
        """Drop the packet; ``reason`` is ``"deadline"`` (hopeless or past
        the horizon), ``"buffer_full"`` (finite buffer full) or ``"fault"``
        (lost to the fault plan)."""
        self.status = PacketStatus.DROPPED
        self.dropped_at = time
        self.drop_reason = reason

    def trajectory(self) -> Trajectory:
        """The completed *line* trajectory (only valid once delivered; ring
        and mesh packets go through their topology's ``sim_trajectory``)."""
        if self.status is not PacketStatus.DELIVERED:
            raise ValueError(f"packet {self.id} not delivered (status {self.status.value})")
        return Trajectory(self.id, self.message.source, tuple(self.crossings))
