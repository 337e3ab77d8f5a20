"""Buffered greedy policies for the network simulator.

All are *local-control* policies in the paper's sense: each node decides
from its own buffer only.  They are the classical per-link heuristics the
real-time literature uses, and serve as buffered baselines against D-BFL.
"""

from __future__ import annotations

from ..network.packet import Packet
from ..network.policy import NodeView, Policy

__all__ = [
    "EDFPolicy",
    "MinLaxityPolicy",
    "FCFSPolicy",
    "NearestDestPolicy",
]


class EDFPolicy(Policy):
    """Earliest deadline first — the classic hard-real-time rule."""

    def select(self, view: NodeView) -> Packet | None:
        if not view.candidates:
            return None
        return min(view.candidates, key=lambda p: (p.deadline, p.id))

    def eviction_key(self, packet: Packet) -> tuple:
        return (packet.deadline, packet.id)


class MinLaxityPolicy(Policy):
    """Least laxity first: forward the packet that can least afford to wait."""

    def select(self, view: NodeView) -> Packet | None:
        if not view.candidates:
            return None
        return min(view.candidates, key=lambda p: (p.laxity(view.time), p.deadline, p.id))

    def eviction_key(self, packet: Packet) -> tuple:
        # laxity(t) = deadline - t - hops_remaining; the -t term is shared
        # by every contestant at one node and step, so (deadline -
        # hops_remaining) preserves the select order without needing the
        # clock.  hops_remaining = span - hops_done for a buffered packet.
        hops_done = len(packet.crossings)
        return (
            packet.deadline - packet.message.span + hops_done,
            packet.deadline,
            packet.id,
        )


class FCFSPolicy(Policy):
    """Oldest release first (first-come-first-served)."""

    def select(self, view: NodeView) -> Packet | None:
        if not view.candidates:
            return None
        return min(view.candidates, key=lambda p: (p.message.release, p.id))

    def eviction_key(self, packet: Packet) -> tuple:
        return (packet.message.release, packet.id)


class NearestDestPolicy(Policy):
    """BFL's nearest-destination tie-break, without the scan-line L filter.

    The gap between this and D-BFL measures exactly what the ``L``-value
    propagation buys (ablation A1).
    """

    def select(self, view: NodeView) -> Packet | None:
        if not view.candidates:
            return None
        return min(
            view.candidates, key=lambda p: (p.dest, -p.message.source, p.id)
        )

    def eviction_key(self, packet: Packet) -> tuple:
        return (packet.dest, -packet.message.source, packet.id)

