"""Buffered greedy policies for the network simulator.

All are *local-control* policies in the paper's sense: each node decides
from its own buffer only.  They are the classical per-link heuristics the
real-time literature uses, and serve as buffered baselines against D-BFL.

Each states its order once, as :meth:`~repro.network.policy.Policy.key`;
forwarding and the bounded-buffer admission contest both follow it.
"""

from __future__ import annotations

from ..network.packet import Packet
from ..network.policy import Policy

__all__ = [
    "EDFPolicy",
    "MinLaxityPolicy",
    "FCFSPolicy",
    "NearestDestPolicy",
]


class EDFPolicy(Policy):
    """Earliest deadline first — the classic hard-real-time rule."""

    @staticmethod
    def key(packet: Packet) -> tuple:
        return (packet.deadline, packet.id)


class MinLaxityPolicy(Policy):
    """Least laxity first: forward the packet that can least afford to wait."""

    @staticmethod
    def key(packet: Packet) -> tuple:
        # laxity(t) = deadline - t - (span - hops_done); the -t term is
        # shared by every contestant at one node and step, so
        # deadline - span + hops_done (the packet's latest departure,
        # ``last``) gives the same order without the clock.
        return (packet.last, packet.deadline, packet.id)


class FCFSPolicy(Policy):
    """Oldest release first (first-come-first-served)."""

    @staticmethod
    def key(packet: Packet) -> tuple:
        return (packet.message.release, packet.id)


class NearestDestPolicy(Policy):
    """BFL's nearest-destination tie-break, without the scan-line L filter.

    The gap between this and D-BFL measures exactly what the ``L``-value
    propagation buys (ablation A1).
    """

    @staticmethod
    def key(packet: Packet) -> tuple:
        return (packet.dest, -packet.message.source, packet.id)
