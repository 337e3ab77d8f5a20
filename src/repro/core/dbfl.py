"""Algorithm D-BFL — distributed, online, buffered BFL (Theorem 5.2).

D-BFL runs on the network simulator with strictly local information:

* node ``v`` learns about a message only when the message is released at
  ``v`` or physically arrives at ``v``;
* the only extra information is one value per link per step — the running
  ``L`` value of the scan line currently passing through the link, i.e. the
  largest destination ``<= v`` at which some message already completed its
  journey on that line.  ``L`` fits in ``log n`` bits, the paper's stated
  overhead.

At time ``t`` node ``v`` serves scan line ``i = v - t``: among its buffered
packets whose source is at least the line's ``L`` value, it forwards the
one with the nearest destination (ties: larger source, then id — BFL's
rule).  Theorem 5.2 proves the delivered set — and the delivery scan line
of every message — coincides exactly with centralized offline BFL's.

The implementation deliberately stores no global state: ``DBFLPolicy``
keeps one incoming-``L`` slot per node, written only by the simulator's
control channel, which moves one hop per step like everything else.
"""

from __future__ import annotations

from typing import Hashable

from ..network.packet import Packet
from ..network.policy import NodeView, Policy
from ..network.simulator import SimulationResult, simulate
from .instance import Instance

__all__ = ["DBFLPolicy", "dbfl"]

_NO_DELIVERY = -1  # L value of a line on which nothing has completed yet


class DBFLPolicy(Policy):
    """The D-BFL forwarding rule as a local-control simulator policy."""

    # D-BFL streams L values over the control channel every step, so the
    # simulator must not fast-forward over idle periods.
    idle_skippable = False

    def __init__(self) -> None:
        self._l_in: list[int] = []
        self._l_out: list[int | None] = []

    def reset(self, n: int) -> None:
        # At t=0 every node starts a brand-new scan line (i = v), on which
        # nothing can have been delivered.
        self._l_in = [_NO_DELIVERY] * n
        self._l_out = [None] * n

    # ------------------------------------------------------------------ #

    def select(self, view: NodeView) -> Packet | None:
        v = view.node
        l_value = self._l_in[v]
        eligible = [p for p in view.candidates if p.message.source >= l_value]
        chosen: Packet | None = None
        if eligible:
            chosen = min(
                eligible, key=lambda p: (p.message.dest, -p.message.source, p.id)
            )
        # The L value handed to node v+1 along this line: bumped iff the
        # forwarded packet completes its journey there.
        if chosen is not None and chosen.message.dest == v + 1:
            self._l_out[v] = v + 1
        else:
            self._l_out[v] = l_value
        # This node's slot now refers to *next* step's line, which is fresh
        # unless the left neighbour overwrites it via receive_control.
        self._l_in[v] = _NO_DELIVERY
        return chosen

    def emit_control(self, node: int, time: int) -> Hashable | None:
        value = self._l_out[node]
        self._l_out[node] = None
        return value

    def receive_control(self, node: int, time: int, value: Hashable) -> None:
        self._l_in[node] = int(value)  # type: ignore[arg-type]


def dbfl(instance: Instance, *, faults=None) -> SimulationResult:
    """Run D-BFL on ``instance`` and return the simulation result.

    With unbounded buffers (the paper's setting) the delivered set equals
    ``bfl(instance)``'s, message for message and delivery-line for
    delivery-line (Theorem 5.2).  Bounded buffers and ``faults`` (a
    :class:`~repro.network.faults.FaultPlan`) void that guarantee.

    Buffer capacity is a model dimension: set it on the instance
    (``Instance.buffer_capacity`` /
    :meth:`~repro.core.instance.Instance.with_buffer_capacity`) and the
    simulator picks it up.
    """
    return simulate(instance, DBFLPolicy(), faults=faults)
