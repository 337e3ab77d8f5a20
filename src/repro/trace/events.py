"""Event tracing for simulator runs (per-packet lifecycle).

:class:`TracingPolicy` wraps any policy and records a chronological event
log (releases, forwards, idles, deliveries, drops, control traffic)
without changing the wrapped policy's behaviour — the decorator pattern
keeps the simulator itself observation-free.  Useful for debugging
distributed policies and for asserting fine-grained behaviour in tests.

Vocabulary note: this is the **event** trace — what each packet *did*
inside one simulation.  It is distinct from the **workload** traces of
:mod:`repro.trace.format` (what arrived, when — the replayable input)
and from the observability traces of :mod:`repro.obs` (spans and
counters about the code).  See the vocabulary table in ``docs/api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..network.packet import Packet
from ..network.policy import NodeView, Policy

__all__ = ["TraceEvent", "TracingPolicy"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One simulator event.

    ``kind`` is one of ``release, forward, idle, deliver, drop, control``;
    ``message_id`` is ``None`` for node-level events (idle, control).
    """

    time: int
    kind: str
    node: int
    message_id: int | None = None
    detail: str = ""


class TracingPolicy(Policy):
    """Record every observable event while delegating to ``inner``."""

    def __init__(self, inner: Policy) -> None:
        self.inner = inner
        self.events: list[TraceEvent] = []
        # Transparent wrapper: fast-forwarding is safe exactly when it is
        # safe for the wrapped policy (idle steps produce no events).
        self.idle_skippable = inner.idle_skippable

    # ------------------------------------------------------------------ #

    def reset(self, n: int) -> None:
        self.events.clear()
        self.inner.reset(n)

    def select(self, view: NodeView) -> Packet | None:
        chosen = self.inner.select(view)
        if chosen is None:
            if view.candidates:
                self.events.append(
                    TraceEvent(view.time, "idle", view.node, None,
                               f"{len(view.candidates)} buffered")
                )
        else:
            self.events.append(
                TraceEvent(view.time, "forward", view.node, chosen.id,
                           f"-> {view.node + 1}")
            )
        return chosen

    def emit_control(self, node: int, time: int) -> Hashable | None:
        value = self.inner.emit_control(node, time)
        if value is not None:
            self.events.append(TraceEvent(time, "control", node, None, repr(value)))
        return value

    def receive_control(self, node: int, time: int, value: Hashable) -> None:
        self.inner.receive_control(node, time, value)

    def on_release(self, packet: Packet, time: int) -> None:
        self.events.append(TraceEvent(time, "release", packet.node, packet.id))
        self.inner.on_release(packet, time)

    def on_deliver(self, packet: Packet, time: int) -> None:
        self.events.append(TraceEvent(time, "deliver", packet.node, packet.id))
        self.inner.on_deliver(packet, time)

    def on_drop(self, packet: Packet, time: int) -> None:
        self.events.append(TraceEvent(time, "drop", packet.node, packet.id))
        self.inner.on_drop(packet, time)

    # ------------------------------------------------------------------ #

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_message(self, message_id: int) -> list[TraceEvent]:
        return [e for e in self.events if e.message_id == message_id]

    def render(self, *, limit: int | None = None) -> str:
        """Human-readable chronological log."""
        rows = self.events if limit is None else self.events[:limit]
        return "\n".join(
            f"t={e.time:<4} {e.kind:<8} node {e.node:<3}"
            + (f" msg {e.message_id}" if e.message_id is not None else "")
            + (f"  {e.detail}" if e.detail else "")
            for e in rows
        )
