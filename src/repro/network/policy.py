"""The local-control policy interface.

A policy decides, independently at every node and step, which (if any)
buffered packet to forward rightward.  The simulator enforces the paper's
distributed information model:

* a policy sees one node at a time through a :class:`NodeView`;
* the only cross-node channel is :meth:`Policy.emit_control` /
  :meth:`Policy.receive_control`: whatever a node emits at step ``t``
  reaches its right neighbour at step ``t + 1`` — control information
  travels no faster than packets (paper, Section 5.2);
* packet metadata (source, dest, release, deadline) rides with the packet,
  as the paper allows (an ``O(log n)``-bit header).

Every policy has **one order**, its static :meth:`Policy.key`: ``select``
defaults to the candidate with the smallest key, and the bounded-buffer
admission contest (:meth:`Policy.eviction_key`) evicts the largest.  A
*key-ordered* policy — one that keeps the base ``select``, ``select_at``
and ``emit_control`` — is therefore fully described by its key, and the
simulator serves it without building a :class:`NodeView`, skipping nodes
whose buffers are empty.  Every other policy is asked through
:meth:`Policy.select_at` at every node and step: the base builds the
``NodeView`` (its one construction site) and calls ``select``, while a
policy that can decide on the live buffer — D-BFL's scan-line filter —
overrides ``select_at`` and keeps ``select`` as a delegate for callers
holding a view.  Such policies should still state their order as
``key`` so their admission contest matches what they forward.

Centralised heuristics that "cheat" (e.g. global-knowledge baselines) can
of course keep their own state; the D-BFL implementation deliberately
restricts itself to the control channel so that Theorem 5.2's locality
claim is demonstrated, not just asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from .packet import Packet

__all__ = ["NodeView", "Policy"]


@dataclass(frozen=True)
class NodeView:
    """What one node can see when making a forwarding decision.

    ``candidates`` holds the packets buffered at the node that can still
    meet their deadlines (hopeless ones are dropped before selection).
    The view is ephemeral — valid only during the ``select`` call.
    """

    node: int
    time: int
    candidates: tuple[Packet, ...]


class Policy:
    """Base class: a policy states its order as :meth:`key`, and may
    override :meth:`select` or :meth:`select_at` (and the control-channel
    hooks) when the order alone does not decide what it forwards."""

    #: Whether the simulator may fast-forward over fully idle steps (all
    #: buffers empty, nothing in flight) straight to the next release.
    #: Policies whose behaviour depends on being polled every step — e.g.
    #: anything driving the control channel, like D-BFL — must set this
    #: False so no emission opportunity is skipped.
    idle_skippable: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # ``select_at`` is served only with the ``select`` it was written
        # for: a subclass whose ``select`` is newer in the MRO than its
        # ``select_at`` (it changed the rule but inherited a fast path
        # for the old one) gets the base ``select_at``, which asks its
        # ``select`` through a view.
        super().__init_subclass__(**kwargs)
        mro = cls.__mro__

        def owner(name: str) -> int:
            return next(i for i, c in enumerate(mro) if name in vars(c))

        if owner("select") < owner("select_at"):
            cls.select_at = Policy.select_at  # type: ignore[method-assign]

    def reset(self, n: int) -> None:
        """Called once before the run starts, with the network size."""

    @staticmethod
    def key(packet: Packet) -> tuple:
        """The policy's one order: the smaller key is forwarded first.

        It must depend on the packet alone (not on the clock or the
        node), so that :meth:`select` and the admission contest of
        :meth:`eviction_key` agree at every step.  The default is EDF
        order, ``(deadline, id)``.
        """
        return (packet.deadline, packet.id)

    def select(self, view: NodeView) -> Packet | None:
        """Choose the packet node ``view.node`` forwards at ``view.time``.

        Return ``None`` to keep the link idle this step.  Must return one
        of ``view.candidates``.  The default forwards the candidate with
        the smallest :meth:`key` (``None`` when there is none).
        """
        candidates = view.candidates
        return min(candidates, key=self.key) if candidates else None

    def select_at(self, node: Any, time: int, buffer: Sequence[Packet]) -> Packet | None:
        """The simulator's entry point: choose what ``node`` forwards at
        ``time`` from ``buffer``, the packets it holds for one outgoing
        link.

        ``buffer`` is the simulator's live list (or a view's candidate
        tuple) and must not be mutated.
        The base builds the :class:`NodeView` and asks :meth:`select`; a
        policy may override this to decide on the list directly, as long
        as it picks what its ``select`` would.
        """
        return self.select(NodeView(node=node, time=time, candidates=tuple(buffer)))

    def eviction_key(self, packet: Packet) -> tuple:
        """Priority key for bounded-buffer admission contests.

        When a packet arrives at a full buffer under the
        ``"evict-lowest-priority"`` admission policy
        (:mod:`repro.buffers`), the packet with the *maximum* eviction
        key loses its slot.  It returns :meth:`key`, so the buffer keeps
        exactly the packets the policy would forward first.
        """
        return self.key(packet)

    # ------------------------------------------------------------------ #
    # Control channel (one value per node per step, moving one hop right)
    # ------------------------------------------------------------------ #

    def emit_control(self, node: int, time: int) -> Hashable | None:
        """Value to piggyback from ``node`` to ``node + 1`` this step."""
        return None

    def receive_control(self, node: int, time: int, value: Hashable) -> None:
        """Deliver the value ``node - 1`` emitted at ``time - 1``."""

    # ------------------------------------------------------------------ #
    # Informational hooks
    # ------------------------------------------------------------------ #

    def on_release(self, packet: Packet, time: int) -> None:
        """A packet just became available at its source node."""

    def on_deliver(self, packet: Packet, time: int) -> None:
        """A packet just arrived at its destination."""

    def on_drop(self, packet: Packet, time: int) -> None:
        """A packet just became hopeless and was discarded."""
