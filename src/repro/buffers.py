"""Bounded per-node buffers: capacity model + admission/evict policies.

The paper's buffered regime assumes unlimited per-node buffers ("making
no attempt to limit the number of buffers").  The later literature —
Even–Medina–Rosén, *A Constant Approximation Algorithm for Scheduling
Packets on Line Networks* — shows constant-factor guarantees survive
bounded buffers, so the library models capacity as a first-class
instance property (``Instance.buffer_capacity``; ``None`` keeps the
paper's unbounded setting) rather than an ad-hoc simulator knob.

This module is the one home for the capacity vocabulary:

* :data:`ADMISSION_POLICIES` — what happens when a packet reaches a full
  buffer:

  - ``"drop-new"`` (default, the historical behaviour): the arriving
    packet is dropped;
  - ``"drop-farthest-deadline"``: the packet with the farthest deadline
    among the buffered transit packets *and* the arrival is dropped —
    the arrival may displace a buffered packet that is less urgent;
  - ``"evict-lowest-priority"``: same contest, but judged by the
    forwarding policy's own order — its
    :meth:`~repro.network.policy.Policy.key`, which
    :meth:`~repro.network.policy.Policy.eviction_key` returns and the
    default ``select`` minimises — so the buffer keeps exactly the
    packets the policy would forward first and the packet with the
    largest key loses.

* :func:`admission_victim` — the shared decision function both simulator
  backends call, so the pure-python loop and the vectorized loop cannot
  drift apart semantically.

* :class:`BoundedBuffer` — a standalone capacity-limited FIFO queue with
  the same admission policies, for solvers and tests that want the data
  structure without a simulator run.

Capacity semantics (shared with the simulators): only *transit* packets
contend for buffer space.  A node can always hold its own outgoing
traffic — source buffering is unbounded — but those source packets do
count toward the occupancy an arriving transit packet sees, and they are
never evicted on its behalf.  Every capacity drop is attributed as
``drop_reason="buffer_full"`` in ``SimulationResult.drop_events``,
joining the existing ``"deadline"``/``"fault"`` attribution.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

__all__ = [
    "ADMISSION_POLICIES",
    "DEFAULT_ADMISSION",
    "check_admission",
    "check_capacity",
    "admission_victim",
    "farthest_deadline_key",
    "BoundedBuffer",
]

#: The admission/evict policies a bounded buffer understands.
ADMISSION_POLICIES = ("drop-new", "drop-farthest-deadline", "evict-lowest-priority")

#: What the model does unless told otherwise (the historical behaviour).
DEFAULT_ADMISSION = "drop-new"


def check_admission(admission: str) -> str:
    """Validate an admission-policy name (returns it for chaining)."""
    if admission not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission policy {admission!r}; "
            f"choose one of {ADMISSION_POLICIES}"
        )
    return admission


def check_capacity(capacity: int | None) -> int | None:
    """Validate a buffer capacity (non-negative int, or ``None`` = unbounded)."""
    if capacity is None:
        return None
    if isinstance(capacity, bool) or not isinstance(capacity, int):
        raise ValueError(
            f"buffer_capacity must be a non-negative int or None, got {capacity!r}"
        )
    if capacity < 0:
        raise ValueError(f"buffer_capacity must be non-negative, got {capacity}")
    return capacity


def farthest_deadline_key(packet: Any) -> tuple[int, int]:
    """The ``"drop-farthest-deadline"`` contest key (``max`` loses its slot)."""
    return (packet.deadline, packet.id)


def admission_victim(
    buffered: Any,
    incoming: Any,
    admission: str,
    priority_key: Callable[[Any], Any] | None = None,
) -> Any:
    """Who is dropped when ``incoming`` reaches a full buffer.

    ``buffered`` is the node's current buffer contents (packets exposing
    ``crossings``, ``deadline``, ``id``); the returned packet is either
    ``incoming`` (rejected) or one buffered *transit* packet (evicted to
    make room).  Packets still sitting at their own source
    (``not p.crossings``) are never evicted — source buffering is
    unbounded in the model, so displacing queued source traffic to admit
    transit would change the regime, not just the policy.

    ``priority_key`` is required for ``"evict-lowest-priority"``: the
    forwarding policy's order
    (:meth:`repro.network.policy.Policy.eviction_key`, i.e. its ``key``),
    which it *minimises* when selecting, so the *maximum* is the packet
    the policy values least.
    """
    if admission == "drop-new":
        return incoming
    candidates = [p for p in buffered if p.crossings]
    candidates.append(incoming)
    if admission == "drop-farthest-deadline":
        return max(candidates, key=farthest_deadline_key)
    if admission == "evict-lowest-priority":
        if priority_key is None:
            raise ValueError(
                "evict-lowest-priority needs the forwarding policy's "
                "priority key (Policy.eviction_key)"
            )
        return max(candidates, key=priority_key)
    raise ValueError(
        f"unknown admission policy {admission!r}; choose one of {ADMISSION_POLICIES}"
    )


class BoundedBuffer:
    """A capacity-limited FIFO queue with pluggable admission.

    The standalone counterpart of the simulator's per-node buffers —
    what a solver or a test reaches for when it wants the capacity
    *data structure* without a network run.  Items are extracted in FIFO
    order; :meth:`offer` applies the admission contest when full and
    returns whoever lost (``None`` when the item simply fits).

    With ``key=None`` the admission contest treats every queued item as
    evictable transit judged by ``(deadline, id)``-style keys via
    ``admission_victim`` — pass ``key=`` to supply the priority order for
    ``"evict-lowest-priority"``.  Items only need ``deadline``/``id``
    attributes for ``"drop-farthest-deadline"`` (none at all for
    ``"drop-new"``).
    """

    def __init__(
        self,
        capacity: int | None = None,
        *,
        admission: str = DEFAULT_ADMISSION,
        key: Callable[[Any], Any] | None = None,
    ) -> None:
        self.capacity = check_capacity(capacity)
        self.admission = check_admission(admission)
        self.key = key
        self._items: list[Any] = []
        self.rejected = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def is_empty(self) -> bool:
        return not self._items

    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def offer(self, item: Any) -> Any:
        """Try to enqueue ``item``; return the loser of the contest.

        ``None`` means the item was admitted without displacing anyone.
        Returning ``item`` itself means it was rejected; returning a
        previously queued item means it was evicted (and ``item`` took
        its place at the FIFO tail).
        """
        if not self.is_full():
            self._items.append(item)
            return None
        if self.admission == "drop-new":
            self.rejected += 1
            return item
        if self.admission == "drop-farthest-deadline":
            loser = max([*self._items, item], key=farthest_deadline_key)
        else:  # evict-lowest-priority
            key = self.key if self.key is not None else farthest_deadline_key
            loser = max([*self._items, item], key=key)
        if loser is item:
            self.rejected += 1
            return item
        self._items.remove(loser)
        self._items.append(item)
        self.evicted += 1
        return loser

    # Snippet-style aliases: ``append``/``extract`` as in the classical
    # FIFO buffer interface.

    def append(self, item: Any) -> bool:
        """Enqueue if there is room; ``False`` when the buffer is full
        (no admission contest — the plain FIFO interface)."""
        if self.is_full():
            return False
        self._items.append(item)
        return True

    def extract(self) -> Any:
        """Pop the FIFO front (raises ``IndexError`` when empty)."""
        if not self._items:
            raise IndexError("extract from an empty BoundedBuffer")
        return self._items.pop(0)
