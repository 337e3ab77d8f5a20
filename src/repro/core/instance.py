"""Problem instances: sets of time-constrained messages on one linear network.

An :class:`Instance` bundles the network size ``n`` with its messages.  The
paper observes that with full-duplex links and dual-ported nodes, the
left-to-right and right-to-left traffic never contend, so
:meth:`Instance.split_directions` decomposes an instance into two
one-directional sub-instances whose optimal schedules simply superpose.

The messages have two forms.  :attr:`Instance.table` is a
:class:`MessageTable`: five int columns (id, source, dest, release,
deadline) in message order, which is all the scan-line kernel, ``len()``
and :meth:`Instance.as_arrays` read.  ``Instance.messages`` is the tuple of
:class:`~repro.core.message.Message` objects the readable algorithms walk.
An instance built from objects derives its table on first use;
:meth:`Instance.from_table` (the wire parser's constructor) validates the
columns in bulk and builds the objects only when ``messages`` is first
read.  A table that fails a bulk check is re-validated message by message,
so the caller gets the same ``ValueError`` as for the object-built
instance.

Instances are immutable; all transformations return new objects.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .message import Direction, Message

__all__ = ["Instance", "MessageTable", "make_instance"]


class MessageTable(NamedTuple):
    """An instance's messages as five int columns, in message order."""

    id: tuple[int, ...]
    source: tuple[int, ...]
    dest: tuple[int, ...]
    release: tuple[int, ...]
    deadline: tuple[int, ...]

    @classmethod
    def of(cls, messages: Sequence[Message]) -> "MessageTable":
        if not messages:
            return cls((), (), (), (), ())
        return cls(
            *zip(*[(m.id, m.source, m.dest, m.release, m.deadline) for m in messages])
        )

    def to_messages(self) -> tuple[Message, ...]:
        """The rows as :class:`Message` objects (each runs its validator)."""
        return tuple(map(Message, *self))

    def valid_on_line(self, n: int) -> bool:
        """Whether every row passes :class:`Message`'s and a line
        :class:`Instance`'s checks on ``n`` nodes: unique ids, endpoints
        in ``0..n-1`` and distinct, ``0 <= release <= deadline``."""
        ids, src, dst, rel, dl = self
        if not ids:
            return True
        return (
            len(set(ids)) == len(ids)
            and 0 <= min(src)
            and max(src) < n
            and 0 <= min(dst)
            and max(dst) < n
            and 0 <= min(rel)
            and not any(map(operator.eq, src, dst))
            and not any(map(operator.lt, dl, rel))
        )


class BuiltFromTable:
    """A field of a table-built value object, built by ``build(obj)`` from
    ``obj.<key>`` (``_table`` unless given) on first read
    (``Instance.messages``, ``RingInstance.messages``, and the
    ``trajectories`` of ``Schedule`` and ``RingSchedule`` from segments).

    A non-data descriptor: attribute lookup tries the instance dict first,
    so once the field is stored there (by ``__init__``, or by the first
    read here) this is never called again.  A ``__getattr__`` hook would do
    the same, but would slow every attribute read of every instance.
    """

    def __init__(self, build: Callable[[Any], tuple], key: str = "_table") -> None:
        self.build = build
        self.key = key

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return ()  # the dataclass field's default
        if self.key not in obj.__dict__:
            raise AttributeError(self.name)
        value = self.build(obj)
        obj.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class Instance:
    """An immutable set of messages to schedule on an ``n``-node line.

    Parameters
    ----------
    n:
        Number of nodes; nodes are ``0..n-1``.
    messages:
        The messages.  Ids must be unique; endpoints must lie inside the
        network.  Messages with negative slack are permitted (they model
        traffic that must be dropped) unless ``require_feasible`` was set by
        the constructor helper.
    topology:
        Name of the registered :class:`~repro.topology.Topology` the
        instance lives on.  Defaults to ``"line"`` (the paper's model);
        the dedicated ``RingInstance``/``MeshInstance`` classes carry
        ``"ring"``/``"mesh"`` instead.  Kept out of
        :meth:`canonical_form` for the default so existing cache keys,
        pickles and JSON documents are unchanged.
    buffer_capacity:
        Max packets buffered per intermediate node; ``None`` (the
        default — the paper's setting) means unbounded.  A first-class
        model dimension: simulators enforce it, ``validate`` checks
        schedules against it, and serializers/wire formats carry it.
        Like ``topology``, the default stays out of
        :meth:`canonical_form`, so unbounded instances keep their
        historic cache keys, pickles and JSON documents byte for byte.
    """

    n: int
    messages: tuple[Message, ...] = BuiltFromTable(  # type: ignore[assignment]
        lambda inst: inst._table.to_messages()
    )
    topology: str = "line"
    buffer_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a linear network needs at least 2 nodes, got n={self.n}")
        from ..buffers import check_capacity

        check_capacity(self.buffer_capacity)
        seen: set[int] = set()
        for m in self.messages:
            if m.id in seen:
                raise ValueError(f"duplicate message id {m.id}")
            seen.add(m.id)
        if self.topology == "line":
            for m in self.messages:
                if not (0 <= m.source < self.n and 0 <= m.dest < self.n):
                    raise ValueError(
                        f"message {m.id}: endpoints ({m.source}, {m.dest}) "
                        f"outside 0..{self.n - 1}"
                    )
        else:
            from .. import topology as topology_pkg

            topology_pkg.get_topology(self.topology).validate_instance(self)

    # ------------------------------------------------------------------ #
    # The message table (columns first, objects on demand)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_table(
        cls, n: int, table: MessageTable, *, buffer_capacity: int | None = None
    ) -> "Instance":
        """A line instance over ``table``'s int columns.

        The columns are validated in bulk; ``messages`` is built the first
        time it is read.  A table that fails a bulk check goes through the
        object-built constructor instead, which raises the same
        ``ValueError`` it would for those messages.
        """
        capacity_ok = buffer_capacity is None or (
            type(buffer_capacity) is int and buffer_capacity >= 0
        )
        if not (n >= 2 and capacity_ok and table.valid_on_line(n)):
            return cls(n, table.to_messages(), buffer_capacity=buffer_capacity)
        inst = object.__new__(cls)
        state = inst.__dict__
        state["n"] = n
        state["topology"] = "line"
        state["buffer_capacity"] = buffer_capacity
        state["_table"] = table
        return inst

    @property
    def table(self) -> MessageTable:
        """The messages as int columns (derived once for object-built
        instances)."""
        table = self.__dict__.get("_table")
        if table is None:
            table = MessageTable.of(self.messages)
            object.__setattr__(self, "_table", table)
        return table

    def __getstate__(self) -> dict[str, Any]:
        # The table is derived from the messages once they exist; pickle
        # one form only, so object-built instances pickle as they always did.
        state = self.__dict__
        if "messages" in state and "_table" in state:
            state = {k: v for k, v in state.items() if k != "_table"}
        return state

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        messages = self.__dict__.get("messages")
        return len(messages) if messages is not None else len(self.table.id)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __getitem__(self, message_id: int) -> Message:
        """Look up a message by *id* (not positional index)."""
        try:
            return self._by_id[message_id]
        except KeyError:
            raise KeyError(f"no message with id {message_id}") from None

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._by_id

    @property
    def _by_id(self) -> dict[int, Message]:
        # Cached lazily on the (frozen) instance; object.__setattr__ is the
        # sanctioned escape hatch for frozen-dataclass memoisation.
        cache = self.__dict__.get("_by_id_cache")
        if cache is None:
            cache = {m.id: m for m in self.messages}
            object.__setattr__(self, "_by_id_cache", cache)
        return cache

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(m.id for m in self.messages)

    # ------------------------------------------------------------------ #
    # Aggregate statistics (paper, Section 4.2)
    # ------------------------------------------------------------------ #

    @property
    def max_slack(self) -> int:
        """``σ(I) = max_m slack`` (0 for an empty instance)."""
        return max((m.slack for m in self.messages), default=0)

    @property
    def max_span(self) -> int:
        """``δ(I) = max_m span`` (0 for an empty instance)."""
        return max((m.span for m in self.messages), default=0)

    @property
    def lam(self) -> int:
        """``Λ(I) = min(σ(I), δ(I), |I|)`` — the paper's separation parameter."""
        return min(self.max_slack, self.max_span, len(self.messages))

    @property
    def horizon(self) -> int:
        """One past the largest deadline: all activity happens in ``[0, horizon)``."""
        return max((m.deadline for m in self.messages), default=0) + 1

    @property
    def uniform_slack(self) -> bool:
        """Whether every message has the same slack (Theorem 4.1's premise)."""
        slacks = {m.slack for m in self.messages}
        return len(slacks) <= 1

    @property
    def uniform_span(self) -> bool:
        """Whether every message has the same span (Theorem 4.2's premise)."""
        spans = {m.span for m in self.messages}
        return len(spans) <= 1

    @property
    def static(self) -> bool:
        """Whether every message is released at time zero (Theorem 4.3's premise)."""
        return all(m.release == 0 for m in self.messages)

    # ------------------------------------------------------------------ #
    # Direction handling
    # ------------------------------------------------------------------ #

    @property
    def all_left_to_right(self) -> bool:
        return all(m.direction == Direction.LEFT_TO_RIGHT for m in self.messages)

    def split_directions(self) -> tuple["Instance", "Instance"]:
        """Split into the (LR, RL) sub-instances.

        Full-duplex links make the two directions independent; optimal
        schedules for the halves superpose into an optimal schedule for the
        whole (paper, Section 1.1).
        """
        lr = tuple(m for m in self.messages if m.direction == Direction.LEFT_TO_RIGHT)
        rl = tuple(m for m in self.messages if m.direction == Direction.RIGHT_TO_LEFT)
        return (
            Instance(self.n, lr, self.topology, self.buffer_capacity),
            Instance(self.n, rl, self.topology, self.buffer_capacity),
        )

    def mirrored(self) -> "Instance":
        """Reflect every message across the network's centre (RL <-> LR)."""
        return Instance(
            self.n,
            tuple(m.mirrored(self.n) for m in self.messages),
            self.topology,
            self.buffer_capacity,
        )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def restrict(self, ids: Iterable[int]) -> "Instance":
        """Keep only the messages whose id is in ``ids``."""
        keep = set(ids)
        return Instance(
            self.n,
            tuple(m for m in self.messages if m.id in keep),
            self.topology,
            self.buffer_capacity,
        )

    def filter(self, predicate: Callable[[Message], bool]) -> "Instance":
        """Keep only the messages satisfying ``predicate``."""
        return Instance(
            self.n,
            tuple(m for m in self.messages if predicate(m)),
            self.topology,
            self.buffer_capacity,
        )

    def drop_infeasible(self) -> "Instance":
        """Remove messages with negative slack (never deliverable)."""
        return self.filter(lambda m: m.feasible)

    def clipped_slack(self, max_slack: int | None = None) -> "Instance":
        """Clip every slack to ``max_slack`` (default ``|I| - 1``).

        Throughput-preserving preprocessing used by Algorithm BFL's
        polynomial-time bound (paper, Theorem 3.2): at most ``|I|`` messages
        can ever be scheduled, so at most ``|I|`` distinct scan lines per
        message matter.
        """
        if max_slack is None:
            max_slack = max(len(self.messages) - 1, 0)
        return Instance(
            self.n,
            tuple(m.clipped_slack(max_slack) for m in self.messages),
            self.topology,
            self.buffer_capacity,
        )

    def translated(self, dnode: int = 0, dtime: int = 0, *, n: int | None = None) -> "Instance":
        """Shift all messages; optionally re-home onto an ``n``-node network."""
        return Instance(
            n if n is not None else self.n,
            tuple(m.translated(dnode, dtime) for m in self.messages),
            self.topology,
            self.buffer_capacity,
        )

    def with_buffer_capacity(self, capacity: int | None) -> "Instance":
        """Same messages, on nodes that buffer at most ``capacity`` packets.

        ``None`` restores the paper's unbounded setting.
        """
        return Instance(self.n, self.messages, self.topology, capacity)

    def merged_with(self, other: "Instance", *, n: int | None = None) -> "Instance":
        """Disjoint union, renumbering ``other``'s ids after ours."""
        base = max(self.ids, default=-1) + 1
        renumbered = tuple(m.with_id(base + i) for i, m in enumerate(other.messages))
        return Instance(
            n if n is not None else max(self.n, other.n),
            self.messages + renumbered,
            self.topology,
            self.buffer_capacity,
        )

    # ------------------------------------------------------------------ #
    # Content addressing (memoization keys for the sweep engine)
    # ------------------------------------------------------------------ #

    def canonical_form(self) -> tuple:
        """Order-independent value representation of the instance.

        Two instances whose message *sets* coincide (ids included) have
        equal canonical forms regardless of tuple order, so a cache keyed
        on the form never conflates distinct workloads and never misses a
        genuine repeat.  The topology tag joins the form only when it is
        not the default ``"line"``, and the buffer capacity only when it
        is not the default ``None`` (as a tagged ``("buffer_capacity",
        cap)`` pair), keeping historic cache keys stable.
        """
        form = (
            self.n,
            tuple(
                (m.id, m.source, m.dest, m.release, m.deadline)
                for m in sorted(self.messages, key=lambda m: m.id)
            ),
        )
        if self.topology != "line":
            form += (self.topology,)
        if self.buffer_capacity is not None:
            form += (("buffer_capacity", self.buffer_capacity),)
        return form

    @property
    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of :meth:`canonical_form`.

        This is the instance half of the sweep engine's cache key
        (``repro.engine.cache``); it is cached on the frozen instance the
        same way ``_by_id`` is.
        """
        cached = self.__dict__.get("_content_hash_cache")
        if cached is None:
            n, rows, *rest = self.canonical_form()
            payload = f"n={n};" + ";".join(",".join(map(str, row)) for row in rows)
            for extra in rest:
                if isinstance(extra, str):
                    payload += f";topology={extra}"
                else:  # tagged (name, value) pair, e.g. ("buffer_capacity", 2)
                    payload += f";{extra[0]}={extra[1]}"
            cached = hashlib.sha256(payload.encode("ascii")).hexdigest()
            object.__setattr__(self, "_content_hash_cache", cached)
        return cached

    # ------------------------------------------------------------------ #
    # Array views (vectorised consumers: exact solvers, generators)
    # ------------------------------------------------------------------ #

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Columnar view of the instance as int64 arrays.

        Returns a dict with keys ``id, source, dest, release, deadline,
        span, slack`` — the representation the vectorised solvers and
        statistics code consume (no per-message Python attribute access in
        hot loops).
        """
        table = self.table
        if not table.id:
            empty = np.empty(0, dtype=np.int64)
            return {
                k: empty.copy()
                for k in ("id", "source", "dest", "release", "deadline", "span", "slack")
            }
        arr = np.array(table, dtype=np.int64)
        out = dict(zip(MessageTable._fields, arr))
        out["span"] = np.abs(out["dest"] - out["source"])
        out["slack"] = out["deadline"] - out["release"] - out["span"]
        return out


def make_instance(
    n: int,
    rows: Sequence[tuple[int, int, int, int]],
    *,
    require_feasible: bool = False,
) -> Instance:
    """Build an :class:`Instance` from ``(source, dest, release, deadline)`` rows.

    Ids are assigned positionally.  With ``require_feasible=True`` a message
    whose deadline cannot be met even in isolation raises ``ValueError``.
    """
    messages = tuple(
        Message(id=i, source=s, dest=d, release=r, deadline=dl)
        for i, (s, d, r, dl) in enumerate(rows)
    )
    if require_feasible:
        for m in messages:
            if not m.feasible:
                raise ValueError(f"message {m.id} has negative slack {m.slack}")
    return Instance(n, messages)
