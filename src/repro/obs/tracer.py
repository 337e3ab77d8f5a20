"""The span tracer: hierarchical timings, counters, gauges, events.

One :class:`Tracer` collects four kinds of telemetry:

* **spans** — named, attributed time intervals forming a tree (each span
  records the id of the span that was open on the same thread when it
  started).  Opened either as context managers (:meth:`Tracer.span`) or
  recorded after the fact by code that timed itself (:meth:`record_span`,
  the pattern the hot kernels use so their instrumentation stays a single
  ``enabled`` check);
* **counters** — monotonically accumulated floats (:meth:`count`), the
  unit for node counts, cache hits, segments scanned;
* **gauges** — last-write-wins values (:meth:`gauge`);
* **events** — timestamped point records with attributes (:meth:`event`).

Overhead discipline
-------------------
A disabled tracer must cost nothing measurable.  Every public method's
first statement is an ``enabled`` check; :meth:`span` returns a shared
:data:`NULL_SPAN` singleton (no allocation), and the hot layers aggregate
locally and emit **once per solver/simulator call**, never per inner-loop
iteration.  ``tests/test_obs.py::TestDisabledPathBudget`` pins this: a
kernel + simulator run makes the same number of obs calls at every
message count, so the disabled path costs a fixed handful of
``enabled`` checks per call.

Concurrency
-----------
Span stacks are thread-local (concurrent threads nest independently);
record lists and counter maps are guarded by one lock.  Sweep-engine
worker *processes* each see a fresh tracer; the engine ships per-task
counter deltas back and merges them into the parent via
:meth:`merge_counts` — worker-side spans are intentionally dropped (their
clocks are not comparable across processes).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any

__all__ = ["Span", "NullSpan", "NULL_SPAN", "SpanRecord", "Tracer"]


class NullSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance (:data:`NULL_SPAN`) is returned by every
    ``span()`` call on a disabled tracer, so the disabled path allocates
    nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class SpanRecord:
    """One finished span: name, interval, tree position, attributes."""

    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "pid")

    def __init__(
        self,
        id: int,
        parent: int | None,
        name: str,
        start: float,
        end: float,
        attrs: dict[str, Any],
        pid: int,
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs
        self.pid = pid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span:
    """An open span; close it by exiting the ``with`` block."""

    __slots__ = ("_tracer", "id", "parent", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.id = tracer._next_id()
        self.parent: int | None = None
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach or update attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        self._tracer._append(
            SpanRecord(
                self.id, self.parent, self.name, self._start, end, self.attrs, os.getpid()
            )
        )
        return False


class _Timer:
    """Context manager accumulating ``<name>.seconds`` / ``<name>.calls``."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._start
        self._tracer.count(f"{self._name}.seconds", elapsed)
        self._tracer.count(f"{self._name}.calls", 1)
        return False


class Tracer:
    """Collects spans, counters, gauges and events for one process.

    ``enabled`` is the master switch: when False (the default for the
    process-wide tracer unless ``REPRO_OBS`` is set) every method returns
    immediately and :meth:`span` hands back the shared :data:`NULL_SPAN`.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.events: list[dict[str, Any]] = []
        # Anchor for converting perf_counter offsets to wall-clock times.
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()

    # ------------------------------------------------------------------ #
    # internal plumbing

    def _next_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def wall_time(self, perf: float) -> float:
        """Convert a ``perf_counter`` reading to wall-clock seconds."""
        return self._anchor_wall + (perf - self._anchor_perf)

    # ------------------------------------------------------------------ #
    # recording

    def span(self, name: str, **attrs: Any) -> Span | NullSpan:
        """Open a span as a context manager (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def record_span(
        self, name: str, start: float, end: float | None = None, **attrs: Any
    ) -> None:
        """Record an already-timed interval (``perf_counter`` readings).

        The pattern for hot code: take ``start`` only when enabled, run the
        untouched kernel, then hand both timestamps here — one branch on
        entry, one call on exit, zero overhead in between.
        """
        if not self.enabled:
            return
        if end is None:
            end = time.perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else None
        self._append(
            SpanRecord(self._next_id(), parent, name, start, end, attrs, os.getpid())
        )

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def event(self, name: str, **attrs: Any) -> None:
        """Record a timestamped point event."""
        if not self.enabled:
            return
        record = {"name": name, "time": time.perf_counter(), "attrs": attrs}
        with self._lock:
            self.events.append(record)

    def timer(self, name: str) -> _Timer | NullSpan:
        """Accumulating timer: adds to ``<name>.seconds`` and ``<name>.calls``."""
        if not self.enabled:
            return NULL_SPAN
        return _Timer(self, name)

    # ------------------------------------------------------------------ #
    # cross-process counter merging (the engine-worker contract)

    def counters_snapshot(self) -> dict[str, float]:
        """A copy of the current counter map (for later :meth:`counters_since`)."""
        with self._lock:
            return dict(self.counters)

    def counters_since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Counter deltas accumulated after ``snapshot`` was taken."""
        with self._lock:
            current = dict(self.counters)
        out: dict[str, float] = {}
        for name, value in current.items():
            delta = value - snapshot.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def merge_counts(self, deltas: dict[str, float] | None) -> None:
        """Fold counter deltas from another tracer (e.g. a pool worker) in."""
        if not deltas or not self.enabled:
            return
        with self._lock:
            for name, value in deltas.items():
                self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop everything collected so far (the enabled flag is kept)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.gauges.clear()
            self.events.clear()
            self._anchor_wall = time.time()
            self._anchor_perf = time.perf_counter()
