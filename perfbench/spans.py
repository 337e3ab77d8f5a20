"""In-memory span recorder shared by the benchmark and its server launcher.

A span is one call into a layer: its name, the name of the enclosing
recorded span on the same thread (its parent), its wall-clock start, its
duration and a few attributes.  Spans stay in memory and are written out
once, at the end, so recording costs two clock reads and one list append.

The recorder instruments the program from outside: :meth:`Recorder.wrap`
returns a timing wrapper for a public function and :func:`patched` swaps
it in at the call site (a module global or a class attribute) for the
duration of a ``with`` block.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Iterator

__all__ = ["Recorder", "patched"]


class Recorder:
    """Collects spans; one instance per measured phase or process."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        # Wall-clock anchor so span starts compare across processes the
        # same way ``repro.obs`` converts its perf-counter readings.
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wall(self, perf: float) -> float:
        return self._wall0 + (perf - self._perf0)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` recording one span ``name`` per call.

        ``attrs(*args, **kwargs)`` (optional) is evaluated before the call
        and stored on the span, e.g. the size of the argument.
        """

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            extra = attrs(*args, **kwargs) if attrs is not None else None
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.record(name, t0, dur, extra, parent=parent)

        return timed

    def record(
        self,
        name: str,
        t0: float,
        dur: float,
        attrs: dict[str, Any] | None = None,
        *,
        parent: str | None = None,
    ) -> None:
        """Append one span that started at perf-counter time ``t0``."""
        self.spans.append(
            {
                "name": name,
                "parent": parent,
                "start": self.wall(t0),
                "dur": dur,
                "attrs": attrs or {},
            }
        )


@contextlib.contextmanager
def patched(owner: Any, attr: str, value: Any) -> Iterator[None]:
    """Set ``owner.attr = value`` for the block, then restore it exactly.

    The raw ``__dict__`` entry is saved, so classmethods and attributes
    found on a class (not on ``owner`` itself) come back unchanged.
    """
    namespace = vars(owner)
    had = attr in namespace
    old = namespace.get(attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)
