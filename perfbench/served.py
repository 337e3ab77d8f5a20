"""Pieces shared by the two served workloads (``serve`` and ``stream``).

* :func:`cold_started` spawns the server several times, times each spawn
  to its ready line (``setup_s`` is the median) and keeps the last one
  running for the measurement;
* :class:`ClientTrace` records the client's layers (encode, transport,
  decode) by wrapping ``repro.client``'s calls for the duration of one
  traced operation;
* :func:`server_spans` and :func:`server_trace` read back what a traced
  server wrote at shutdown: the launcher's spans and the server's own
  ``--trace`` JSONL export.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

from harness import BenchmarkError, normalized_start
from proc import ServerProcess
from spans import Recorder, patched


def cold_started(
    argv_for: Callable[[int], list[str]], count: int, tmp: Path
) -> tuple[ServerProcess, tuple[float, float]]:
    """Spawn ``count`` servers one after another; all but the last are
    stopped.  Returns the running one and the ``(normalized, raw)``
    median spawn-to-ready time (:func:`harness.normalized_start`)."""
    times = []
    server = None

    def spawn(c: int) -> float:
        nonlocal server
        server = ServerProcess(argv_for(c), log=tmp / f"server-{c}.log").start()
        return server.ready_s

    for c in range(count):
        if server is not None:
            server.stop()
        times.append(normalized_start(lambda: spawn(c)))
    if server is None:
        raise BenchmarkError("no server started")
    return server, (
        statistics.median(n for n, _r in times),
        statistics.median(r for _n, r in times),
    )


class ClientTrace:
    """Client-side spans for the operations run inside :meth:`active`."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.ops = 0

    def _json(self) -> types.SimpleNamespace:
        rec = self.rec

        def dumps(obj: Any, *args: Any, **kwargs: Any) -> str:
            t0 = time.perf_counter()
            out = json.dumps(obj, *args, **kwargs)
            rec.record("client.json_dumps", t0, time.perf_counter() - t0, {"bytes": len(out)})
            return out

        def loads(raw: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            out = json.loads(raw, *args, **kwargs)
            rec.record("client.json_loads", t0, time.perf_counter() - t0, {"bytes": len(raw)})
            return out

        return types.SimpleNamespace(dumps=dumps, loads=loads)

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """Wrap the client's layer boundaries for one operation."""
        import repro.client as rc
        from repro.api import ScheduleResult
        from repro.online.stream import Decision
        from repro.topology.line import Line

        def classmethod_span(cls: type, attr: str, name: str):
            func = vars(cls)[attr].__func__
            return patched(cls, attr, classmethod(self.rec.wrap(func, name)))

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(rc, "json", self._json()))
            stack.enter_context(
                patched(Line, "instance_to_dict",
                        self.rec.wrap(Line.instance_to_dict, "client.instance_to_dict"))
            )
            stack.enter_context(
                patched(rc.ReproClient, "_once", self.rec.wrap(rc.ReproClient._once, "client.once"))
            )
            stack.enter_context(classmethod_span(ScheduleResult, "from_dict", "client.from_dict"))
            stack.enter_context(classmethod_span(Decision, "from_dict", "client.from_dict"))
            yield
        self.ops += 1

    def per_op_ms(self) -> dict[str, float]:
        """Mean milliseconds per operation spent in each client span."""
        return per_op_ms(self.rec.spans, self.ops)

    def mean_bytes(self, name: str) -> float:
        sizes = [s["attrs"]["bytes"] for s in self.rec.spans if s["name"] == name]
        return statistics.fmean(sizes) if sizes else 0.0


def per_op_ms(spans: list[dict[str, Any]], ops: int) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["dur"]
    return {name: total * 1e3 / ops for name, total in totals.items()} if ops else {}


def server_spans(path: Path, start: float, end: float) -> list[dict[str, Any]]:
    """Launcher spans that started inside the wall-clock window."""
    try:
        spans = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"traced server wrote no spans: {exc}") from exc
    return [s for s in spans if start <= s["start"] <= end]


def server_trace(path: Path, start: float, end: float) -> tuple[list[dict[str, Any]], dict[str, float]]:
    """The server's own ``--trace`` export: spans in the window, counters."""
    spans, counters = [], {}
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise BenchmarkError(f"traced server wrote no trace: {exc}") from exc
    for line in lines:
        item = json.loads(line)
        if item.get("type") == "span" and start <= item["start"] <= end:
            spans.append(item)
        elif item.get("type") == "counter":
            counters[item["name"]] = item["value"]
    return spans, counters
