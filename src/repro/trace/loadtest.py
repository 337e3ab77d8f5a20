"""Serving load-test harness: replay a workload trace at a target rate.

:func:`run_loadtest` drives a live :mod:`repro.server` with a recorded
trace and measures what the serving tier actually sustains — requests
per second, per-request latency percentiles, and how much work the
server *shed* (HTTP 429 :class:`~repro.errors.ServerOverloaded`
backpressure, HTTP 504 :class:`~repro.errors.DeadlineExceeded` deadline
misses).  Two modes, matching the two serving surfaces:

* ``mode="stream"`` — one online stream session; the trace is fed in
  release-ordered batches, each feed is one timed request, and the final
  close returns the decision log (so the loadtest doubles as a served
  replay-determinism check);
* ``mode="solve"`` — the trace is cut into windows, each submitted as an
  offline ``/v1/solve`` request through the queue — the mode that
  exercises admission control: pair it with ``deadline_ms=`` and a tight
  ``rate`` to watch 429/504 shedding behave.

Pacing: ``rate`` is *messages per second*; before sending the batch
containing message ``m`` the harness sleeps until ``m / rate`` seconds
into the run (open-loop pacing — a slow server does not slow the offered
load, it sheds).  ``rate=None`` feeds as fast as the server answers
(closed-loop, the throughput probe).
"""

from __future__ import annotations

import time
from typing import Any

from ..errors import DeadlineExceeded, ServerOverloaded
from .replay import _as_trace, _batches, _window_document

__all__ = ["run_loadtest", "latency_summary"]

MODES = ("stream", "solve")


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


def latency_summary(seconds: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample, in milliseconds."""
    ordered = sorted(seconds)
    scale = 1e3
    return {
        "p50_ms": _percentile(ordered, 50) * scale,
        "p95_ms": _percentile(ordered, 95) * scale,
        "p99_ms": _percentile(ordered, 99) * scale,
        "mean_ms": (sum(ordered) / len(ordered)) * scale if ordered else 0.0,
        "max_ms": (ordered[-1] if ordered else 0.0) * scale,
    }


def run_loadtest(
    source: Any,
    url: str | None = None,
    *,
    client: Any = None,
    mode: str = "stream",
    rate: float | None = None,
    policy: str = "bfl",
    batch_size: int = 64,
    window: int = 256,
    regime: str = "bufferless",
    method: str = "bfl",
    deadline_ms: float | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Replay ``source`` (trace/reader/path) against a live server.

    Pass ``url`` (a fresh zero-retry client is built, so every 429/504 is
    *counted* rather than silently retried) or an existing ``client``.
    Returns the report dict described in the module docstring; in stream
    mode it includes the closing result's throughput and decision count,
    so callers can additionally assert replay determinism.
    """
    if mode not in MODES:
        raise ValueError(f"unknown loadtest mode {mode!r}; choose one of {MODES}")
    if rate is not None and rate <= 0:
        raise ValueError(f"rate must be positive (messages/second), got {rate}")
    if (url is None) == (client is None):
        raise ValueError("pass exactly one of url= or client=")
    trace = _as_trace(source)
    owns_client = client is None
    if owns_client:
        from ..client import ReproClient

        # retries=0: a shed must surface as the typed error so it lands
        # in the shed counts, not vanish into a client-side retry loop.
        client = ReproClient(url, retries=0, tenant=tenant)
    try:
        if mode == "stream":
            report = _stream_loadtest(
                trace, client, rate=rate, policy=policy, batch_size=batch_size
            )
        else:
            report = _solve_loadtest(
                trace,
                client,
                rate=rate,
                window=window,
                regime=regime,
                method=method,
                deadline_ms=deadline_ms,
            )
    finally:
        if owns_client:
            client.close()
    report["workload"] = trace.provenance()
    report["topology"] = trace.topology
    report["mode"] = mode
    report["rate_target"] = rate
    return report


def _pace(t0: float, sent: int, rate: float | None) -> None:
    """Open-loop pacing: sleep until message ``sent`` is due."""
    if rate is None:
        return
    due = t0 + sent / rate
    now = time.monotonic()
    if due > now:
        time.sleep(due - now)


def _stream_loadtest(
    trace: Any,
    client: Any,
    *,
    rate: float | None,
    policy: str,
    batch_size: int,
) -> dict[str, Any]:
    latencies: list[float] = []
    shed_429 = shed_504 = 0
    fed = requests = 0
    stream = client.open_stream(
        n=trace.n,
        topology=trace.topology,
        policy=policy,
        workload=trace.provenance(),
    )
    t0 = time.monotonic()
    try:
        for batch in _batches(iter(trace.records), batch_size):
            _pace(t0, fed, rate)
            start = time.monotonic()
            try:
                stream.feed([r.to_dict() for r in batch])
            except ServerOverloaded:
                shed_429 += 1
            except DeadlineExceeded:
                shed_504 += 1
            else:
                fed += len(batch)
                latencies.append(time.monotonic() - start)
            requests += 1
        start = time.monotonic()
        result = stream.close()
        latencies.append(time.monotonic() - start)
        requests += 1
    except BaseException:
        if not stream.closed:
            import contextlib

            with contextlib.suppress(Exception):
                stream.abandon()
        raise
    elapsed = time.monotonic() - t0
    return {
        "messages": len(trace.records),
        "fed": fed,
        "requests": requests,
        "seconds": elapsed,
        "rate_achieved": fed / elapsed if elapsed > 0 else 0.0,
        "latency": latency_summary(latencies),
        "shed": {"429": shed_429, "504": shed_504},
        "throughput": result.throughput,
        "decisions": len(result.decisions),
        "policy": policy,
    }


def _solve_loadtest(
    trace: Any,
    client: Any,
    *,
    rate: float | None,
    window: int,
    regime: str,
    method: str,
    deadline_ms: float | None,
) -> dict[str, Any]:
    from ..api import parse_instance

    latencies: list[float] = []
    shed_429 = shed_504 = 0
    sent = requests = delivered = solved = 0
    t0 = time.monotonic()
    for batch in _batches(iter(trace.records), window):
        _pace(t0, sent, rate)
        instance = parse_instance(_window_document(trace.topology, trace.n, batch))
        start = time.monotonic()
        try:
            result = client.solve(
                instance,
                regime,
                method,
                deadline_ms=deadline_ms,
                workload=trace.provenance(),
            )
        except ServerOverloaded:
            shed_429 += 1
        except DeadlineExceeded:
            shed_504 += 1
        else:
            latencies.append(time.monotonic() - start)
            delivered += result.delivered
            solved += 1
        sent += len(batch)
        requests += 1
    elapsed = time.monotonic() - t0
    return {
        "messages": sent,
        "requests": requests,
        "solved": solved,
        "seconds": elapsed,
        "rate_achieved": sent / elapsed if elapsed > 0 else 0.0,
        "latency": latency_summary(latencies),
        "shed": {"429": shed_429, "504": shed_504},
        "delivered": delivered,
        "regime": regime,
        "method": method,
        "window": window,
    }
