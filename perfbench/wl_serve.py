"""``serve``: ``repro serve --jobs 1`` in its own process, driven over HTTP.

One operation is one ``ReproClient.solve`` of a line/bufferless/bfl
request at n=32, k=200, from a seeded pool of instances.

* The untraced run is a closed loop over one connection: latency,
  throughput, and the server's CPU time per request from
  ``/proc/<pid>/stat``.
* The traced run alternates requests to an untraced and a traced server
  in a closed loop, then drives the untraced server with an open loop at
  the fixed rate :data:`OPEN_RATE` over two connections.  Each
  open-loop request is timed from its due time, so a stall also delays
  the requests behind it; how late the generator started requests is
  reported as well (``loadgen.*``).

Why: the kernel is a small share of a served request; the server, client
and wire layers do most of the work, so serving-path changes show here
and kernel changes only slightly.

Correctness: every CHECK_EVERY-th response must equal the local
``api.solve(...).to_dict()`` once the volatile ``telemetry`` and
``request`` blocks are dropped.
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

import harness
from catalog import per_layer_metrics
from harness import Checker, Outcome, Phase
from proc import ServerProcess, launcher_argv, serve_argv
from served import ClientTrace, cold_started, per_op_ms, server_spans, server_trace

#: Fixed open-loop rate, requests/s: a quarter of the closed-loop
#: capacity (150-170 requests/s on one core of a 2-vCPU x86 virtual
#: machine at the benchmark's first commit).  At half capacity the host's
#: stalls on a shared machine left backlogs that swung p95 tenfold
#: between runs.
OPEN_RATE = 40.0
OPEN_CONNECTIONS = 2
#: Share of a traced run's ``--seconds`` spent in the closed loop; the
#: rest is the open loop.
CLOSED_SHARE = 0.5
POOL = 32
CHECK_EVERY = 10
WARMUP = 40
VOLATILE = ("telemetry", "request")


def build_pool(seed: int, *, smoke: bool = False) -> list[Any]:
    from repro.workloads import general_instance

    n, k, max_release = (12, 30, 10) if smoke else (32, 200, 60)
    return [
        general_instance(
            np.random.default_rng(np.random.SeedSequence([seed, i])),
            n=n,
            k=k,
            max_release=max_release,
            max_slack=8,
        )
        for i in range(4 if smoke else POOL)
    ]


def _stable(doc: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in doc.items() if k not in VOLATILE}


def references(pool: list[Any]) -> list[dict[str, Any]]:
    from repro import api

    return [_stable(api.solve(inst, "bufferless", "bfl").to_dict()) for inst in pool]


class Loop:
    """Closed-loop client: one :meth:`step` is one solve request."""

    def __init__(self, url: str, pool: list[Any], check: Checker,
                 trace: ClientTrace | None = None) -> None:
        from repro.client import ReproClient

        self.client = ReproClient(url)
        self.pool = pool
        self.check = check
        self.trace = trace
        self.i = 0
        self.kept: list[tuple[int, Any]] = []
        self.queue_s = self.kernel_s = self.cpu_s = 0.0

    def step(self, phase: Phase) -> None:
        idx = self.i % len(self.pool)
        self.i += 1
        inst = self.pool[idx]
        try:
            c0 = time.thread_time()
            t0 = time.perf_counter()
            if self.trace is not None:
                with self.trace.active():
                    result = self.client.solve(inst, "bufferless", "bfl")
            else:
                result = self.client.solve(inst, "bufferless", "bfl")
            latency = time.perf_counter() - t0
            self.cpu_s += time.thread_time() - c0
        except Exception as exc:  # a failed request is counted, not fatal
            phase.errors += 1
            self.check.fail(f"solve {idx}: {type(exc).__name__}: {exc}")
            return
        phase.add(latency, len(inst.messages))
        self.queue_s += result.request["queue_seconds"]
        self.kernel_s += result.telemetry["seconds"]
        if self.i % CHECK_EVERY == 0:
            self.kept.append((idx, result))

    def close(self) -> None:
        self.client.close()


def verify(kept: list[tuple[int, Any]], refs: list[dict[str, Any]], check: Checker) -> None:
    for idx, result in kept:
        check.expect(
            _stable(result.to_dict()) == refs[idx],
            f"solve {idx}: served result differs from the local facade",
        )


def open_loop(
    url: str, pool: list[Any], seconds: float, check: Checker
) -> tuple[list[float], list[float], int, list[tuple[int, Any]]]:
    """Requests due at ``i / OPEN_RATE``, sent over OPEN_CONNECTIONS
    connections (connection ``j`` sends every ``j``-th request).

    Returns latencies from due time, generator lateness (start minus due
    time), the number attempted, and every CHECK_EVERY-th result.
    """
    from repro.client import ReproClient

    total = max(1, int(OPEN_RATE * seconds))
    t0 = time.perf_counter() + 0.05
    latencies: list[float] = []
    lateness: list[float] = []
    kept: list[tuple[int, Any]] = []
    lock = threading.Lock()

    def sender(j: int) -> None:
        with ReproClient(url) as client:
            for i in range(j, total, OPEN_CONNECTIONS):
                due = t0 + i / OPEN_RATE
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                try:
                    result = client.solve(pool[i % len(pool)], "bufferless", "bfl")
                except Exception as exc:  # counted, the loop goes on
                    with lock:
                        check.fail(f"open-loop solve {i}: {type(exc).__name__}: {exc}")
                    continue
                end = time.perf_counter()
                with lock:
                    latencies.append(end - due)
                    lateness.append(start - due)
                    if i % CHECK_EVERY == 0:
                        kept.append((i % len(pool), result))

    threads = [threading.Thread(target=sender, args=(j,)) for j in range(OPEN_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, lateness, total, kept


def _warm(loop: Loop) -> None:
    phase = Phase()
    for _ in range(WARMUP):
        loop.step(phase)
    loop.kept.clear()
    loop.queue_s = loop.kernel_s = loop.cpu_s = 0.0


def run(seed: int, seconds: float, *, trace: bool, smoke: bool) -> Outcome:
    harness.require_program()
    check = Checker()
    pool = build_pool(seed, smoke=smoke)
    refs = references(pool)
    harness.freeze_heap()
    record: dict[str, Any] = {
        "workload": "serve",
        "pool": len(pool),
        "messages_per_request": len(pool[0].messages),
    }
    with harness.scratch() as tmp:
        if trace:
            return _traced(seed, seconds, pool, refs, check, record, tmp)
        server, setup_s = cold_started(
            lambda _c: serve_argv("--jobs", "1"), 1 if smoke else harness.COLD_STARTS, tmp
        )
        with server:
            loop = Loop(server.url, pool, check)
            _warm(loop)
            phase = harness.closed_loop(loop.step, seconds, server.cpu_seconds)
            loop.close()
            peak_rss = server.peak_rss_mb()
    verify(loop.kept, refs, check)
    metrics = harness.end_to_end(
        phase, setup_s=setup_s, peak_rss_mb=peak_rss, record=record
    )
    return Outcome(
        metrics,
        WARMUP + phase.attempted,
        check.failed,
        record,
        check.problems,
    )


def _traced(
    seed: int,
    seconds: float,
    pool: list[Any],
    refs: list[dict[str, Any]],
    check: Checker,
    record: dict[str, Any],
    tmp: Path,
) -> Outcome:
    """Untraced and traced servers side by side; requests alternate."""
    spans_path, trace_path = tmp / "spans.json", tmp / "trace.jsonl"
    plain_srv = ServerProcess(serve_argv("--jobs", "1"), log=tmp / "plain.log")
    traced_srv = ServerProcess(
        launcher_argv(spans_path, trace_path, "--jobs", "1"), log=tmp / "traced.log"
    )
    client_trace = ClientTrace()
    with plain_srv, traced_srv:
        plain_loop = Loop(plain_srv.url, pool, check)
        loop = Loop(traced_srv.url, pool, check, trace=client_trace)
        _warm(plain_loop)
        _warm(loop)
        client_trace.rec.spans.clear()
        client_trace.ops = 0
        time.sleep(0.05)  # keep warm-up spans out of the window
        w0 = time.time()
        plain, phase = harness.paired_loop(plain_loop.step, loop.step, seconds * CLOSED_SHARE)
        w1 = time.time()
        plain_loop.close()
        loop.close()
        open_lat, lateness, open_total, open_kept = open_loop(
            plain_srv.url, pool, seconds * (1 - CLOSED_SHARE), check
        )
    verify(plain_loop.kept + loop.kept + open_kept, refs, check)
    srv = per_op_ms(server_spans(spans_path, w0, w1), phase.ops)
    requests = [
        s["dur"] for s in server_trace(trace_path, w0, w1)[0]
        if s["name"] == "server.request" and s["attrs"].get("endpoint") == "POST /v1/solve"
    ]
    check.expect(len(requests) == phase.ops, f"{len(requests)} server.request spans for {phase.ops} requests")
    cl = client_trace.per_op_ms()
    n = phase.ops
    e2e = statistics.fmean(phase.latencies) * 1e3
    request_ms = sum(requests) * 1e3 / n
    queue_ms, kernel_ms = loop.queue_s * 1e3 / n, loop.kernel_s * 1e3 / n
    encode = cl.get("client.instance_to_dict", 0.0) + cl.get("client.json_dumps", 0.0)
    decode = cl.get("client.json_loads", 0.0) + cl.get("client.from_dict", 0.0)
    transport = cl.get("client.once", 0.0) - cl.get("client.json_loads", 0.0)
    parse, solve, to_dict = (srv.get(k, 0.0) for k in ("api.parse_instance", "api.solve", "api.to_dict"))
    rows = [
        ("client.encode", encode),
        ("HTTP + loopback (transport self)", transport - request_ms),
        ("server.request self", request_ms - queue_ms - parse - solve - to_dict),
        ("server.queue_wait", queue_ms),
        ("api.parse_instance (server)", parse),
        ("server.solve (kernel)", kernel_ms),
        ("api.facade_overhead (server)", solve - kernel_ms),
        ("api.to_dict (server)", to_dict),
        ("client.decode", decode),
    ]
    text, total, share = harness.layer_table("serve", e2e, rows)
    print(text)
    overhead = harness.trace_overhead(plain, phase)
    print(f"  tracing overhead: {overhead:+.1%} (traced vs untraced mean request time)")
    measured = {
        "obs.trace_overhead": overhead,
        "trace.e2e_ms": e2e,
        "trace.layers_ms": total,
        "trace.unattributed_share": share,
        "api.parse_instance.ms": parse,
        "api.to_dict.ms": to_dict,
        "api.facade_overhead.ms": solve - kernel_ms,
        "client.encode.ms": encode,
        "client.decode.ms": decode,
        "client.transport.ms": transport,
        "client.cpu_ms_per_op": plain_loop.cpu_s * 1e3 / plain.ops,
        **harness.loadgen_tails(plain, open_lat),
        "loadgen.late_p95_ms": harness.percentile(lateness, 95) * 1e3,
        "server.queue_wait.ms": queue_ms,
        "server.solve.ms": kernel_ms,
        "server.residual.ms": e2e - queue_ms - kernel_ms - encode - decode,
        "server.request.ms": request_ms,
        "wire.request_bytes": client_trace.mean_bytes("client.json_dumps"),
        "wire.response_bytes": client_trace.mean_bytes("client.json_loads"),
    }
    record.update(
        samples={"traced": n, "untraced": plain.ops, "open": len(open_lat)},
        open_rate_per_s=OPEN_RATE,
        open_connections=OPEN_CONNECTIONS,
    )
    return Outcome(
        per_layer_metrics(measured),
        2 * WARMUP + plain.attempted + phase.attempted + open_total,
        check.failed,
        record,
        check.problems,
    )
