"""``stream``: journaled online stream sessions on ``repro serve``.

The server runs in its own process with ``--journal DIR``.  Each session
is fed one seeded ``bursty`` shape trace (n=32) in release-ordered
batches of about BATCH arrivals, then closed and deleted; sessions run
one at a time and cycle through the policies ``bfl``, ``greedy``,
``greedy``.  ``greedy`` is the simulator-backed path; its feeds cost
several times a ``bfl`` feed, and with a 1:1 mix the median would sit in
the gap between the two policies' latencies, where it jumps from seed to
seed; at 1:2 it sits inside the ``greedy`` feeds.  One operation is one
``ClientStream.feed``.

Why: every feed re-runs the policy over the whole prefix fed so far, and
every feed is fsynced to the journal first, so late feeds cost several
times early ones.  ``late_feed_p50_ms`` is the median over the last
quarter of each stream's feeds, kept apart from the early ones.  Making
sessions incremental must move this workload and leave ``serve``
unchanged.

Correctness: every close result's decision log must equal a local
``run_online`` of the same trace and policy.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

import harness
from catalog import per_layer_metrics
from harness import Checker, Outcome, Phase
from proc import ServerProcess, launcher_argv, serve_argv
from served import ClientTrace, cold_started, per_op_ms, server_spans, server_trace

#: Fixed open-loop rate, feeds/s, for Lindley's recursion over the
#: measured feed latencies: under half the closed-loop capacity on one
#: core of a 2-vCPU x86 virtual machine at the benchmark's first
#: commit, because late feeds cost over twice the average.
OPEN_RATE = 25.0
POLICIES = ("bfl", "greedy", "greedy")
#: Distinct traces per run; coprime with len(POLICIES), so every trace
#: meets every policy slot.
TRACES = 17
N, MESSAGES, BATCH = 32, 360, 20
SMOKE = (12, 60, 10)
WARMUP_SESSIONS = 2
FEED_ENDPOINT = "POST /v1/streams/{sid}/arrivals"


def build_traces(seed: int, *, smoke: bool = False) -> list[tuple[Any, list[list[dict]]]]:
    """``TRACES`` seeded bursty traces, each with its feed batches."""
    from repro.trace.shapes import shape_trace

    n, messages, batch = SMOKE if smoke else (N, MESSAGES, BATCH)
    out = []
    for j in range(TRACES):
        shape_seed = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
        trace = shape_trace("bursty", shape_seed, n=n, messages=messages)
        batches: list[list[dict]] = []
        current: list[Any] = []
        for rec in trace.records:
            # Never split one release instant across two feeds.
            if len(current) >= batch and rec.release != current[-1].release:
                batches.append([r.to_dict() for r in current])
                current = []
            current.append(rec)
        if current:
            batches.append([r.to_dict() for r in current])
        out.append((trace, batches))
    return out


class Loop:
    """One :meth:`step` is one whole session; each feed is an operation."""

    def __init__(self, url: str, traces: list, check: Checker,
                 trace: ClientTrace | None = None) -> None:
        from repro.client import ReproClient

        self.client = ReproClient(url)
        self.traces = traces
        self.check = check
        self.trace = trace
        self.sessions = 0
        self.kept: list[tuple[int, str, Any]] = []

    def step(self, phase: Phase) -> None:
        s = self.sessions
        self.sessions += 1
        j, policy = s % len(self.traces), POLICIES[s % len(POLICIES)]
        batches = self.traces[j][1]
        try:
            stream = self.client.open_stream(n=self.traces[j][0].n, policy=policy)
            with stream:
                for b, rows in enumerate(batches):
                    t0 = time.perf_counter()
                    if self.trace is not None:
                        with self.trace.active():
                            stream.feed(rows)
                    else:
                        stream.feed(rows)
                    latency = time.perf_counter() - t0
                    phase.add(latency, len(rows), late=4 * b >= 3 * len(batches))
                result = stream.close()
        except Exception as exc:  # a failed session is counted, not fatal
            phase.errors += 1
            self.check.fail(f"session {s} ({policy}): {type(exc).__name__}: {exc}")
            return
        self.kept.append((j, policy, result))

    def close(self) -> None:
        self.client.close()


def reference_log(trace: Any, policy: str) -> list[dict[str, Any]]:
    """The decision log a local ``run_online`` produces for the trace."""
    from repro.online import run_online

    return [d.to_dict() for d in run_online(trace.to_instance(), policy).decisions]


def verify(traces: list, kept: list[tuple[int, str, Any]], check: Checker) -> None:
    refs: dict[tuple[int, str], list[dict[str, Any]]] = {}
    for j, policy, result in kept:
        if (j, policy) not in refs:
            refs[j, policy] = reference_log(traces[j][0], policy)
        check.expect(
            [d.to_dict() for d in result.decisions] == refs[j, policy],
            f"trace {j} ({policy}): served decision log differs from local run_online",
        )


def _journal_argv(tmp: Path, name: str) -> tuple[str, ...]:
    return ("--jobs", "1", "--journal", str(tmp / name))


def _warm(loop: Loop) -> None:
    phase = Phase()
    for _ in range(WARMUP_SESSIONS):
        loop.step(phase)
    loop.sessions = 0
    loop.kept.clear()


def run(seed: int, seconds: float, *, trace: bool, smoke: bool) -> Outcome:
    harness.require_program()
    check = Checker()
    traces = build_traces(seed, smoke=smoke)
    harness.freeze_heap()
    record: dict[str, Any] = {
        "workload": "stream",
        "traces": len(traces),
        "messages_per_stream": len(traces[0][0].records),
        "feeds_per_stream": [len(b) for _t, b in traces],
    }
    with harness.scratch() as tmp:
        if trace:
            return _traced(traces, seconds, check, record, tmp)
        server, setup_s = cold_started(
            lambda c: serve_argv(*_journal_argv(tmp, f"journal-{c}")),
            1 if smoke else harness.COLD_STARTS,
            tmp,
        )
        with server:
            loop = Loop(server.url, traces, check)
            _warm(loop)
            phase = harness.closed_loop(loop.step, seconds, server.cpu_seconds)
            loop.close()
            peak_rss = server.peak_rss_mb()
    verify(traces, loop.kept, check)
    metrics = harness.end_to_end(
        phase,
        setup_s=setup_s,
        peak_rss_mb=peak_rss,
        record=record,
    )
    record.update(late_samples=sum(phase.late), sessions=loop.sessions)
    return Outcome(
        metrics,
        phase.attempted,
        check.failed,
        record,
        check.problems,
    )


def _replays_by_quarter(spans: list[dict[str, Any]]) -> dict[int, list[int]]:
    """Messages replayed per feed, grouped by the feed's stream quarter.

    A replay belongs to the feed whose span contains its start; a
    feed's quarter is its batch index over the stream's feed count.
    """
    feeds = sorted((s for s in spans if s["name"] == "session.feed"), key=lambda s: s["start"])
    starts = [f["start"] for f in feeds]
    replayed = [0] * len(feeds)
    for s in spans:
        if s["name"] == "online.run_online" and s["parent"] == "session.feed":
            k = bisect.bisect_right(starts, s["start"]) - 1
            if k >= 0:
                replayed[k] += s["attrs"]["messages"]
    per_stream: dict[str, int] = defaultdict(int)
    for f in feeds:
        per_stream[f["attrs"]["sid"]] += 1
    quarters: dict[int, list[int]] = {q: [] for q in (1, 2, 3, 4)}
    for f, count in zip(feeds, replayed):
        total = per_stream[f["attrs"]["sid"]]
        quarters[min(4, 4 * f["attrs"]["batch"] // total + 1)].append(count)
    return quarters


def _traced(traces: list, seconds: float, check: Checker, record: dict[str, Any],
            tmp: Path) -> Outcome:
    """Untraced and traced servers side by side; sessions alternate."""
    spans_path, trace_path = tmp / "spans.json", tmp / "trace.jsonl"
    plain_srv = ServerProcess(serve_argv(*_journal_argv(tmp, "j-plain")), log=tmp / "plain.log")
    traced_srv = ServerProcess(
        launcher_argv(spans_path, trace_path, *_journal_argv(tmp, "j-traced")),
        log=tmp / "traced.log",
    )
    client_trace = ClientTrace()
    with plain_srv, traced_srv:
        plain_loop = Loop(plain_srv.url, traces, check)
        loop = Loop(traced_srv.url, traces, check, trace=client_trace)
        _warm(plain_loop)
        _warm(loop)
        client_trace.rec.spans.clear()
        client_trace.ops = 0
        time.sleep(0.05)  # keep warm-up spans out of the window
        w0 = time.time()
        plain, phase = harness.paired_loop(plain_loop.step, loop.step, seconds)
        w1 = time.time()
        plain_loop.close()
        loop.close()
    verify(traces, plain_loop.kept + loop.kept, check)
    all_spans = server_spans(spans_path, 0.0, float("inf"))
    window = [s for s in all_spans if w0 <= s["start"] <= w1]
    srv = per_op_ms(window, phase.ops)
    req_spans, counters = server_trace(trace_path, w0, w1)
    requests = [s["dur"] for s in req_spans
                if s["name"] == "server.request" and s["attrs"].get("endpoint") == FEED_ENDPOINT]
    check.expect(len(requests) == phase.ops,
                 f"{len(requests)} feed spans on the server for {phase.ops} feeds")
    n = phase.ops
    cl = client_trace.per_op_ms()
    e2e = statistics.fmean(phase.latencies) * 1e3
    request_ms = sum(requests) * 1e3 / n
    feed_replays = [s for s in window
                    if s["name"] == "online.run_online" and s["parent"] == "session.feed"]
    replay_ms = sum(s["dur"] for s in feed_replays) * 1e3 / n
    feed_ms, journal_ms = srv.get("session.feed", 0.0), srv.get("journal.append_feed", 0.0)
    encode = cl.get("client.json_dumps", 0.0)
    decode = cl.get("client.json_loads", 0.0) + cl.get("client.from_dict", 0.0)
    transport = cl.get("client.once", 0.0) - cl.get("client.json_loads", 0.0)
    rows = [
        ("client.encode", encode),
        ("HTTP + loopback (transport self)", transport - request_ms),
        ("server.request self", request_ms - feed_ms),
        ("session.feed self", feed_ms - journal_ms - replay_ms),
        ("journal.append_feed (fsync)", journal_ms),
        ("online.run_online (replay)", replay_ms),
        ("client.decode", decode),
    ]
    text, total, share = harness.layer_table("stream", e2e, rows)
    print(text)
    overhead = harness.trace_overhead(plain, phase)
    print(f"  tracing overhead: {overhead:+.1%} (traced vs untraced mean feed time)")
    quarters = _replays_by_quarter(window)
    print("  messages replayed per feed, by stream quarter: " + ", ".join(
        f"q{q} {statistics.fmean(v):.0f}" for q, v in quarters.items() if v))
    lifetime_feeds = sum(1 for s in all_spans if s["name"] == "session.feed")
    measured = {
        **harness.loadgen_tails(plain, harness.open_loop_latencies(plain.latencies, OPEN_RATE)),
        "obs.trace_overhead": overhead,
        "trace.e2e_ms": e2e,
        "trace.layers_ms": total,
        "trace.unattributed_share": share,
        "client.encode.ms": encode,
        "client.decode.ms": decode,
        "client.transport.ms": transport,
        "server.request.ms": request_ms,
        "wire.request_bytes": client_trace.mean_bytes("client.json_dumps"),
        "wire.response_bytes": client_trace.mean_bytes("client.json_loads"),
        "online.run_online.ms_per_feed": replay_ms,
        "online.runs_per_feed": counters.get("online.runs", 0.0) / max(1, lifetime_feeds),
        "online.messages_replayed_per_feed": sum(s["attrs"]["messages"] for s in feed_replays) / n,
        "journal.append_feed.ms": journal_ms,
    }
    for q, values in quarters.items():
        if values:
            measured[f"online.messages_replayed_per_feed.q{q}"] = statistics.fmean(values)
    record.update(
        samples={"traced": n, "untraced": plain.ops}, sessions=loop.sessions, open_rate_per_s=OPEN_RATE
    )
    return Outcome(
        per_layer_metrics(measured),
        plain.attempted + phase.attempted,
        check.failed,
        record,
        check.problems,
    )
