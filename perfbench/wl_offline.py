"""``offline``: the facade path in one process, no HTTP.

One operation is one facade request on a JSON instance document:
``api.parse_instance`` -> ``api.solve`` -> ``ScheduleResult.to_dict`` ->
``json.dumps``.  The corpus holds seeded documents for each solver cell
named in :data:`catalog.SOLVE_CELLS`, interleaved so every cycle visits
every cell.  Why: the kernels plus parsing and serializing do all the
work here, so a kernel or parser change shows, and a change to the
served path must show no change.

Correctness: every operation's delivered count must equal a reference
computed from the in-memory instance by an independent route (the
reference BFL, D-BFL = BFL(I), the branch-and-bound exact solver, the
numpy backend twin, the implementation-layer ``ca``/online calls), and
the first pass plus a sample of timed results go through
``validate_schedule``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import harness
from catalog import SOLVE_CELLS, per_layer_metrics
from harness import Checker, Outcome, Phase

#: Fixed open-loop rate, ops/s, for Lindley's recursion over the
#: measured service times: about half the closed-loop capacity on one
#: core of a 2-vCPU x86 virtual machine at the benchmark's first commit.
OPEN_RATE = 35.0
DOCS_PER_CELL = 12
#: Every VALIDATE_EVERY-th timed result is kept and validated afterwards.
VALIDATE_EVERY = 25


@dataclass
class Doc:
    cell: str
    text: str
    regime: str
    method: str
    opts: dict[str, Any]
    instance: Any
    messages: int
    expected: int = -1


#: Per-cell instance sizes, chosen so every cell's operation costs about
#: the same (10-16 ms on one core of a 2-vCPU x86 virtual machine): one
#: broad latency cluster keeps the median from jumping between cells
#: from seed to seed.
#: ``(n, k, max_release, max_slack)``; the bufferless BFL cell is the
#: n=64, k=1000 instance the kernel work is quoted at.
SIZES = {
    "line-bufferless-bfl": (64, 1000, 200, 10),
    "line-buffered-bfl": (32, 140, 45, 8),
    "line-buffered-ca": (64, 1300, 260, 10),
    "line-buffered-greedy": (32, 150, 45, 8),
    "ring-bufferless-bfl": (32, 270, 85, 8),
    "line-online-greedy": (32, 120, 40, 8),
    "line-bufferless-exact": (12, 10, 8, 5),
}
SMOKE_SIZES = {cell: (8, 12, 6, 4) for cell in SIZES}


def build_corpus(seed: int, *, smoke: bool = False) -> list[Doc]:
    from repro.topology import topology_of
    from repro.workloads import general_instance, random_ring_instance

    sizes = SMOKE_SIZES if smoke else SIZES
    docs: list[Doc] = []
    for d in range(1 if smoke else DOCS_PER_CELL):
        rng = np.random.default_rng(np.random.SeedSequence([seed, d]))
        for cell in SOLVE_CELLS:
            topo, regime, method = cell.split("-")
            n, k, max_release, max_slack = sizes[cell]
            if topo == "ring":
                inst = random_ring_instance(
                    rng, n=n, k=k, max_release=max_release, max_slack=max_slack
                )
            else:
                inst = general_instance(
                    rng, n=n, k=k, max_release=max_release, max_slack=max_slack
                )
            if cell in ("line-buffered-ca", "line-buffered-greedy"):
                inst = inst.with_buffer_capacity(2)
            opts = {"baseline": "bfl"} if regime == "online" else {}
            text = json.dumps(topology_of(inst).instance_to_dict(inst))
            docs.append(Doc(cell, text, regime, method, opts, inst, len(inst.messages)))
    return docs


def reference_delivered(doc: Doc) -> int:
    """Delivered count from a route independent of the measured one."""
    from repro import api
    from repro.approx import ca_schedule
    from repro.core.bfl import bfl
    from repro.exact.bufferless import opt_bufferless_bnb
    from repro.online import run_online

    inst = doc.instance
    if doc.cell in ("line-bufferless-bfl", "line-buffered-bfl"):
        # D-BFL delivers exactly BFL(I) (the paper's Section 5 result).
        return bfl(inst).throughput
    if doc.cell == "line-buffered-ca":
        return ca_schedule(inst).throughput
    if doc.cell == "line-buffered-greedy":
        return api.solve(inst, "buffered", "greedy", backend="numpy").delivered
    if doc.cell == "line-online-greedy":
        return run_online(inst, "greedy").throughput
    if doc.cell == "line-bufferless-exact":
        return opt_bufferless_bnb(inst).throughput
    # ring-bufferless-bfl: the facade on the in-memory instance, so the
    # check covers the JSON round trip of the ring document.
    return api.solve(inst, doc.regime, doc.method, **doc.opts).delivered


def check_delivered(doc: Doc, result: Any, check: Checker) -> None:
    check.expect(
        result.delivered == doc.expected,
        f"{doc.cell}: delivered {result.delivered}, reference {doc.expected}",
    )


def validate(doc: Doc, result: Any, check: Checker) -> None:
    from repro.core.validate import schedule_problems

    problems = schedule_problems(
        doc.instance,
        result.schedule,
        require_bufferless=doc.regime == "bufferless",
    )
    check.expect(not problems, f"{doc.cell}: invalid schedule: {problems[:3]}")


class Loop:
    """Cycles the corpus; one :meth:`step` is one facade request."""

    def __init__(self, docs: list[Doc], check: Checker, *, traced: bool = False) -> None:
        from repro import api

        self.api = api
        self.docs = docs
        self.check = check
        self.traced = traced
        self.i = 0
        self.kept: list[tuple[Doc, Any]] = []
        # traced: per-stage seconds summed over the phase
        self.stages = {k: 0.0 for k in ("parse", "solve", "kernel", "to_dict", "encode")}
        self.kernel_by_cell: dict[str, list[float]] = {c: [] for c in SOLVE_CELLS}

    def step(self, phase: Phase) -> None:
        doc = self.docs[self.i % len(self.docs)]
        self.i += 1
        api = self.api
        try:
            if self.traced:
                t0 = time.perf_counter()
                inst = api.parse_instance(doc.text)
                t1 = time.perf_counter()
                result = api.solve(inst, doc.regime, doc.method, **doc.opts)
                t2 = time.perf_counter()
                data = result.to_dict()
                t3 = time.perf_counter()
                json.dumps(data)
                t4 = time.perf_counter()
                latency = t4 - t0
                kernel = result.telemetry["seconds"]
                st = self.stages
                st["parse"] += t1 - t0
                st["solve"] += t2 - t1
                st["kernel"] += kernel
                st["to_dict"] += t3 - t2
                st["encode"] += t4 - t3
                self.kernel_by_cell[doc.cell].append(kernel)
            else:
                t0 = time.perf_counter()
                result = api.solve(api.parse_instance(doc.text), doc.regime, doc.method, **doc.opts)
                json.dumps(result.to_dict())
                latency = time.perf_counter() - t0
        except Exception as exc:  # an operation that fails is counted, not fatal
            phase.errors += 1
            self.check.fail(f"{doc.cell}: {type(exc).__name__}: {exc}")
            return
        phase.add(latency, doc.messages)
        check_delivered(doc, result, self.check)
        if self.i % VALIDATE_EVERY == 0:
            self.kept.append((doc, result))


def _prepare(seed: int, smoke: bool, check: Checker) -> list[Doc]:
    """Build the corpus, its references, and warm up: one untimed pass
    with every schedule validated."""
    from repro import api

    docs = build_corpus(seed, smoke=smoke)
    for doc in docs:
        doc.expected = reference_delivered(doc)
        result = api.solve(api.parse_instance(doc.text), doc.regime, doc.method, **doc.opts)
        check_delivered(doc, result, check)
        validate(doc, result, check)
    harness.freeze_heap()
    return docs


def _validate_kept(loop: Loop, check: Checker) -> None:
    for doc, result in loop.kept:
        validate(doc, result, check)


def _numpy_over_python(docs: list[Doc], repeats: int) -> float:
    """python wall / numpy wall for the capacity-2 greedy cell."""
    from repro import api

    doc = next(d for d in docs if d.cell == "line-buffered-greedy")
    times: dict[str, list[float]] = {"python": [], "numpy": []}
    for _ in range(repeats):
        for backend in ("python", "numpy"):
            t0 = time.perf_counter()
            api.solve(doc.instance, "buffered", "greedy", backend=backend)
            times[backend].append(time.perf_counter() - t0)
    return statistics.median(times["python"]) / statistics.median(times["numpy"])


def run(seed: int, seconds: float, *, trace: bool, smoke: bool) -> Outcome:
    harness.require_program()
    check = Checker()
    setup_s = (0.0, 0.0) if trace else harness.median_setup(
        harness.cold_start_solve, 1 if smoke else harness.COLD_STARTS
    )
    docs = _prepare(seed, smoke, check)
    record: dict[str, Any] = {
        "workload": "offline",
        "corpus_docs": len(docs),
        "corpus_messages": sum(d.messages for d in docs),
    }
    if not trace:
        loop = Loop(docs, check)
        phase = harness.closed_loop(loop.step, seconds, harness.self_cpu_seconds)
        _validate_kept(loop, check)
        metrics = harness.end_to_end(
            phase,
            setup_s=setup_s,
            peak_rss_mb=harness.self_peak_rss_mb(),
            record=record,
        )
        return Outcome(
            metrics, len(docs) + phase.attempted, check.failed, record, check.problems
        )

    plain_loop, loop = Loop(docs, check), Loop(docs, check, traced=True)
    plain, phase = harness.paired_loop(plain_loop.step, loop.step, seconds)
    _validate_kept(plain_loop, check)
    _validate_kept(loop, check)
    n = phase.ops
    st = {k: v * 1e3 / n for k, v in loop.stages.items()}
    e2e_ms = statistics.fmean(phase.latencies) * 1e3
    rows = [
        ("api.parse_instance", st["parse"]),
        ("solver kernels (telemetry)", st["kernel"]),
        ("api.facade_overhead", st["solve"] - st["kernel"]),
        ("api.to_dict", st["to_dict"]),
        ("api.json_encode", st["encode"]),
    ]
    text, total, share = harness.layer_table("offline", e2e_ms, rows)
    print(text)
    overhead = harness.trace_overhead(plain, phase)
    print(f"  tracing overhead: {overhead:+.1%} (traced vs untraced mean operation time)")
    measured = {
        **harness.loadgen_tails(plain, harness.open_loop_latencies(plain.latencies, OPEN_RATE)),
        "obs.trace_overhead": overhead,
        "trace.e2e_ms": e2e_ms,
        "trace.layers_ms": total,
        "trace.unattributed_share": share,
        "api.parse_instance.ms": st["parse"],
        "api.to_dict.ms": st["to_dict"],
        "api.json_encode.ms": st["encode"],
        "api.facade_overhead.ms": st["solve"] - st["kernel"],
        "network.bounded.numpy_over_python": _numpy_over_python(docs, 3 if smoke else 7),
    }
    for cell, kernels in loop.kernel_by_cell.items():
        if kernels:
            measured[f"solve.{cell}.ms"] = statistics.fmean(kernels) * 1e3
    record.update(samples={"traced": n, "untraced": plain.ops}, open_rate_per_s=OPEN_RATE)
    return Outcome(
        per_layer_metrics(measured),
        len(docs) + plain.attempted + phase.attempted,
        check.failed,
        record,
        check.problems,
    )
