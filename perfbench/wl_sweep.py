"""``sweep``: E2-style experiment cells through the engine and the cache.

One operation is one cell run through ``Engine(jobs=1).map``: generate a
seeded general instance at one of ``e2_bfl_ratio.SIZES``, then take
``cached_bfl`` and ``cached_opt_bufferless`` of it (BFL against the
exact ``OPT_BL``).  The loop cycles through CYCLE distinct cells and
empties the in-memory result cache at the start of every pass, so every
cell misses, and the cache, and with it the peak RSS, holds at most one
pass whatever the host's speed; the traced run then repeats its cells
warm, which is where the cache hit metrics come from.  Why: this is the only workload where the exact solver and the
engine (task hand-off, result cache) do most of the work, with no HTTP.

Correctness: every cell's ratio BFL/OPT_BL must be at least 1/2
(Theorem 3.2), for every CHECK_EVERY-th cell of the first pass both
numbers must equal uncached independent solvers (the reference BFL and
the branch-and-bound exact solver), and every later pass must repeat the
first pass's numbers.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import numpy as np

import harness
from catalog import per_layer_metrics
from harness import Checker, Outcome, Phase

#: Fixed open-loop rate, cells/s, for Lindley's recursion over the
#: measured service times: about half the closed-loop capacity on one
#: core of a 2-vCPU x86 virtual machine at the benchmark's first commit.
OPEN_RATE = 45.0
CHECK_EVERY = 16
WARM_CELLS = 200
#: Distinct cells per pass; the cache is emptied between passes.
CYCLE = 512


def _instance(seed: int, index: int, n: int, k: int):
    from repro.workloads import general_instance

    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return general_instance(rng, n=n, k=k, max_release=8, max_slack=5, max_span=n - 1)


def cell(seed: int, index: int, n: int, k: int) -> tuple[int, int]:
    """One E2 cell: ``(BFL throughput, OPT_BL throughput)``."""
    from repro.engine import cached_bfl, cached_opt_bufferless

    inst = _instance(seed, index, n, k)
    return cached_bfl(inst).throughput, cached_opt_bufferless(inst).throughput


def traced_cell(seed: int, index: int, n: int, k: int) -> tuple[int, int, float, float, float]:
    """:func:`cell` with a stopwatch around each layer it calls.

    Returns the two throughputs plus the seconds spent in the BFL
    kernel, in the exact solver, and in the whole cell.
    """
    from repro.engine import cached_bfl, cached_opt_bufferless

    t0 = time.perf_counter()
    inst = _instance(seed, index, n, k)
    t1 = time.perf_counter()
    approx = cached_bfl(inst).throughput
    t2 = time.perf_counter()
    exact = cached_opt_bufferless(inst).throughput
    t3 = time.perf_counter()
    return approx, exact, t2 - t1, t3 - t2, t3 - t0


class Loop:
    """Runs cells ``offset, offset + stride, ...`` of the seeded sweep,
    one per step, CYCLE of them per pass; sizes cycle through ``sizes``
    in step order.  Every pass starts with an empty result cache."""

    def __init__(
        self,
        seed: int,
        sizes: tuple[tuple[int, int], ...],
        check: Checker,
        *,
        traced: bool = False,
        offset: int = 0,
        stride: int = 1,
    ) -> None:
        from repro.engine import Engine

        self.engine = Engine(jobs=1)
        self.seed = seed
        self.sizes = sizes
        self.check = check
        self.traced = traced
        self.offset = offset
        self.stride = stride
        self.steps = 0
        # first pass: (index, n, k, bfl, opt)
        self.done: list[tuple[int, int, int, int, int]] = []
        self.misses = 0
        self.bfl_s = self.opt_s = self.cell_s = 0.0

    def step(self, phase: Phase) -> None:
        from repro.engine import default_cache

        slot = self.steps % CYCLE
        if slot == 0:
            default_cache().clear()
        i = self.offset + self.stride * slot
        n, k = self.sizes[slot % len(self.sizes)]
        first_pass = self.steps < CYCLE
        self.steps += 1
        fn = traced_cell if self.traced else cell
        try:
            t0 = time.perf_counter()
            (out,), stats = self.engine.map(fn, [(self.seed, i, n, k)])
            latency = time.perf_counter() - t0
        except Exception as exc:  # an operation that fails is counted, not fatal
            phase.errors += 1
            self.check.fail(f"cell {i} n={n} k={k}: {type(exc).__name__}: {exc}")
            return
        phase.add(latency, k)
        self.misses += stats.misses
        approx, exact = out[0], out[1]
        if self.traced:
            self.bfl_s += out[2]
            self.opt_s += out[3]
            self.cell_s += out[4]
        self.check.expect(
            exact == 0 or 2 * approx >= exact,
            f"cell {i} n={n} k={k}: BFL {approx} < OPT_BL {exact} / 2 (Thm 3.2)",
        )
        if first_pass:
            self.done.append((i, n, k, approx, exact))
        else:
            self.check.expect(
                self.done[slot][3:] == (approx, exact),
                f"cell {i} n={n} k={k}: (BFL, OPT_BL) = {(approx, exact)}, "
                f"first pass {self.done[slot][3:]}",
            )


def reference_pair(inst: Any) -> tuple[int, int]:
    """(BFL, OPT_BL) throughput from uncached independent solvers."""
    from repro.core.bfl import bfl
    from repro.exact.bufferless import opt_bufferless_bnb

    return bfl(inst).throughput, opt_bufferless_bnb(inst).throughput


def _check_references(
    seed: int, done: list[tuple[int, int, int, int, int]], check: Checker
) -> None:
    for i, n, k, approx, exact in done[::CHECK_EVERY]:
        ref = reference_pair(_instance(seed, i, n, k))
        check.expect(
            (approx, exact) == ref,
            f"cell {i} n={n} k={k}: (BFL, OPT_BL) = {(approx, exact)}, reference {ref}",
        )


def _warm_pass(loop: Loop) -> tuple[int, int, float]:
    """Run the first traced cells in one map call to fill the cache, then
    time a second, warm map call over them."""
    cells = [(loop.seed, i, n, k) for i, n, k, _a, _e in loop.done[:WARM_CELLS]]
    loop.engine.map(cell, cells)
    t0 = time.perf_counter()
    _results, stats = loop.engine.map(cell, cells)
    return stats.hits, stats.misses, len(cells) / (time.perf_counter() - t0)


def run(seed: int, seconds: float, *, trace: bool, smoke: bool) -> Outcome:
    harness.require_program()
    from repro.engine import configure
    from repro.experiments.e2_bfl_ratio import SIZES

    sizes = SIZES[:2] if smoke else SIZES
    check = Checker()
    setup_s = (0.0, 0.0) if trace else harness.median_setup(
        harness.cold_start_solve, 1 if smoke else harness.COLD_STARTS
    )
    # Warm-up on cells the phase never runs (far indices), then a cold cache.
    warm = Loop(seed, sizes, check, offset=1 << 40)
    warm_phase = Phase()
    for _ in range(2 * len(sizes)):
        warm.step(warm_phase)
    configure(enabled=True)
    harness.freeze_heap()
    record: dict[str, Any] = {
        "workload": "sweep",
        "sizes": [list(s) for s in sizes],
    }
    if not trace:
        loop = Loop(seed, sizes, check)
        phase = harness.closed_loop(loop.step, seconds, harness.self_cpu_seconds)
        _check_references(seed, loop.done, check)
        metrics = harness.end_to_end(
            phase,
            setup_s=setup_s,
            peak_rss_mb=harness.self_peak_rss_mb(),
            record=record,
        )
        return Outcome(
            metrics,
            warm_phase.attempted + phase.attempted,
            check.failed,
            record,
            check.problems,
        )

    plain_loop = Loop(seed, sizes, check, offset=0, stride=2)
    loop = Loop(seed, sizes, check, traced=True, offset=1, stride=2)
    plain, phase = harness.paired_loop(plain_loop.step, loop.step, seconds)
    _check_references(seed, plain_loop.done + loop.done, check)
    hits, warm_misses, warm_rate = _warm_pass(loop)
    check.expect(warm_misses == 0, f"warm pass missed the cache {warm_misses} times")
    n = phase.ops
    e2e_ms = statistics.fmean(phase.latencies) * 1e3
    bfl_ms, opt_ms, cell_ms = (x * 1e3 / n for x in (loop.bfl_s, loop.opt_s, loop.cell_s))
    rows = [
        ("instance generation", cell_ms - bfl_ms - opt_ms),
        ("core.bfl (cached_bfl)", bfl_ms),
        ("exact.opt_bufferless (cached)", opt_ms),
        ("engine.map_overhead", e2e_ms - cell_ms),
    ]
    text, total, share = harness.layer_table("sweep", e2e_ms, rows)
    print(text)
    overhead = harness.trace_overhead(plain, phase)
    print(f"  tracing overhead: {overhead:+.1%} (traced vs untraced mean operation time)")
    print(
        f"  cache: {loop.misses} misses cold, {hits} hits warm "
        f"({warm_rate:.0f} warm cells/s)"
    )
    measured = {
        **harness.loadgen_tails(plain, harness.open_loop_latencies(plain.latencies, OPEN_RATE)),
        "obs.trace_overhead": overhead,
        "trace.e2e_ms": e2e_ms,
        "trace.layers_ms": total,
        "trace.unattributed_share": share,
        "engine.map_overhead.ms": e2e_ms - cell_ms,
        "cache.hits": float(hits),
        "cache.misses": float(loop.misses),
        "cache.hit_ratio": hits / (hits + warm_misses) if hits + warm_misses else 0.0,
        "cache.warm_cells_per_s": warm_rate,
        "exact.opt_bufferless.ms": opt_ms,
        "core.bfl.ms": bfl_ms,
    }
    record.update(samples={"traced": n, "untraced": plain.ops}, open_rate_per_s=OPEN_RATE)
    return Outcome(
        per_layer_metrics(measured),
        warm_phase.attempted + plain.attempted + phase.attempted,
        check.failed,
        record,
        check.problems,
    )
