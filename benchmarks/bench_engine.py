"""Engine benchmark — kernel speedup and cached sweep throughput.

Asserts the two claims the engine layer makes: the scan-line kernel
(``bfl_fast``) beats the readable reference ``bfl``, and a warm
content-addressed result cache replays an E2-style sweep (BFL vs exact
``OPT_BL``) faster than the uncached serial path with the reference
kernel.  The sweep's cells (n=16, k=24 and n=24, k=40) are sized so that
the exact MILP, not process start-up, is what the serial pass pays for;
the cold pass fills the on-disk cache from a 2-worker pool, and the warm
pass replays it in one process, as the serial pass runs.
``perfbench/run.py --workload sweep`` measures the same path end to end.
"""

import time
import timeit

import numpy as np
from conftest import single_round

from repro.core.bfl import bfl
from repro.core.bfl_fast import bfl_fast
from repro.engine import cache as cache_mod
from repro.engine.cache import cached_bfl, cached_opt_bufferless
from repro.engine.pool import run_tasks, spawn_seeds
from repro.exact import opt_bufferless
from repro.workloads import general_instance


def _kernel_speedups(sizes, repeats=2):
    cases = []
    for n, k in sizes:
        inst = general_instance(
            np.random.default_rng(9), n=n, k=k, max_release=n, max_slack=12
        )
        assert bfl(inst).delivery_lines() == bfl_fast(inst).delivery_lines()
        ref_s = min(timeit.repeat(lambda: bfl(inst), number=1, repeat=repeats))
        fast_s = min(timeit.repeat(lambda: bfl_fast(inst), number=1, repeat=repeats))
        cases.append((n, k, ref_s, fast_s))
    return cases


def test_kernel_speedup(benchmark):
    cases = single_round(
        benchmark, lambda: _kernel_speedups(((32, 200), (64, 1000)))
    )
    for n, k, ref_s, fast_s in cases:
        print(
            f"kernel n={n} k={k}: {ref_s * 1e3:.2f} ms -> "
            f"{fast_s * 1e3:.2f} ms ({ref_s / fast_s:.1f}x)"
        )
    # the big case must show a clear win; tiny cases may sit near parity
    _, _, ref_s, fast_s = cases[-1]
    assert ref_s / fast_s > 1.5


def _instance(seed_seq, n, k):
    rng = np.random.default_rng(seed_seq)
    return general_instance(rng, n=n, k=k, max_release=8, max_slack=5, max_span=n - 1)


def _serial_cell(seed_seq, n, k):
    """Reference kernel, uncached MILP."""
    inst = _instance(seed_seq, n, k)
    exact = opt_bufferless(inst).throughput
    return bfl(inst).throughput / exact if exact else 1.0


def _cached_cell(seed_seq, n, k):
    """Scan-line kernel and MILP, both through the result cache."""
    inst = _instance(seed_seq, n, k)
    exact = cached_opt_bufferless(inst).throughput
    return cached_bfl(inst).throughput / exact if exact else 1.0


def _timed_pass(fn, tasks, jobs):
    t0 = time.perf_counter()
    results, stats = run_tasks(fn, tasks, jobs=jobs)
    return results, stats, time.perf_counter() - t0


def _sweep(cache_dir, trials=4, jobs=2, sizes=((16, 24), (24, 40))):
    seeds = spawn_seeds(2024, len(sizes) * trials)
    tasks = [
        (seeds[si * trials + t], n, k)
        for si, (n, k) in enumerate(sizes)
        for t in range(trials)
    ]
    previous = cache_mod._default
    try:
        cache_mod.configure(enabled=False)
        serial, _, serial_s = _timed_pass(_serial_cell, tasks, 1)
        # cold over one on-disk cache shared by the workers, then warm in
        # this process: a replay is two cache reads per cell, far cheaper
        # than starting the worker pool, so only a serial warm pass
        # compares like with like against the serial path
        cache_mod.configure(directory=cache_dir, enabled=True)
        cold, _, cold_s = _timed_pass(_cached_cell, tasks, jobs)
        warm, warm_stats, warm_s = _timed_pass(_cached_cell, tasks, 1)
    finally:
        cache_mod._default = previous
    assert serial == cold == warm, "cached sweep diverged from the serial path"
    return len(tasks), serial_s, cold_s, warm_s, warm_stats


def test_sweep_engine_throughput(benchmark, tmp_path):
    cells, serial_s, cold_s, warm_s, warm_stats = single_round(
        benchmark, lambda: _sweep(tmp_path)
    )
    print(
        f"sweep {cells} cells: serial {serial_s:.2f}s, cold {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s ({serial_s / warm_s:.2f}x, {warm_stats.hits} hits)"
    )
    # warm cache must replay the sweep strictly faster than the serial path
    assert warm_stats.hits == 2 * cells
    assert warm_s < serial_s
