"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Workloads: ``offline`` (facade in process), ``serve`` (``repro serve``
in its own process, closed then open loop), ``stream`` (journaled stream
sessions over HTTP) and ``sweep`` (engine cells with the result cache).
``--trace 0`` prints every end-to-end metric of
:data:`catalog.END_TO_END`; ``--trace 1`` runs the workload untraced and
then traced, prints the per-layer table, and prints every per-layer
metric of :data:`catalog.PER_LAYER`.  ``--smoke`` shrinks inputs and
set-up for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (environment stamp, sample counts).  The exit code
is 0 only when every output checked was correct; a run that cannot
start (no ``src/repro`` in the checkout, a server that never becomes
ready) prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
import time

import harness

WORKLOADS = ("offline", "serve", "stream", "sweep")


def _terminate(signum, _frame):
    # Turn SIGTERM into SystemExit so every ``finally`` stops its servers.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    signal.signal(signal.SIGTERM, _terminate)
    harness.clear_program_settings()
    cpu = harness.pin_to_one_cpu()

    try:
        harness.require_program()
        module = importlib.import_module(f"wl_{args.workload}")
        t0 = time.perf_counter()
        steal0, total0 = harness.cpu_ticks()
        outcome = module.run(
            args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke
        )
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    steal1, total1 = harness.cpu_ticks()
    for problem in outcome.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    record = {
        **outcome.record,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "run_wall_s": time.perf_counter() - t0,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "pinned_cpu": cpu,
        "env": harness.environment(),
    }
    harness.emit(
        correct=outcome.correct,
        attempted=outcome.attempted,
        failed=outcome.failed,
        metrics=outcome.metrics,
        record=record,
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
