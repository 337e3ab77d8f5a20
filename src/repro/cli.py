"""Command-line entry point: ``repro <command>``.

Commands:

* ``repro list`` — available experiments with one-line descriptions;
* ``repro run e2 [e7 ...]`` — run experiments, print their tables;
* ``repro run all`` — everything (E8 involves MILPs; expect ~a minute);
* ``repro run e2 --jobs 4`` — fan experiment sweeps out over worker
  processes (identical tables at any job count; ``--jobs 0`` = all cores);
* ``repro run e2 --trace t.jsonl`` — capture a structured observability
  trace (spans, counters, run manifest) of the run;
* ``repro run e12 --jobs 4 --task-timeout 300 --retries 2 --checkpoint
  c.jsonl`` — armor a long sweep: hung-cell timeouts, retry with backoff,
  worker-crash respawn, and resume from the checkpoint journal on re-run;
* ``repro obs report t.jsonl`` — summarize a trace: per-phase timings,
  solver node counts, cache hit rates;
* ``repro trace generate|info|replay`` — workload traces
  (:mod:`repro.trace`): generate a traffic shape to JSONL (streamed, any
  size), inspect a trace's header, replay one deterministically through
  the facade / the online runner / windowed offline solves / a live
  server (distinct from ``repro run --trace``, which captures an
  *observability* trace of a run);
* ``repro loadtest t.jsonl --url http://host:port`` — replay a workload
  trace against a live server at a target rate, reporting latency
  percentiles and 429/504 shed counts (``--loopback`` spins up a
  throwaway in-process server instead);
* ``repro serve --port 8787`` — run the scheduling service
  (:mod:`repro.server`): solve + online-stream endpoints over HTTP/JSON
  (``--journal DIR`` makes stream sessions crash-durable);
* ``repro chaos --smoke`` — fault-inject a real serving stack (stalled
  workers, malformed payloads, slow-loris, kill -9 + journal recovery)
  and assert the durability invariants;
* ``repro client solve|health|cells --url http://host:port`` — talk to a
  running server from the shell;
* ``repro online --method bfl|dbfl|greedy`` — stream a random instance
  through an online policy and report the competitive ratio;
* ``repro figure 1|2|3`` — print a paper figure as ASCII art;
* ``repro demo`` — the quickstart: schedule a random instance, show it.

Environment knobs: ``REPRO_JOBS`` (default worker count when ``--jobs``
is omitted), ``REPRO_CACHE_DIR`` (persist solver results on disk),
``REPRO_CACHE=off`` (disable solver memoization), ``REPRO_BACKEND``
(default execution backend, ``python`` or ``numpy``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time-constrained message scheduling in linear networks "
        "(Adler-Rosenberg-Sitaraman-Unger, SPAA 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run experiments and print their tables")
    run_p.add_argument("experiments", nargs="+", help="experiment ids (e1..e16, a1, a2) or 'all'")
    run_p.add_argument("--seed", type=int, default=2024)
    run_p.add_argument(
        "--trials", type=int, default=None, help="override each experiment's trial count"
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for engine-backed sweeps (0 = all cores; "
        "default: REPRO_JOBS or 1)",
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL observability trace of the run here",
    )
    run_p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any sweep cell running longer than this "
        "(needs 2 or more workers, from --jobs or REPRO_JOBS)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-run a failed sweep cell up to N extra times with "
        "exponential backoff",
    )
    run_p.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal completed sweep cells to this JSONL file and resume "
        "from it on re-run",
    )

    fig_p = sub.add_parser("figure", help="print a paper figure as ASCII art")
    fig_p.add_argument("number", type=int, choices=(1, 2, 3))
    fig_p.add_argument("--k", type=int, default=3, help="k for Figure 2's I_k")

    demo_p = sub.add_parser("demo", help="schedule a random instance and draw it")
    demo_p.add_argument("--seed", type=int, default=0)
    demo_p.add_argument("--n", type=int, default=16)
    demo_p.add_argument("--messages", type=int, default=10)

    online_p = sub.add_parser(
        "online", help="stream a random instance through an online policy"
    )
    online_p.add_argument("--seed", type=int, default=0)
    online_p.add_argument("--n", type=int, default=16)
    online_p.add_argument("--messages", type=int, default=12)
    online_p.add_argument(
        "--method",
        choices=("bfl", "dbfl", "greedy"),
        default="bfl",
        help="online policy (facade method for regime='online')",
    )
    online_p.add_argument(
        "--baseline",
        choices=("exact", "bfl", "none"),
        default="exact",
        help="what the competitive ratio is measured against",
    )
    online_p.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="inject an i.i.d. per-crossing packet-drop rate (FaultPlan)",
    )
    online_p.add_argument(
        "--link-failures",
        type=int,
        default=0,
        help="inject this many random link-failure windows (FaultPlan)",
    )
    online_p.add_argument(
        "--out", help="write the full ScheduleResult as JSON here (to_dict schema)"
    )

    solve_p = sub.add_parser("solve", help="schedule an instance JSON file")
    solve_p.add_argument("instance", help="path to a repro-instance JSON file")
    solve_p.add_argument(
        "--algorithm",
        choices=("bfl", "dbfl", "edf", "exact"),
        default="bfl",
        help="scheduler (exact = MILP OPT_BL; NP-hard, small instances only)",
    )
    solve_p.add_argument("--out", help="write the schedule as JSON here")
    solve_p.add_argument("--gantt", action="store_true", help="print link occupancy")

    serve_p = sub.add_parser(
        "serve", help="run the scheduling service (HTTP/JSON over asyncio)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8787, help="0 = ephemeral")
    serve_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="engine workers for the solve queue (1 = in-process; 0 = all cores)",
    )
    serve_p.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="requests admitted but unanswered before shedding with 429",
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=8, help="queue entries drained per engine call"
    )
    serve_p.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="per-tenant in-flight request cap (default: no per-tenant limit)",
    )
    serve_p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a JSONL observability trace (per-request spans + run "
        "manifest) here on shutdown",
    )
    serve_p.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="durable session journal directory: stream sessions are "
        "WAL-journaled here and recovered by replay on restart",
    )
    serve_p.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds a connection may take to deliver one full request "
        "before a 408 (slow-loris guard; <= 0 disables)",
    )
    serve_p.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to solves that do not send their own "
        "x-repro-deadline-ms (default: none)",
    )

    chaos_p = sub.add_parser(
        "chaos", help="fault-inject a real serving stack, assert durability"
    )
    chaos_p.add_argument(
        "--smoke",
        action="store_true",
        help="run the scripted fault schedule (deadlines under stalls, "
        "malformed payloads, slow-loris, kill -9 + journal recovery)",
    )
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument(
        "--out",
        default="BENCH_PR8.json",
        help="robustness baseline JSON ('-' = stdout only)",
    )

    client_p = sub.add_parser("client", help="talk to a running scheduling server")
    client_sub = client_p.add_subparsers(dest="client_command", required=True)
    for name, desc in (
        ("health", "print the server's liveness document"),
        ("cells", "print the server's dispatch matrix"),
        ("solve", "solve an instance JSON file on the server"),
    ):
        cp = client_sub.add_parser(name, help=desc)
        cp.add_argument("--url", default="http://127.0.0.1:8787")
        if name == "solve":
            cp.add_argument("instance", help="path to a repro-instance JSON file")
            cp.add_argument("--regime", default="bufferless")
            cp.add_argument("--method", default="bfl")
            cp.add_argument("--out", help="write the result JSON (schema v3) here")

    report_p = sub.add_parser("report", help="run experiments, emit a markdown report")
    report_p.add_argument("experiments", nargs="*", help="subset of ids (default: all)")
    report_p.add_argument("--seed", type=int, default=None)

    obs_p = sub.add_parser("obs", help="observability traces")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser("report", help="summarize a JSONL trace")
    obs_report.add_argument("trace", help="path to a trace written by --trace")

    tr_p = sub.add_parser("trace", help="workload traces: generate, inspect, replay")
    tr_sub = tr_p.add_subparsers(dest="trace_command", required=True)

    tr_gen = tr_sub.add_parser(
        "generate", help="stream a seeded traffic shape to a JSONL trace"
    )
    tr_gen.add_argument("out", help="trace file to write (JSONL)")
    tr_gen.add_argument(
        "--shape",
        default="bursty",
        help="traffic shape (uniform, bursty, diurnal, hotspot, adversarial)",
    )
    tr_gen.add_argument("--seed", type=int, default=0)
    tr_gen.add_argument("--n", type=int, default=32)
    tr_gen.add_argument("--messages", type=int, default=1000)
    tr_gen.add_argument("--topology", choices=("line", "ring"), default="line")

    tr_info = tr_sub.add_parser("info", help="print a trace's header and extent")
    tr_info.add_argument("trace", help="path to a workload-trace JSONL file")

    tr_rep = tr_sub.add_parser(
        "replay", help="deterministically replay a trace (local or served)"
    )
    tr_rep.add_argument("trace", help="path to a workload-trace JSONL file")
    tr_rep.add_argument(
        "--method",
        default="bfl",
        help="online policy (or offline method with --windows)",
    )
    tr_rep.add_argument(
        "--windows",
        type=int,
        default=None,
        metavar="N",
        help="replay through windowed offline solves of N records "
        "(O(window) memory; for traces too big to materialize)",
    )
    tr_rep.add_argument(
        "--regime",
        default="bufferless",
        help="offline regime for --windows (default bufferless)",
    )
    tr_rep.add_argument(
        "--url", default=None, help="replay against this live server instead"
    )
    tr_rep.add_argument(
        "--out", help="write the replayed result as JSON here (to_dict schema)"
    )

    lt_p = sub.add_parser(
        "loadtest", help="replay a workload trace against a live server at rate"
    )
    lt_p.add_argument("trace", help="path to a workload-trace JSONL file")
    lt_p.add_argument("--url", default=None, help="server to load-test")
    lt_p.add_argument(
        "--loopback",
        action="store_true",
        help="spin up a throwaway in-process server instead of --url",
    )
    lt_p.add_argument(
        "--mode",
        choices=("stream", "solve"),
        default="stream",
        help="stream: one online session; solve: windowed /v1/solve requests "
        "(the mode that exercises 429/504 shedding)",
    )
    lt_p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load in messages/second (open-loop; default: as fast "
        "as the server answers)",
    )
    lt_p.add_argument("--policy", default="bfl", help="stream-mode online policy")
    lt_p.add_argument("--batch-size", type=int, default=64)
    lt_p.add_argument("--window", type=int, default=256, help="solve-mode window")
    lt_p.add_argument(
        "--deadline-ms", type=float, default=None, help="solve-mode deadline"
    )
    lt_p.add_argument("--out", help="write the full report JSON here")

    ds_p = sub.add_parser("dataset", help="canonical named instances")
    ds_sub = ds_p.add_subparsers(dest="ds_command", required=True)
    ds_sub.add_parser("list", help="list canonical instances")
    ds_show = ds_sub.add_parser("show", help="draw one canonical instance")
    ds_show.add_argument("name")
    ds_show.add_argument("--out", help="write the instance as JSON here")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _list()
    if args.command == "run":
        return _run(
            args.experiments,
            args.seed,
            args.jobs,
            args.trials,
            args.trace,
            task_timeout=args.task_timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
        )
    if args.command == "obs":
        return _obs_report(args.trace)
    if args.command == "figure":
        return _figure(args.number, args.k)
    if args.command == "demo":
        return _demo(args.seed, args.n, args.messages)
    if args.command == "online":
        return _online(args)
    if args.command == "solve":
        return _solve(args.instance, args.algorithm, args.out, args.gantt)
    if args.command == "serve":
        return _serve(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "client":
        return _client(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "loadtest":
        return _loadtest(args)
    if args.command == "dataset":
        return _dataset(args)
    if args.command == "report":
        from .experiments.report import build_report

        try:
            print(build_report(only=args.experiments or None, seed=args.seed))
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    return 2  # unreachable given required=True


def _list() -> int:
    from .experiments import ALL

    for name, mod in ALL.items():
        print(f"{name:>4}  {getattr(mod, 'DESCRIPTION', mod.__name__)}")
    return 0


def _run(
    names: list[str],
    seed: int,
    jobs: int | None = None,
    trials: int | None = None,
    trace: str | None = None,
    *,
    task_timeout: float | None = None,
    retries: int | None = None,
    checkpoint: str | None = None,
) -> int:
    from . import obs
    from .engine import Engine, ResilienceConfig, resolve_jobs
    from .experiments import ALL
    from .experiments.base import RunConfig

    if jobs is not None and jobs < 0:
        print(f"--jobs must be >= 0 (0 = all cores), got {jobs}", file=sys.stderr)
        return 2
    try:
        workers = resolve_jobs(jobs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if task_timeout is not None and workers < 2:
        # The serial path cannot interrupt a running cell.
        print(
            f"--task-timeout needs 2 or more workers, but --jobs/REPRO_JOBS "
            f"gives {workers}",
            file=sys.stderr,
        )
        return 2
    resilience = None
    if task_timeout is not None or retries is not None or checkpoint is not None:
        try:
            resilience = ResilienceConfig(
                task_timeout=task_timeout,
                max_attempts=(retries + 1) if retries is not None else 3,
                checkpoint=checkpoint,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if names == ["all"]:
        names = list(ALL)
    unknown = [n for n in names if n not in ALL]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL)}", file=sys.stderr)
        return 2
    manifest = None
    run_start = time.perf_counter()
    if trace is not None:
        obs.enable()
        manifest = obs.RunManifest.collect(
            f"repro run {' '.join(names)}",
            config={"seed": seed, "trials": trials, "jobs": workers},
            seed=seed,
        )
    cfg = RunConfig(seed=seed, trials=trials)
    engine = Engine(jobs=jobs, resilience=resilience)
    for name in names:
        mod = ALL[name]
        t0 = time.perf_counter()
        with obs.tracer().span(f"experiment.{name}"):
            table = mod.run(cfg, engine=engine)
        elapsed = time.perf_counter() - t0
        print(f"== {name}: {getattr(mod, 'DESCRIPTION', '')} ({elapsed:.1f}s) ==")
        print(table.render())
        summary = getattr(table, "summary", None)
        if summary is not None:
            print()
            print(summary.render())
        print()
    if trace is not None:
        manifest.finish(time.perf_counter() - run_start)
        obs.write_trace(trace, manifest=manifest)
        print(f"trace written to {trace}")
    return 0


def _obs_report(trace_path: str) -> int:
    from .obs import load_trace, render_report

    try:
        trace = load_trace(trace_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {trace_path}: {exc}", file=sys.stderr)
        return 2
    print(render_report(trace, source=trace_path))
    return 0


def _online(args) -> int:
    import json

    from . import api
    from .network.faults import random_fault_plan
    from .workloads import general_instance

    rng = np.random.default_rng(args.seed)
    inst = general_instance(
        rng, n=args.n, k=args.messages, max_release=args.n // 2, max_slack=4
    )
    faults = None
    if args.drop_rate > 0 or args.link_failures > 0:
        faults = random_fault_plan(
            rng, inst, drop_rate=args.drop_rate, link_failures=args.link_failures
        )
    result = api.solve(
        inst, "online", args.method, baseline=args.baseline, faults=faults
    )
    drops = result.telemetry.get("drops", {})
    line = (
        f"{args.method}: delivered {result.delivered}/{len(inst)} "
        f"over {result.telemetry.get('steps', 0)} steps "
        f"({drops.get('policy', 0)} policy drops, "
        f"{drops.get('fault', 0)} fault drops)"
    )
    if result.competitive_ratio is not None:
        line += f"; competitive ratio {result.competitive_ratio:.3f}"
    print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"result written to {args.out}")
    return 0


def _figure(number: int, k: int) -> int:
    from .viz import figure1, figure2, figure3

    if number == 1:
        print(figure1())
    elif number == 2:
        print(figure2(k))
    else:
        print(figure3())
    return 0


def _demo(seed: int, n: int, k: int) -> int:
    from .core.bfl import bfl
    from .core.dbfl import dbfl
    from .viz.lattice import render_schedule
    from .workloads import general_instance

    rng = np.random.default_rng(seed)
    inst = general_instance(rng, n=n, k=k, max_release=n // 2, max_slack=4)
    schedule = bfl(inst)
    distributed = dbfl(inst)
    print(
        f"{len(inst)} messages on {n} nodes: BFL delivers {schedule.throughput}, "
        f"D-BFL delivers {distributed.throughput} "
        f"(sets equal: {schedule.delivered_ids == distributed.delivered_ids})"
    )
    print()
    print(render_schedule(inst, schedule))
    return 0


def _serve(args) -> int:
    from .server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        tenant_quota=args.tenant_quota,
        trace=args.trace,
        journal=args.journal,
        request_timeout=args.request_timeout if args.request_timeout > 0 else None,
        default_deadline_ms=args.default_deadline_ms,
    )

    def _ready(s: ReproServer) -> None:
        print(f"serving on {s.url} (Ctrl-C to stop)")

    server.run(ready=_ready)
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _chaos(args) -> int:
    if not args.smoke:
        print("nothing to do: pass --smoke to run the fault schedule")
        return 2
    from .chaos import render_smoke_summary, run_smoke

    out = None if args.out == "-" else args.out
    payload = run_smoke(seed=args.seed, out=out)
    print(render_smoke_summary(payload))
    if out:
        print(f"baseline written to {out}")
    return 0 if payload["ok"] else 1


def _client(args) -> int:
    import json
    from pathlib import Path

    from .client import ReproClient
    from .errors import ReproError, ServerError

    client = ReproClient(args.url)
    try:
        if args.client_command == "health":
            print(json.dumps(client.health(), indent=2))
            return 0
        if args.client_command == "cells":
            for topo, regime, method in client.cells():
                print(f"{topo:<6} {regime:<12} {method}")
            return 0
        from .api import parse_instance

        inst = parse_instance(Path(args.instance).read_text())
        result = client.solve(inst, args.regime, args.method)
        line = (
            f"{args.regime}/{args.method} via {args.url}: "
            f"delivered {result.delivered}/{len(inst)} (status {result.status})"
        )
        if result.request is not None:
            line += (
                f"; request {result.request['id']} waited "
                f"{result.request['queue_seconds'] * 1e3:.2f} ms in queue"
            )
        print(line)
        if args.out:
            Path(args.out).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
            print(f"result written to {args.out}")
        return 0
    except (ServerError, ReproError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        client.close()


def _solve(instance_path: str, algorithm: str, out: str | None, gantt: bool) -> int:
    from pathlib import Path

    from .analysis import schedule_summary
    from .api import parse_instance
    from .core.bfl import bfl
    from .core.dbfl import dbfl
    from .baselines import edf_bufferless
    from .exact import opt_bufferless
    from .io import save_schedule

    inst = parse_instance(Path(instance_path).read_text())
    if algorithm == "bfl":
        schedule = bfl(inst)
    elif algorithm == "dbfl":
        schedule = dbfl(inst).schedule
    elif algorithm == "edf":
        schedule = edf_bufferless(inst)
    else:
        schedule = opt_bufferless(inst).schedule
    summary = schedule_summary(inst, schedule)
    print(
        f"{algorithm}: delivered {summary['delivered']}/{summary['messages']} "
        f"(ratio {summary['delivery_ratio']:.3f}), "
        f"mean latency {summary['mean_latency']:.2f}, "
        f"buffered wait {summary['total_wait']}"
    )
    if gantt:
        from .viz.gantt import link_gantt

        print(link_gantt(inst, schedule))
    if out:
        save_schedule(schedule, out)
        print(f"schedule written to {out}")
    return 0


def _trace(args) -> int:
    import json

    from .errors import ReproError

    try:
        if args.trace_command == "generate":
            from .trace import SHAPES, write_shape_trace

            if args.shape not in SHAPES:
                print(
                    f"unknown shape {args.shape!r}; choose one of "
                    f"{', '.join(SHAPES)}",
                    file=sys.stderr,
                )
                return 2
            count = write_shape_trace(
                args.out,
                args.shape,
                args.seed,
                n=args.n,
                messages=args.messages,
                topology=args.topology,
            )
            print(
                f"{count} messages ({args.shape}, seed {args.seed}, "
                f"{args.topology} n={args.n}) written to {args.out}"
            )
            return 0
        if args.trace_command == "info":
            return _trace_info(args.trace)
        return _trace_replay(args)
    except (ReproError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _trace_info(path: str) -> int:
    from .trace import open_trace

    reader = open_trace(path)
    try:
        count = 0
        first = last = None
        for rec in reader:
            if first is None:
                first = rec.release
            last = rec.release
            count += 1
    finally:
        reader.close()
    print(f"trace    {reader.trace_id}")
    print(f"topology {reader.topology} (n={reader.n})")
    if reader.shape is not None:
        print(f"shape    {reader.shape}" + (
            f" (seed {reader.seed})" if reader.seed is not None else ""
        ))
    print(f"messages {count}" + (
        f" (releases {first}..{last})" if count else ""
    ))
    if reader.spec:
        import json

        print(f"spec     {json.dumps(reader.spec, sort_keys=True)}")
    return 0


def _trace_replay(args) -> int:
    import json

    if args.windows is not None:
        from .trace import replay_windows

        report = replay_windows(
            args.trace,
            window=args.windows,
            regime=args.regime,
            method=args.method,
        )
        print(
            f"{report['windows']} windows of {report['window']}: delivered "
            f"{report['delivered']}/{report['messages']} "
            f"({report['regime']}/{report['method']}, "
            f"{report['seconds']:.2f}s) — windows solved independently"
        )
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"report written to {args.out}")
        return 0
    if args.url is not None:
        from .client import ReproClient
        from .trace import replay_served

        with ReproClient(args.url) as client:
            result = replay_served(args.trace, client, policy=args.method)
    else:
        from .trace import replay_online

        result = replay_online(args.trace, args.method)
    where = f"via {args.url}" if args.url else "locally"
    wl = result.workload or {}
    print(
        f"replayed {wl.get('trace_id', args.trace)} {where} with "
        f"{args.method}: delivered {result.throughput} over "
        f"{len(result.decisions)} decisions"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"result written to {args.out}")
    return 0


def _loadtest(args) -> int:
    import json

    from .errors import ReproError
    from .trace import run_loadtest

    if args.loopback == (args.url is not None):
        print("pass exactly one of --url or --loopback", file=sys.stderr)
        return 2
    server = None
    try:
        url = args.url
        if args.loopback:
            from .server import ReproServer

            server = ReproServer(port=0, jobs=1).start_in_thread()
            url = server.url
        report = run_loadtest(
            args.trace,
            url,
            mode=args.mode,
            rate=args.rate,
            policy=args.policy,
            batch_size=args.batch_size,
            window=args.window,
            deadline_ms=args.deadline_ms,
        )
    except (ReproError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.shutdown()
    lat = report["latency"]
    shed = report["shed"]
    print(
        f"{report['mode']} loadtest: {report['messages']} messages in "
        f"{report['seconds']:.2f}s ({report['rate_achieved']:.0f} msg/s"
        + (f", target {report['rate_target']:.0f}" if report["rate_target"] else "")
        + ")"
    )
    print(
        f"latency p50 {lat['p50_ms']:.2f} ms  p95 {lat['p95_ms']:.2f} ms  "
        f"p99 {lat['p99_ms']:.2f} ms  max {lat['max_ms']:.2f} ms"
    )
    print(f"shed: {shed['429']} x 429 (overload), {shed['504']} x 504 (deadline)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


def _dataset(args) -> int:
    from .datasets import available, describe, load

    if args.ds_command == "list":
        for name in available():
            print(f"{name:<22} {describe(name)}")
        return 0
    try:
        inst = load(args.name)
    except KeyError as exc:
        print(str(exc), file=__import__("sys").stderr)
        return 2
    from .analysis import instance_summary
    from .viz.lattice import render_instance

    print(f"{args.name}: {describe(args.name)}")
    summary = instance_summary(inst)
    print(
        f"{summary['messages']} messages on {summary['nodes']} nodes; "
        f"Λ = {summary['lambda']}, max slack {summary['max_slack']}, "
        f"max span {summary['max_span']}"
    )
    print()
    print(render_instance(inst))
    if args.out:
        from .io import save_instance

        save_instance(inst, args.out)
        print(f"instance written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
