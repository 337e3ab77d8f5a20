"""Shared measurement machinery: phases, statistics, set-up timing, output.

Every workload measures the same way:

* a **closed loop**: the next operation starts when the previous one
  has finished, for ``--seconds``.  Latency, operation and message
  rates and the CPU time of the process under test come from it;
* ``setup_s``: the median of several cold starts, each from spawning a
  process of the program to its first answered operation;
* **host speed**: a shared virtual machine runs the same code at
  speeds up to 2x apart within a minute, and every workload speeds up
  and slows down alike.  Every CAL_EVERY seconds of the closed loop,
  and around every cold start, the benchmark times a fixed calibration
  kernel of its own (:func:`calibration_kernel`, no program code) and
  scales each time it measures by the kernel's slowdown against its
  reference time (:class:`Phase` does the arithmetic per RATE_WINDOW
  window).  End-to-end times and rates therefore read as on the
  reference host; the run record keeps the raw figures next to them;
* in the traced run, a **paired loop** that alternates untraced and
  traced operations (:func:`paired_loop`), and an **open loop** at a
  fixed rate for the load generator's tail figures.  ``serve`` sends
  real requests on a schedule (:mod:`wl_serve`).  The other workloads
  execute one operation at a time by construction (one interpreter
  thread, or one stream session whose feeds are ordered), so an
  open-loop run of them is a single FIFO server: the latency of
  operation ``i``, timed from its due time, follows Lindley's recursion
  over the measured service times (:func:`open_loop_latencies`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cold starts per run; ``setup_s`` reports their median.
COLD_STARTS = 5
#: Seconds per window of :meth:`Phase.rates`; also the span over which
#: one host-speed factor holds.
RATE_WINDOW = 2.0
#: Seconds of closed loop between two timings of the calibration kernel.
#: The host flips between a fast and a slow state every 50-200 ms (a
#: co-tenant on the sibling hardware thread), so the samples must be
#: dense enough to estimate the share of time spent in each.
CAL_EVERY = 0.05
#: Calibration timings just before, and again just after, each cold start.
CAL_PER_START = 5
#: Wall and CPU seconds :func:`calibration_kernel` takes on the reference
#: host (one core of a 2-vCPU x86 virtual machine, CPython 3.11, at the
#: benchmark's first commit).  Only ratios to them matter: they fix the
#: unit in which normalized times read, never a comparison between runs.
CAL_NOMINAL_S = 0.0015

#: One line of a cold start: a fresh interpreter imports ``repro`` and
#: answers one ``api.solve``.
_COLD_SOLVE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro import api; "
    "from repro.core.instance import Instance; "
    "from repro.core.message import Message; "
    "r = api.solve(Instance(4, (Message(0, 0, 3, 0, 5),)), 'bufferless', 'bfl'); "
    "print('ready', r.delivered, flush=True)"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, a server that will not
    start); the run prints no result and exits non-zero."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for processes of the program.

    They import ``repro`` from the checkout's ``src``, write their output
    unbuffered (a server's ready line must arrive at once), and may cache
    compiled bytecode, as an installed program does: cold starts then
    time loading the program, not compiling it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def clear_program_settings() -> None:
    """Drop ``REPRO_*`` settings (backend, cache, tracing, chaos) from
    this process's environment, and so from every process it spawns: the
    benchmark measures the program's defaults."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


@contextlib.contextmanager
def scratch() -> Iterator[Path]:
    """A private directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values: list[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def open_loop_latencies(service: list[float], rate: float) -> list[float]:
    """Latencies of a FIFO single server fed at ``rate`` operations/s.

    Lindley's recursion: operation ``i`` is due at ``i / rate``; it waits
    ``W_i`` for the one before it, so its latency from the due time is
    ``W_i + S_i`` and ``W_{i+1} = max(0, W_i + S_i - 1/rate)``.  A stall
    therefore delays every later operation, as it would in a live open
    loop.
    """
    gap = 1.0 / rate
    wait = 0.0
    out = []
    for s in service:
        out.append(wait + s)
        wait = max(0.0, wait + s - gap)
    return out


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #


def calibration_kernel() -> int:
    """A fixed piece of work that stands for the host's speed.

    Interpreter work of the kinds the program does (tuples, sorting, dict
    grouping, a JSON round trip) plus small numpy array passes, on fixed
    inputs.  It calls no program code, so a change to the program never
    moves it; only the host does.
    """
    rng = random.Random(7)
    items = [(rng.randrange(1000), rng.random(), str(i)) for i in range(400)]
    items.sort()
    groups: dict[int, list[tuple[float, str]]] = {}
    for a, b, c in items:
        groups.setdefault(a % 97, []).append((b, c))
    text = json.dumps({str(k): v for k, v in groups.items()})
    json.loads(text)
    arr = np.arange(4000, dtype=np.int64)
    for _ in range(8):
        arr = np.cumsum(arr % 13)
    return len(text)


def host_speed() -> tuple[float, float]:
    """``(wall, cpu)`` slowdown of the host now: the calibration kernel's
    wall and CPU seconds over CAL_NOMINAL_S (above 1: slower than the
    reference host)."""
    w0, c0 = time.perf_counter(), time.process_time()
    calibration_kernel()
    return (
        (time.perf_counter() - w0) / CAL_NOMINAL_S,
        (time.process_time() - c0) / CAL_NOMINAL_S,
    )


def slowdown(samples: list[float]) -> float:
    """The mean slowdown over a stretch of time, from slowdowns sampled
    at moments spread over it: the harmonic mean, since what adds up over
    time is speed (work per second), not slowdown."""
    return len(samples) / sum(1.0 / f for f in samples)


def normalized_start(start: Callable[[], float]) -> tuple[float, float]:
    """``(normalized, raw)`` seconds of one cold start: the raw time
    divided by the wall slowdown of CAL_PER_START calibration timings
    just before it and as many just after it."""
    before = [host_speed()[0] for _ in range(CAL_PER_START)]
    raw = start()
    after = [host_speed()[0] for _ in range(CAL_PER_START)]
    return raw / slowdown(before + after), raw


# ---------------------------------------------------------------------- #
# the process under test
# ---------------------------------------------------------------------- #


def self_cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_start_solve() -> float:
    """Seconds from spawning an interpreter to its first ``api.solve``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _COLD_SOLVE, str(SRC)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not line.startswith("ready 1"):
        raise BenchmarkError(f"cold start did not solve: {line!r} {err[-500:]!r}")
    return elapsed


def freeze_heap() -> None:
    """Move everything alive now out of the collector's reach.

    In-process workloads hold their corpus, references and the modules
    they imported; without this, each full collection the program
    triggers would also walk the benchmark's own objects, adding the
    benchmark's heap size to the program's tail latency.  Objects the
    program allocates afterwards are collected as usual.
    """
    import gc

    gc.collect()
    gc.freeze()


def median_setup(start: Callable[[], float], count: int) -> tuple[float, float]:
    """``(normalized, raw)`` medians of ``count`` cold starts."""
    runs = [normalized_start(start) for _ in range(count)]
    return statistics.median(n for n, _r in runs), statistics.median(r for _n, r in runs)


# ---------------------------------------------------------------------- #
# phases
# ---------------------------------------------------------------------- #


@dataclass
class Phase:
    """What one closed-loop phase measured.

    Times are on the phase clock: seconds since the phase started, less
    the time spent timing the calibration kernel.
    """

    latencies: list[float] = field(default_factory=list)
    late: list[bool] = field(default_factory=list)
    #: phase-clock time each operation finished, and its message count
    ends: list[float] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    messages: int = 0
    start: float = 0.0
    #: calibration time taken out of the phase clock so far
    paused: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    #: ``(phase time, wall slowdown, cpu slowdown)`` of each calibration
    speed: list[tuple[float, float, float]] = field(default_factory=list)
    #: ``(phase time, CPU seconds of the process under test)``
    cpu_marks: list[tuple[float, float]] = field(default_factory=list)
    #: Operations that raised instead of answering (no latency recorded).
    errors: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.ops + self.errors

    def clock(self) -> float:
        return time.perf_counter() - self.paused - self.start

    def add(self, latency: float, messages: int, *, late: bool = False) -> None:
        self.latencies.append(latency)
        self.late.append(late)
        self.ends.append(self.clock())
        self.counts.append(messages)
        self.messages += messages

    def calibrate(self, cpu: float) -> None:
        """Time the calibration kernel now, off the phase clock, and note
        the CPU seconds of the process under test at this point."""
        at = self.clock()
        t0 = time.perf_counter()
        wall, cpu_slow = host_speed()
        self.paused += time.perf_counter() - t0
        self.speed.append((at, wall, cpu_slow))
        self.cpu_marks.append((at, cpu))

    def _window(self, t: float, windows: int) -> int:
        return min(max(int(t // RATE_WINDOW), 0), windows - 1)

    def factors(self, which: int = 1) -> list[float]:
        """Host slowdown in each RATE_WINDOW-second window of the phase
        clock (``which``: 1 wall, 2 cpu), from the window's calibrations
        (:func:`slowdown`), or from all of them where a window has none.
        A phase never calibrated reads 1 throughout."""
        windows = max(1, math.ceil(self.wall / RATE_WINDOW))
        if not self.speed:
            return [1.0] * windows
        groups: list[list[float]] = [[] for _ in range(windows)]
        for sample in self.speed:
            groups[self._window(sample[0], windows)].append(sample[which])
        overall = slowdown([sample[which] for sample in self.speed])
        return [slowdown(g) if g else overall for g in groups]

    def normalized(self) -> list[float]:
        """Latencies divided by the wall slowdown of their window."""
        f = self.factors()
        return [x / f[self._window(t, len(f))] for x, t in zip(self.latencies, self.ends)]

    def late_latencies(self) -> list[float]:
        """Normalized latencies of operations flagged late; a workload
        without a notion of position flags none, and then every
        operation counts."""
        norm = self.normalized()
        flagged = [x for x, late in zip(norm, self.late) if late]
        return flagged or norm

    def normalized_cpu(self) -> float:
        """CPU seconds of the process under test, each stretch between two
        marks divided by the CPU slowdown of the window it starts in."""
        f = self.factors(2)
        return sum(
            (c1 - c0) / f[self._window(t0, len(f))]
            for (t0, c0), (_t1, c1) in zip(self.cpu_marks, self.cpu_marks[1:])
        )

    def rates(self) -> tuple[float, float]:
        """``(operations/s, messages/s)`` at reference host speed: the
        median over the phase's whole RATE_WINDOW-second windows of each
        window's count times its wall slowdown, so a short stall of a
        shared host moves one window, not the figure.  Phases shorter
        than three windows fall back to the whole-phase rate."""
        windows = int(self.wall // RATE_WINDOW)
        if windows < 3:
            f = slowdown([sample[1] for sample in self.speed] or [1.0])
            return f * self.ops / self.wall, f * self.messages / self.wall
        f = self.factors()
        ops = [0] * windows
        msgs = [0] * windows
        for end, count in zip(self.ends, self.counts):
            w = int(end // RATE_WINDOW)
            if w < windows:
                ops[w] += 1
                msgs[w] += count
        return (
            statistics.median(o * f[w] for w, o in enumerate(ops)) / RATE_WINDOW,
            statistics.median(m * f[w] for w, m in enumerate(msgs)) / RATE_WINDOW,
        )


def closed_loop(
    step: Callable[[Phase], None],
    seconds: float,
    cpu: Callable[[], float],
    *,
    calibrate: bool = True,
) -> Phase:
    """Call ``step(phase)`` back to back for ``seconds``.

    ``step`` runs one or more operations and records each with
    :meth:`Phase.add`; ``cpu`` reads the CPU seconds of the process under
    test.  With ``calibrate``, the host's speed is timed every CAL_EVERY
    seconds between steps (:meth:`Phase.calibrate`).
    """
    phase = Phase()
    t0 = phase.start = time.perf_counter()
    deadline = t0 + seconds
    next_cal = t0
    if not calibrate:
        phase.cpu_marks.append((0.0, cpu()))
    while True:
        if calibrate and time.perf_counter() >= next_cal:
            phase.calibrate(cpu())
            next_cal = time.perf_counter() + CAL_EVERY
        step(phase)
        now = time.perf_counter()
        if now >= deadline:
            break
    phase.wall = phase.clock()
    phase.cpu_marks.append((phase.wall, cpu()))
    phase.cpu = phase.cpu_marks[-1][1] - phase.cpu_marks[0][1]
    return phase


def paired_loop(
    plain_step: Callable[[Phase], None],
    traced_step: Callable[[Phase], None],
    seconds: float,
) -> tuple[Phase, Phase]:
    """Alternate an untraced and a traced operation for ``seconds``.

    Pairing the two in one loop exposes both to the same machine state,
    so the tracing overhead is not confounded with drift between two
    separate phases; which of the two goes first alternates, so neither
    always finds the caches warmed by the other.  Returns
    ``(untraced, traced)``.
    """
    plain = Phase()
    flip = [False]

    def step(phase: Phase) -> None:
        flip[0] = not flip[0]
        if flip[0]:
            plain_step(plain)
            traced_step(phase)
        else:
            traced_step(phase)
            plain_step(plain)

    traced = closed_loop(step, seconds, lambda: 0.0, calibrate=False)
    plain.wall = traced.wall
    return plain, traced


def trace_overhead(plain: Phase, traced: Phase) -> float:
    """Traced over untraced mean operation time, minus one."""
    return statistics.fmean(traced.latencies) / statistics.fmean(plain.latencies) - 1.0


def end_to_end(
    phase: Phase,
    *,
    setup_s: tuple[float, float],
    peak_rss_mb: float,
    record: dict[str, Any],
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports.

    Times and rates are at reference host speed (see the module
    docstring); ``setup_s`` is ``(normalized, raw)`` as
    :func:`median_setup` returns it.  ``record`` gets the raw figures,
    the host slowdowns, the sample count and the closed loop's
    percentiles.  Tail percentiles are not end-to-end metrics: on a
    shared 2-vCPU virtual machine the host's stalls moved p99 by 30-60%
    and open-loop p95 by up to 4x between runs, beyond any bound worth
    having.
    """
    lat = phase.normalized()
    ops_rate, msg_rate = phase.rates()
    wall = [s[1] for s in phase.speed] or [1.0]
    record["samples"] = len(lat)
    record["tails_ms"] = {f"p{q}": percentile(lat, q) * 1e3 for q in (50, 90, 95, 99)}
    record["beyond_p99"] = beyond(lat, 99)
    record["host_slowdown"] = {
        "calibrations": len(phase.speed),
        "wall": slowdown(wall),
        "cpu": slowdown([s[2] for s in phase.speed] or [1.0]),
        "wall_min": min(wall),
        "wall_max": max(wall),
    }
    record["raw"] = {
        "setup_s": setup_s[1],
        "latency_p50_ms": percentile(phase.latencies, 50) * 1e3,
        "ops_per_s": phase.ops / phase.wall,
        "messages_per_s": phase.messages / phase.wall,
        "cpu_ms_per_op": phase.cpu * 1e3 / phase.ops,
    }
    return {
        "setup_s": (setup_s[0], "s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "ops_per_s": (ops_rate, "1/s"),
        "messages_per_s": (msg_rate, "1/s"),
        "cpu_ms_per_op": (phase.normalized_cpu() * 1e3 / phase.ops, "ms"),
        "late_feed_p50_ms": (percentile(phase.late_latencies(), 50) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def loadgen_tails(plain: Phase, open_latencies: list[float]) -> dict[str, float]:
    """The load generator's tail figures, for the traced run's table."""
    return {
        "loadgen.closed_p95_ms": percentile(plain.latencies, 95) * 1e3,
        "loadgen.open_p95_ms": percentile(open_latencies, 95) * 1e3,
    }


# ---------------------------------------------------------------------- #
# run record
# ---------------------------------------------------------------------- #


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the program's sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _version(dist: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it spawns, to one CPU.

    The benchmark measures cost on one core.  On a shared virtual
    machine, keeping both the load generator and the server busy on two
    virtual CPUs invites the host to steal time from them (15-30% steal
    measured on a 2-vCPU box, against 2-4% with one CPU busy).  Returns
    the CPU chosen.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` clock ticks of the whole machine, from
    ``/proc/stat``: on a shared virtual machine, time the host gave to
    someone else shows up as steal and inflates every timing."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment() -> dict[str, Any]:
    """The environment stamp printed with every run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "sc_clk_tck": os.sysconf("SC_CLK_TCK"),
        "machine": platform.machine(),
    }


def layer_table(
    title: str, e2e_ms: float, rows: list[tuple[str, float]]
) -> tuple[str, float, float]:
    """Render a per-operation layer table.

    Returns ``(text, sum_of_layers_ms, unattributed_share)``; the share
    is the part of the end-to-end time no layer accounts for.
    """
    total = sum(ms for _name, ms in rows)
    share = (e2e_ms - total) / e2e_ms if e2e_ms else 0.0
    lines = [f"{title}: layer self time per operation", f"  {'layer':<34} {'ms':>9} {'share':>7}"]
    for name, ms in rows:
        lines.append(f"  {name:<34} {ms:9.4f} {ms / e2e_ms:7.1%}")
    lines.append(f"  {'sum of layers':<34} {total:9.4f} {total / e2e_ms:7.1%}")
    lines.append(f"  {'end to end (traced)':<34} {e2e_ms:9.4f} {1:7.1%}")
    lines.append(f"  {'unattributed':<34} {e2e_ms - total:9.4f} {share:7.1%}")
    return "\n".join(lines), total, share


def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
    record: dict[str, Any],
) -> None:
    """Print the run record, then the one-line result (always last)."""
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


@dataclass
class Outcome:
    """What a workload hands back to :mod:`run`."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    record: dict[str, Any]
    #: One line per failed or mismatched operation (the first few).
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Checker:
    """Counts failures against attempts and keeps the first few reasons."""

    KEEP = 10

    def __init__(self) -> None:
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < self.KEEP:
            self.problems.append(why)

    def expect(self, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(why)
        return ok
