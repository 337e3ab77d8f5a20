"""The server under test, run in its own process.

:class:`ServerProcess` spawns ``repro serve`` (or the tracing launcher),
waits for its ready line, reads its CPU time and peak memory from
``/proc``, and always stops it: SIGINT for a clean shutdown (which is
when a traced server writes its spans), SIGKILL if it does not exit in
time.  The child also gets SIGKILL from the kernel if the benchmark
process dies first, so no server outlives a run.
"""

from __future__ import annotations

import ctypes
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from harness import ROOT, BenchmarkError, child_env

__all__ = ["ServerProcess", "serve_argv", "launcher_argv"]

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:  # runs in the child between fork and exec
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def serve_argv(*args: str) -> list[str]:
    """``repro serve`` as a user runs it, on an ephemeral port."""
    return [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args]


def launcher_argv(spans: Path, trace: Path, *args: str) -> list[str]:
    """``repro serve`` under the span-recording launcher, with ``--trace``."""
    return [
        sys.executable,
        str(Path(__file__).with_name("launcher.py")),
        "--spans",
        str(spans),
        "--",
        "serve",
        "--port",
        "0",
        "--trace",
        str(trace),
        *args,
    ]


class ServerProcess:
    """One spawned server; use as a context manager."""

    READY_TIMEOUT = 60.0
    STOP_TIMEOUT = 30.0

    def __init__(self, argv: list[str], *, log: Path) -> None:
        self.argv = argv
        self.log = log
        self.proc: subprocess.Popen[str] | None = None
        self.url = ""
        self.ready_s = 0.0
        self._log_fh: Any = None

    @property
    def pid(self) -> int:
        if self.proc is None:
            raise BenchmarkError("server not started")
        return self.proc.pid

    def start(self) -> "ServerProcess":
        self._log_fh = open(self.log, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=self._log_fh,
            text=True,
            env=child_env(),
            cwd=ROOT,
            preexec_fn=_die_with_parent,
        )
        try:
            line = self._read_line(self.READY_TIMEOUT)
            self.ready_s = time.perf_counter() - t0
            if not line.startswith("serving on "):
                raise BenchmarkError(
                    f"server did not become ready: {line!r}; "
                    f"log: {self.log_tail()}"
                )
        except BaseException:
            self.stop()
            raise
        self.url = line.split()[2]
        return self

    def _read_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                return ""
        return self.proc.stdout.readline()

    def log_tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-1500:]
        except OSError:
            return ""

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM missing from /proc status")

    def stop(self) -> int | None:
        """Stop the server and wait for it; returns its exit code."""
        proc = self.proc
        if proc is None:
            return None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=self.STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
            if self._log_fh is not None:
                self._log_fh.close()
                self._log_fh = None
        return proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self if self.proc is not None else self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
