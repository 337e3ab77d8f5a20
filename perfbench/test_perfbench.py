"""The benchmark's own tests, in smoke-sized mode.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

They check that every metric is printed with its unit, that the seed
changes the inputs but not the metric names, that a corrupted reference
trips the correctness gate, and that no server outlives a run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import harness  # noqa: E402
import wl_offline  # noqa: E402
import wl_serve  # noqa: E402
import wl_stream  # noqa: E402
import wl_sweep  # noqa: E402
from proc import ServerProcess, launcher_argv  # noqa: E402

WORKLOADS = ("offline", "serve", "stream", "sweep")


def _bench(*args: str, cwd: Path = ROOT, timeout: float = 180) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_its_unit(workload, trace):
    out = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", trace, "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = catalog.PER_LAYER if trace == "1" else catalog.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_seed_changes_inputs_not_metric_names():
    a = wl_offline.build_corpus(1, smoke=True)
    b = wl_offline.build_corpus(2, smoke=True)
    assert [d.text for d in a] != [d.text for d in b]
    assert [d.text for d in a] == [d.text for d in wl_offline.build_corpus(1, smoke=True)]
    assert wl_serve.build_pool(1, smoke=True) != wl_serve.build_pool(2, smoke=True)
    assert [t.records for t, _b in wl_stream.build_traces(1, smoke=True)] != [
        t.records for t, _b in wl_stream.build_traces(2, smoke=True)
    ]
    names = []
    for seed in ("1", "2"):
        out = _result(_bench("--workload", "offline", "--seed", seed, "--seconds", "0.5",
                             "--smoke"))
        names.append(list(out["metrics"]))
    assert names[0] == names[1]


def _corrupt_offline(monkeypatch):
    real = wl_offline.reference_delivered
    monkeypatch.setattr(wl_offline, "reference_delivered", lambda doc: real(doc) + 1)


def _corrupt_serve(monkeypatch):
    real = wl_serve.references

    monkeypatch.setattr(
        wl_serve, "references", lambda pool: [{**r, "lower": -1} for r in real(pool)]
    )


def _corrupt_stream(monkeypatch):
    real = wl_stream.reference_log
    monkeypatch.setattr(wl_stream, "reference_log", lambda t, p: real(t, p)[:-1])


def _corrupt_sweep(monkeypatch):
    real = wl_sweep.reference_pair
    monkeypatch.setattr(wl_sweep, "reference_pair", lambda inst: (real(inst)[0] + 1, real(inst)[1]))


@pytest.mark.parametrize(
    "module,corrupt",
    [(wl_offline, _corrupt_offline), (wl_serve, _corrupt_serve),
     (wl_stream, _corrupt_stream), (wl_sweep, _corrupt_sweep)],
    ids=WORKLOADS,
)
def test_corrupted_reference_trips_the_gate(monkeypatch, capsys, module, corrupt):
    import run

    corrupt(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run.py"])
    code = run.main(["--workload", module.__name__[3:], "--seed", "1", "--seconds", "1",
                     "--smoke"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_launcher_leaves_no_server_when_the_load_generator_raises(tmp_path):
    with pytest.raises(RuntimeError, match="load generator failed"):
        with ServerProcess(
            launcher_argv(tmp_path / "spans.json", tmp_path / "trace.jsonl", "--jobs", "1"),
            log=tmp_path / "server.log",
        ) as server:
            pid = server.pid
            assert _alive(pid)
            raise RuntimeError("load generator failed")
    assert not _alive(pid)
    # The launcher still wrote its spans on the way down.
    assert json.loads((tmp_path / "spans.json").read_text()) == []


def _children(pid: int) -> list[int]:
    out = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        out += [int(c) for c in (task / "children").read_text().split()]
    return out


def test_terminated_run_stops_its_server():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "30", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        servers: list[int] = []
        while not servers and time.monotonic() < deadline:
            time.sleep(0.2)
            servers = _children(proc.pid)
        assert servers, "the benchmark never started a server"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not any(_alive(pid) for pid in servers)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentile_and_open_loop_recursion():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert harness.percentile([5.0], 99) == 5.0
    # Rate 1/s: a 3 s stall delays the next two operations by 2 s and 1 s.
    assert harness.open_loop_latencies([3.0, 0.5, 0.5, 0.5], 1.0) == [3.0, 2.5, 2.0, 1.5]
    assert harness.open_loop_latencies([0.5, 0.5], 1.0) == [0.5, 0.5]


def test_host_slowdown_scales_times_and_rates():
    # A host running at half speed throughout: one operation every 0.1 s
    # of 0.1 s, 0.2 CPU-s per second, calibrations reading a slowdown of 2.
    phase = harness.Phase(wall=8.0)
    for i in range(80):
        phase.latencies.append(0.1)
        phase.late.append(False)
        phase.ends.append(0.1 * (i + 1) - 1e-9)
        phase.counts.append(3)
    phase.messages = 240
    for i in range(9):
        phase.speed.append((float(i), 2.0, 2.0))
        phase.cpu_marks.append((float(i), 0.2 * i))
    assert phase.normalized() == pytest.approx([0.05] * 80)
    assert phase.rates() == pytest.approx((20.0, 60.0))
    assert phase.normalized_cpu() == pytest.approx(0.8)
    # Speed adds up over time, slowdown does not: half the time at 1,
    # half at 3, averages to a slowdown of 1.5.
    assert harness.slowdown([1.0, 3.0]) == pytest.approx(1.5)
