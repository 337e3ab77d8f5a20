"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("e1", "e6", "e11", "a1", "a2"):
            assert name in out


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "e6"]) == 0
        out = capsys.readouterr().out
        assert "== e6" in out
        assert "half_log_lambda" in out

    def test_run_e1_prints_summary(self, capsys):
        assert main(["run", "e1"]) == 0
        out = capsys.readouterr().out
        assert "BFL throughput" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments" in err

    def test_run_trials_override(self, capsys):
        assert main(["run", "e2", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "| 2 " in out  # the trials column reflects the override

    def test_task_timeout_needs_two_workers(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["run", "e2", "--trials", "1", "--task-timeout", "5"]) == 2
        err = capsys.readouterr().err
        assert "--task-timeout" in err and "--jobs/REPRO_JOBS" in err


class TestTrace:
    @pytest.fixture(autouse=True)
    def _reset_tracer(self):
        yield
        from repro import obs

        obs.disable()  # --trace enables the process-wide tracer; undo it

    def test_run_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        assert main(["run", "e2", "--trials", "2", "--trace", str(path)]) == 0
        assert f"trace written to {path}" in capsys.readouterr().out
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "manifest"
        assert lines[0]["config"]["trials"] == 2
        types = {l["type"] for l in lines}
        assert "span" in types and "counter" in types
        names = {l["name"] for l in lines if l["type"] == "span"}
        assert "experiment.e2" in names

    def test_run_honours_repro_jobs(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_JOBS", "2")
        path = tmp_path / "t.jsonl"
        assert main(["run", "e2", "--trials", "1", "--trace", str(path)]) == 0
        capsys.readouterr()
        spans = [
            rec
            for rec in map(json.loads, path.read_text().splitlines())
            if rec["type"] == "span" and rec["name"] == "engine.run_tasks"
        ]
        assert spans and all(rec["attrs"]["jobs"] == 2 for rec in spans)

    def test_obs_report_summarizes(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        # distinct seed so the process-wide solver cache (warmed by other
        # tests) doesn't absorb the exact-solver calls this asserts on
        assert main(["run", "e2", "--trials", "2", "--seed", "777", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "experiment.e2" in out  # per-phase timings
        assert "exact.certified" in out  # solver counters
        assert "hit rate" in out  # cache hit rate

    def test_obs_report_missing_file(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestFigure:
    @pytest.mark.parametrize("number,needle", [(1, "22-node"), (2, "I_2"), (3, "clause")])
    def test_figures_print(self, capsys, number, needle):
        args = ["figure", str(number)]
        if number == 2:
            args += ["--k", "2"]
        assert main(args) == 0
        assert needle in capsys.readouterr().out

    def test_figure_validates_number(self):
        with pytest.raises(SystemExit):
            main(["figure", "4"])


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "1", "--n", "10", "--messages", "6"]) == 0
        out = capsys.readouterr().out
        assert "BFL delivers" in out
        assert "sets equal: True" in out


class TestSolve:
    @pytest.fixture
    def instance_file(self, tmp_path):
        import numpy as np

        from repro.io import save_instance
        from repro.workloads import general_instance

        inst = general_instance(np.random.default_rng(0), n=10, k=8)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        return path

    @pytest.mark.parametrize("algorithm", ["bfl", "dbfl", "edf", "exact"])
    def test_algorithms(self, capsys, instance_file, algorithm):
        assert main(["solve", str(instance_file), "--algorithm", algorithm]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_writes_schedule(self, capsys, tmp_path, instance_file):
        out = tmp_path / "sched.json"
        assert main(["solve", str(instance_file), "--out", str(out)]) == 0
        from repro.io import load_instance, load_schedule
        from repro.core.validate import validate_schedule

        validate_schedule(load_instance(instance_file), load_schedule(out))

    def test_out_writes_segment_columns(self, capsys, tmp_path, instance_file):
        import json

        from repro.core.bfl_fast import bfl_fast
        from repro.io import load_instance, load_schedule

        out = tmp_path / "sched.json"
        assert main(["solve", str(instance_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == 3
        assert set(doc["trajectories"]) == {"message_id", "source", "depart", "hops"}
        assert load_schedule(out) == bfl_fast(load_instance(instance_file))

    @pytest.mark.parametrize("algorithm", ["bfl", "dbfl", "edf", "exact"])
    def test_accepts_version_1_file(self, capsys, tmp_path, algorithm):
        # Written by `repro solve` when documents held one object per row.
        import json
        from pathlib import Path

        from repro.io import load_schedule

        data = Path(__file__).parent / "data" / "v1"
        assert json.loads((data / "instance.json").read_text())["version"] == 1
        out = tmp_path / "sched.json"
        argv = ["solve", str(data / "instance.json"), "--algorithm", algorithm]
        assert main([*argv, "--out", str(out)]) == 0
        assert "delivered" in capsys.readouterr().out
        if algorithm == "bfl":
            assert load_schedule(out) == load_schedule(data / "schedule_bfl.json")

    def test_gantt_flag(self, capsys, instance_file):
        assert main(["solve", str(instance_file), "--gantt"]) == 0
        assert "utilisation" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["bfl", "dbfl", "edf", "exact"])
    def test_right_to_left_message_is_one_line_error(self, capsys, tmp_path, algorithm):
        from repro.core.instance import Instance
        from repro.core.message import Message
        from repro.io import save_instance

        path = tmp_path / "both.json"
        save_instance(
            Instance(8, (Message(0, 0, 3, 0, 6), Message(1, 6, 2, 0, 9))), path
        )
        assert main(["solve", str(path), "--algorithm", algorithm]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "\n" not in err and "Traceback" not in err
        assert err.startswith("message 1 travels right-to-left")
        assert "repro.api.solve_bidirectional" in err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"format": "repro-instance", "version": 1, "n": 8}', "missing field 'messages'"),
            ("{not json", "not valid JSON"),
            (
                '{"format": "repro-instance", "version": 1, "n": 4, "messages": [7]}',
                "message at row 0 must be an object, got int",
            ),
            (
                '{"format": "repro-instance", "version": 1, "topology": "ring", "n": 4, '
                '"messages": [{"id": 0, "source": 0, "dest": 1, "release": 0, '
                '"deadline": 3}, "row"]}',
                "message at row 1 must be an object, got str",
            ),
        ],
    )
    def test_malformed_document_is_one_line_error(self, capsys, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and err.startswith(f"{path}: ") and match in err


class TestDataset:
    def test_list(self, capsys):
        assert main(["dataset", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-figure1" in out and "bfl-half" in out

    def test_show(self, capsys):
        assert main(["dataset", "show", "paper-figure1"]) == 0
        out = capsys.readouterr().out
        assert "22 nodes" in out
        assert "|" in out  # the lattice drawing

    def test_show_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.json"
        assert main(["dataset", "show", "paper-figure1", "--out", str(out_path)]) == 0
        from repro.io import load_instance

        assert len(load_instance(out_path)) == 6

    def test_unknown_dataset(self, capsys):
        assert main(["dataset", "show", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_command_is_gone(self, capsys):
        # perfbench/run.py is the benchmark; the CLI has no bench command
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
