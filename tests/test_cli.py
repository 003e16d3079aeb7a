"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import load_input, main
from repro.core.coo import CooTensor
from repro.io.frostt import write_tns
from repro.obs import switch
from repro.synth.lowrank import lowrank_tensor

from .helpers import random_coo


@pytest.fixture
def tns_file(tmp_path):
    t = random_coo(np.random.default_rng(0), (8, 9, 7), 60)
    path = tmp_path / "t.tns"
    write_tns(t, path)
    return str(path), t


class TestLoadInput:
    def test_tns(self, tns_file):
        path, t = tns_file
        assert load_input(path).allclose(t)

    def test_npz(self, tmp_path):
        from repro.io.cache import save_npz

        t = random_coo(np.random.default_rng(1), (5, 5), 10)
        path = tmp_path / "t.npz"
        save_npz(t, path)
        assert load_input(str(path)).allclose(t)

    def test_registry_name(self):
        t = load_input("nips", scale=0.01)
        assert t.ndim == 4

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("hi")
        with pytest.raises(ValueError, match="extension"):
            load_input(str(path))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="neither"):
            load_input("no-such-thing")


class TestCommands:
    def test_info(self, tns_file, capsys):
        path, _ = tns_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "nnz" in out and "mode 2" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "delicious" in out and "analog" in out

    def test_plan(self, capsys):
        assert main(["plan", "nips", "--scale", "0.02", "--rank", "4",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "selected:" in out

    def test_decompose_writes_model(self, tmp_path, capsys):
        planted = lowrank_tensor((8, 7, 6), rank=2, nnz=8 * 7 * 6,
                                 random_state=2)
        src = tmp_path / "x.tns"
        write_tns(planted.tensor, src)
        out_path = tmp_path / "model.npz"
        assert main([
            "decompose", str(src), "--rank", "2", "--strategy", "bdt",
            "--iters", "25", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "fit" in out
        with np.load(out_path) as data:
            assert data["weights"].shape == (2,)
            assert data["factor_0"].shape == (8, 2)
            assert data["factor_2"].shape == (6, 2)

    def test_decompose_workers_same_fit(self, tmp_path, capsys):
        """The thread-parallel engine prints the inline engine's fit."""
        planted = lowrank_tensor((8, 7, 6), rank=4, nnz=8 * 7 * 6,
                                 random_state=2)
        src = tmp_path / "x.tns"
        write_tns(planted.tensor, src)
        outputs = []
        for workers in ("1", "2"):
            assert main([
                "decompose", str(src), "--rank", "4", "--iters", "5",
                "--workers", workers, "--min-chunk-rows", "1",
            ]) == 0
            out = capsys.readouterr().out
            # the strategy line names the engine class, which differs
            outputs.append([line for line in out.splitlines()
                            if not line.startswith("strategy")])
        assert any(line.startswith("fit") for line in outputs[0])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags", [
        ["--workers", "2", "--min-chunk-rows", "0"],
        ["--workers", "2", "--min-chunk-rows", "-1"],
        ["--workers", "0"],
        ["--workers", "-3"],
        ["--workers", "1", "--min-chunk-rows", "0"],
        ["--min-chunk-rows", "-5"],
    ])
    def test_decompose_bad_parallel_inputs_exit_2(self, flags, capsys):
        """A worker count or chunk threshold below 1 is one error line and
        exit code 2, never a traceback or a silent sequential run."""
        assert main(["decompose", "nips", "--scale", "0.01", "--rank", "2",
                     "--iters", "2", *flags]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "fit" not in captured.out

    def test_decompose_process_tier(self, tmp_path, capsys):
        """The process tier and its --tier/--layout flags are gone: asking
        for them is an argparse usage error."""
        planted = lowrank_tensor((8, 7, 6), rank=2, nnz=8 * 7 * 6,
                                 random_state=2)
        src = tmp_path / "x.tns"
        write_tns(planted.tensor, src)
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(src), "--rank", "4", "--tier", "process",
                  "--workers", "2", "--layout", "alto"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tier" in err
        assert "--layout" in err

    def test_serving_commands_removed(self, capsys):
        """``repro serve``, ``repro dashboard``, ``repro complete``,
        ``decompose --nonneg`` and the experiments runner's ``--serve``
        flag are gone: asking for any of them is an argparse usage
        error."""
        from repro.experiments.runner import main as experiments_main

        for run, argv in ((main, ["serve"]), (main, ["dashboard"]),
                          (main, ["complete", "nips"]),
                          (main, ["decompose", "nips", "--nonneg"]),
                          (experiments_main, ["--serve"])):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert "invalid choice" in err or "unrecognized" in err, argv

    @pytest.mark.parametrize("command", ["plan", "explain"])
    def test_infeasible_memory_budget_exits_2(self, command, capsys):
        assert main([command, "nips", "--scale", "0.02", "--rank", "4",
                     "--memory-budget", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: no strategy fits memory budget 1 B")
        assert "smallest candidate needs" in err[0]

    def test_error_exit_code(self, capsys):
        assert main(["info", "definitely-not-a-dataset"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_log_level(self, capsys):
        import logging

        assert main(["--log-level", "warning", "datasets"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING


class TestTraceCommands:
    @pytest.fixture(autouse=True)
    def clean_obs_state(self):
        from repro.obs.metrics import registry

        yield
        switch.disable("trace")
        switch.get("trace").clear()
        registry.reset()

    def _trace_run(self, tmp_path, capsys):
        trace_dir = tmp_path / "tr"
        assert main([
            "trace", "--trace-dir", str(trace_dir),
            "decompose", "nips", "--scale", "0.01", "--rank", "2",
            "--iters", "2", "--strategy", "bdt",
        ]) == 0
        return trace_dir, capsys.readouterr().out

    def test_trace_writes_artifacts(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace_dir, out = self._trace_run(tmp_path, capsys)
        for name in ("trace.chrome.json", "trace.jsonl",
                     "trace_summary.txt", "metrics.json"):
            assert (trace_dir / name).exists(), name
        assert "traced" in out and "mttkrp" in out
        with open(trace_dir / "trace.chrome.json") as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        with open(trace_dir / "metrics.json") as fh:
            snap = json.load(fh)
        assert snap["metrics"]["counters"]["flops"] > 0
        assert "als_iteration" in snap["metrics"]["spans"]

    def test_trace_restores_disabled_state(self, tmp_path, capsys):
        assert not switch.is_on("trace")
        self._trace_run(tmp_path, capsys)
        assert not switch.is_on("trace")

    def test_report_renders_saved_trace(self, tmp_path, capsys):
        trace_dir, _ = self._trace_run(tmp_path, capsys)
        assert main(["report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "spans from" in out
        assert "mttkrp" in out and "als_iteration" in out

    def test_trace_rejects_empty_and_nested(self, capsys):
        assert main(["trace"]) == 2
        assert "missing command" in capsys.readouterr().err
        assert main(["trace", "trace", "datasets"]) == 2
        assert "cannot trace" in capsys.readouterr().err

    def test_trace_writes_events(self, tmp_path, capsys):
        from repro.obs.events import read_events, validate_events

        trace_dir, _ = self._trace_run(tmp_path, capsys)
        events = read_events(str(trace_dir / "events.jsonl"))
        assert validate_events(events) == []
        assert {e["kind"] for e in events} >= {"run_start", "iteration",
                                              "run_stop"}

    def test_report_on_missing_trace_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no trace file" in err

    def test_trace_wrapping_failing_subcommand(self, tmp_path, capsys):
        assert main([
            "trace", "--trace-dir", str(tmp_path / "tr"),
            "decompose", str(tmp_path / "no-such.tns"), "--rank", "2",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestTail:
    @pytest.fixture(autouse=True)
    def clean_obs_state(self):
        from repro.obs.metrics import registry

        yield
        switch.disable("trace")
        switch.get("trace").clear()
        switch.disable("events")
        switch.get("events").close_sink()
        switch.get("events").clear()
        registry.reset()

    @pytest.fixture
    def trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "tr"
        assert main([
            "trace", "--trace-dir", str(trace_dir),
            "decompose", "nips", "--scale", "0.01", "--rank", "2",
            "--iters", "2", "--strategy", "bdt",
        ]) == 0
        capsys.readouterr()
        return trace_dir

    def test_tail_missing_file(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tail_renders_events(self, trace_dir, capsys):
        assert main(["tail", str(trace_dir), "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "run_stop" in out

    def test_tail_n_counts_from_the_end(self, trace_dir, capsys):
        assert main(["tail", str(trace_dir), "-n", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["tail", str(trace_dir), "-n", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_tail_negative_n_is_an_error(self, trace_dir, capsys):
        assert main(["tail", str(trace_dir), "-n", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1


class TestDecomposePathImports:
    def test_heavy_scipy_subpackages_stay_unloaded(self):
        """Runs the script of the CI "Decompose-path import guard" step."""
        import os
        import subprocess
        import sys

        script = os.path.join(os.path.dirname(__file__), "decompose_imports.py")
        out = subprocess.run([sys.executable, script],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stdout + out.stderr
