"""Integration tests for the experiment harness (repro.experiments).

Each experiment runs end-to-end at smoke-test scale; assertions target the
harness mechanics (structure, persistence, judging) rather than the
performance claims themselves, which depend on machine and scale and are
asserted by the benchmark suite at benchmark scale.
"""

import json
import os

import pytest

from repro.experiments import (ExperimentResult, e1_datasets, e2_opcounts,
                               e6_memory, e9_ablations)
from repro.experiments.common import geometric_mean, iteration_seconds, setup_seconds
from repro.experiments.runner import (judge, run_experiments, write_reports)
from repro.synth.datasets import load_dataset

SCALE = 0.02


class TestCommon:
    def test_iteration_seconds_positive(self):
        tensor = load_dataset("nips", scale=SCALE)
        t = iteration_seconds(tensor, "coo", 4, repeats=1)
        assert t > 0

    def test_iteration_seconds_with_factory(self):
        from repro.core.engine import MemoizedMttkrp

        tensor = load_dataset("nips", scale=SCALE)
        t = iteration_seconds(
            tensor, lambda t: MemoizedMttkrp(t, "bdt"), 4, repeats=1
        )
        assert t > 0

    def test_setup_seconds(self):
        tensor = load_dataset("nips", scale=SCALE)
        assert setup_seconds(tensor, "splatt", 4) > 0
        assert setup_seconds(tensor, "memoized:bdt", 4) > 0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) != geometric_mean([])  # NaN

    def test_result_json_roundtrip(self):
        result = e1_datasets.run(scale=SCALE, names=["nips"])
        data = json.loads(result.to_json())
        assert data["exp_id"] == "E1"
        assert len(data["rows"]) == 1


class TestIndividualExperiments:
    def test_e1_structure(self):
        result = e1_datasets.run(scale=SCALE, names=["nips", "rand4d"])
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 2
        assert len(result.headers) == len(result.rows[0])

    def test_e2_counts_grow_with_order(self):
        result = e2_opcounts.run(scale=SCALE, rank=4, orders=(3, 5))
        ratios = result.observations["flop_ratio_by_order"]
        assert set(ratios) == {3, 5}
        assert all(r >= 1.0 for r in ratios.values())

    def test_e6_deterministic(self):
        a = e6_memory.run(scale=SCALE, rank=4, orders=(3, 4))
        b = e6_memory.run(scale=SCALE, rank=4, orders=(3, 4))
        assert a.rows == b.rows

    def test_e9b_monotone_in_skew(self):
        result = e9_ablations.run_skew_sensitivity(
            nnz=5000, dim=80, exponents=(0.0, 1.5), rank=4
        )
        ratios = result.observations["ratio_by_exponent"]
        assert ratios[1.5] >= ratios[0.0] - 0.05


class TestRunner:
    def test_run_selected(self):
        results = run_experiments(["E1"], scale=SCALE, rank=4)
        assert len(results) == 1
        assert results[0].exp_id == "E1"

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["E99"], scale=SCALE, rank=4)

    def test_judge_verdicts(self):
        result = e1_datasets.run(scale=SCALE, names=["skew4d"])
        assert judge(result) in ("yes", "NO (see table)")
        unknown = ExperimentResult(
            exp_id="EX", title="t", headers=[], rows=[],
            expected_shape="none",
        )
        assert judge(unknown) == "n/a"

    def test_write_reports(self, tmp_path):
        results = run_experiments(["E1"], scale=SCALE, rank=4)
        md = tmp_path / "EXP.md"
        write_reports(
            results, str(tmp_path / "results"), str(md),
            scale=SCALE, rank=4,
        )
        assert (tmp_path / "results" / "e1.txt").exists()
        assert (tmp_path / "results" / "e1.json").exists()
        text = md.read_text()
        assert "E1" in text and "reproduced?" in text

    def test_write_reports_no_md(self, tmp_path):
        results = run_experiments(["E1"], scale=SCALE, rank=4)
        write_reports(results, str(tmp_path / "results"), None,
                      scale=SCALE, rank=4)
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    def test_only_run_keeps_other_rows(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        def fake(exp_id, value):
            return ExperimentResult(
                exp_id=exp_id, title=f"title {exp_id}", headers=["x"],
                rows=[[value]], expected_shape=f"shape {exp_id}.",
            )

        results_dir, md = tmp_path / "results", tmp_path / "EXP.md"
        write_reports([fake("E1", 1), fake("E3", 3), fake("E10a", 10)],
                      str(results_dir), str(md), scale=1.0, rank=16)
        kept = (results_dir / "e1.json").read_text()
        monkeypatch.setitem(runner.EXPERIMENTS, "E3",
                            lambda scale, rank: fake("E3", 33))
        assert runner.main(["--only", "E3", "--scale", "0.5",
                            "--results-dir", str(results_dir),
                            "--out", str(md), "--no-history"]) == 0
        text = md.read_text()
        rows = [line.split(" | ")[0] for line in text.splitlines()
                if line.startswith("| E")]
        assert rows == ["| E1", "| E3", "| E10a"]
        assert "title E1 | shape E1 | n/a | " in text
        assert "## E1 — title E1" in text and "## E10a — title E10a" in text
        assert "scale 0.5, rank 16" in text and "scale 1.0, rank 16" in text
        assert "wall time" not in text
        assert (results_dir / "e1.json").read_text() == kept
        e3 = json.loads((results_dir / "e3.json").read_text())
        assert e3["result"]["rows"] == [[33]]


class TestExtensionExperiments:
    def test_e10_restart_amortization_positive(self):
        from repro.experiments import e10_extensions

        result = e10_extensions.run_restart_amortization(
            scale=SCALE, rank=4, name="nips", n_restarts=2, n_iter=2
        )
        assert result.observations["restart_speedup"] > 0

    def test_e11_storage_structure(self):
        from repro.experiments import e11_storage

        result = e11_storage.run(scale=SCALE, names=["nips", "enron"])
        assert len(result.rows) == 2
        obs = result.observations
        assert obs["max_tree_ratio"] <= obs["log_bound"]
        assert set(obs["hicoo_ratio_by_dataset"]) == {"nips", "enron"}

    def test_run_experiments_includes_extensions(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "E10" in EXPERIMENTS and "E11" in EXPERIMENTS
