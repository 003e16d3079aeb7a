"""Tests for planner explainability.

Covers :mod:`repro.obs.explain` (the ``repro-plan/v1`` artifact and its
validator), the ``repro explain`` / ``repro plan --json`` CLI surfaces
(``--measure`` attaches per-node / per-mode time from spans), and the
:func:`repro.model.report.format_table` ragged-input guard.
"""

import copy
import json

import pytest

from repro.cli import load_input, main
from repro.model.report import format_table
from repro.model.search import search_candidates
from repro.obs import switch
from repro.obs.explain import (PLAN_SCHEMA, explain_plan,
                               validate_plan_artifact)
from repro.synth.skewed import skewed_random_tensor


@pytest.fixture(scope="module")
def tensor4d():
    return skewed_random_tensor((30, 25, 40, 12), 3000, 1.1, random_state=5)


class TestFormatTable:
    def test_ragged_row_raises(self):
        with pytest.raises(ValueError, match="row 1 has 2 cells"):
            format_table(["a", "b", "c"], [[1, 2, 3], [1, 2]])

    def test_long_row_raises(self):
        with pytest.raises(ValueError, match="expected 2"):
            format_table(["a", "b"], [[1, 2, 3]])

    def test_empty_headers_raise(self):
        with pytest.raises(ValueError, match="header"):
            format_table([], [[1]])

    def test_well_formed_ok(self):
        out = format_table(["x", "y"], [[1, 2.5], ["a", "b"]])
        assert "x" in out and "2.5" in out


class TestExplainPlan:
    def test_artifact_valid_and_complete(self, tensor4d):
        expl = explain_plan(tensor4d, rank=8)
        artifact = expl.to_artifact()
        validate_plan_artifact(artifact)
        payload = artifact["result"]
        assert payload["schema"] == PLAN_SCHEMA
        # Every candidate the search produced must appear — no silent drops.
        assert payload["n_candidates"] == len(search_candidates(tensor4d, 8))
        names = [c["name"] for c in payload["candidates"]]
        assert payload["best"] in names
        # Older artifacts may still carry the retired execution section.
        assert "execution" not in payload
        validate_plan_artifact(
            dict(artifact, result=dict(payload, execution=None))
        )

    def test_winner_margins_and_dominant_terms(self, tensor4d):
        expl = explain_plan(tensor4d, rank=8)
        best = next(c for c in expl.candidates if c.name == expl.best)
        assert best.rank_position == 1
        assert best.margin_vs_best_seconds is None
        for cand in expl.candidates:
            if cand.name == best.name:
                continue
            assert cand.margin_vs_best_seconds >= 0.0
            assert cand.margin_dominant_term in ("flops", "words")
            assert cand.dominant_term in ("flops", "words")

    def test_per_node_terms_sum_to_totals(self, tensor4d):
        expl = explain_plan(tensor4d, rank=8)
        for cand in expl.candidates:
            assert sum(n["flops"] for n in cand.nodes) == \
                cand.flops_per_iteration
            assert sum(n["words"] for n in cand.nodes) == \
                cand.words_per_iteration

    def test_validator_rejects_tampering(self, tensor4d):
        expl = explain_plan(tensor4d, rank=8)
        good = expl.to_artifact()

        doc = copy.deepcopy(good)
        doc["result"]["candidates"][0]["nodes"][0]["flops"] += 1
        with pytest.raises(ValueError, match="sum"):
            validate_plan_artifact(doc)

        doc = copy.deepcopy(good)
        doc["result"]["candidates"].pop()
        with pytest.raises(ValueError, match="n_candidates"):
            validate_plan_artifact(doc)

        doc = copy.deepcopy(good)
        doc["result"]["schema"] = "repro-plan/v0"
        with pytest.raises(ValueError, match="schema"):
            validate_plan_artifact(doc)

    def test_summary_renders(self, tensor4d):
        expl = explain_plan(tensor4d, rank=8)
        text = expl.summary(top=3)
        assert expl.best in text
        assert "per-node" in text.lower() or "node" in text


class TestExecutionSection:
    """``repro-plan/v1`` carries no execution tier/layout block; the field
    was nullable, so artifacts that still hold ``execution: null`` stay
    valid."""

    def test_absent_without_workers(self, tensor4d):
        artifact = explain_plan(tensor4d, rank=8).to_artifact()
        assert "execution" not in artifact["result"]
        validate_plan_artifact(artifact)
        legacy = copy.deepcopy(artifact)
        legacy["result"]["execution"] = None
        validate_plan_artifact(legacy)


class TestCliSurfaces:
    def _write_tensor(self, tmp_path):
        from repro.io.frostt import write_tns

        t = skewed_random_tensor((12, 10, 14, 8), 600, 1.0, random_state=2)
        path = tmp_path / "t.tns"
        write_tns(t, path)
        return str(path), t

    def test_plan_json_envelope(self, tmp_path, capsys):
        path, t = self._write_tensor(tmp_path)
        assert main(["plan", path, "--rank", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_plan_artifact(doc)
        assert doc["schema"] == "repro-bench/v1"
        assert doc["result"]["n_candidates"] == len(search_candidates(t, 4))

    def test_plan_explain_text(self, tmp_path, capsys):
        path, _ = self._write_tensor(tmp_path)
        assert main(["plan", path, "--rank", "4", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out.lower()

    def test_explain_measure_exact(self, tmp_path, capsys):
        path, _ = self._write_tensor(tmp_path)
        assert main(["explain", path, "--rank", "4", "--measure",
                     "--iters", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_plan_artifact(doc)
        measured = doc["result"]["measured"]
        t = load_input(path)
        winner = explain_plan(t, rank=4).report.best.strategy
        assert doc["result"]["best"] == winner.name
        non_root = [n.id for n in winner.nodes if not n.is_root]
        # One row per non-root node of the winner, rebuilt once per
        # iteration; one row per mode, one MTTKRP per iteration.
        assert [row["node"] for row in measured["nodes"]] == non_root
        assert all(row["rebuilds"] == 2 for row in measured["nodes"])
        assert all(row["seconds"] > 0 for row in measured["nodes"])
        assert [row["mode"] for row in measured["modes"]] == \
            list(range(t.ndim))
        assert all(row["mttkrps"] == 2 for row in measured["modes"])
        assert not switch.is_on("trace")

    def test_explain_out_file(self, tmp_path, capsys):
        path, _ = self._write_tensor(tmp_path)
        out_path = tmp_path / "plan.json"
        assert main(["explain", path, "--rank", "4",
                     "--out", str(out_path)]) == 0
        with open(out_path) as fh:
            validate_plan_artifact(json.load(fh))
