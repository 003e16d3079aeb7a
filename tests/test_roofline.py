"""Tests for roofline calibration (repro.model.calibrate) and the
achieved-throughput attribution layer (repro.obs.roofline)."""

import json
import os

import pytest

from repro.model.calibrate import (calibrate_roofline, default_machine_path,
                                   load_roofline, machine_artifact,
                                   measure_roofline, reset_calibration,
                                   validate_machine_artifact)
from repro.model.cost import (DEFAULT_EXECUTION, ExecutionParams,
                              FALLBACK_BANDWIDTH_WORKERS,
                              resolve_bandwidth_workers)
from repro.obs.roofline import (ConfigThroughput, publish_roofline_gauges,
                                report_from_trace_dir, report_line,
                                roofline_report, throughput_from_spans,
                                tree_node_terms)
from repro.obs.trace import SpanRecord

QUICK = dict(n_elements=50_000, repeats=1, matmul_n=64, max_threads=2)


@pytest.fixture
def machine_path(tmp_path, monkeypatch):
    """Isolate every test from the user's cached calibration artifact."""
    path = str(tmp_path / "machine.json")
    monkeypatch.setenv("REPRO_MACHINE", path)
    reset_calibration()
    yield path
    reset_calibration()


@pytest.fixture(scope="module")
def quick_roofline():
    return measure_roofline(quick=True, **QUICK)


class TestMeasureRoofline:
    def test_structure(self, quick_roofline):
        r = quick_roofline
        threads = [p.threads for p in r.bandwidth_points]
        assert threads[0] == 1 and threads == sorted(set(threads))
        assert all(p.triad_gbs > 0 and p.gather_gbs > 0
                   for p in r.bandwidth_points)
        assert r.peak_bandwidth_gbs > 0 and r.peak_gflops > 0
        assert r.saturation_workers in threads
        assert r.quick

    def test_round_trip(self, quick_roofline):
        again = type(quick_roofline).from_dict(quick_roofline.to_dict())
        assert again.to_dict() == quick_roofline.to_dict()

    def test_summary_renders(self, quick_roofline):
        text = quick_roofline.summary()
        assert "saturates" in text and "GB/s" in text


class TestMachineArtifact:
    def test_calibrate_writes_and_validates(self, machine_path):
        r = calibrate_roofline(quick=True)
        assert os.path.exists(machine_path)
        with open(machine_path) as fh:
            validate_machine_artifact(json.load(fh))
        assert default_machine_path() == machine_path
        # load-only path reads the same ceilings back
        loaded = load_roofline()
        assert loaded is not None
        assert loaded.to_dict() == r.to_dict()

    def test_second_call_loads_without_measuring(self, machine_path):
        r1 = calibrate_roofline(quick=True)
        r2 = calibrate_roofline(quick=True)
        assert r2 is r1  # in-process memo
        reset_calibration()
        r3 = calibrate_roofline(quick=True)  # disk hit, no re-measure
        assert r3.to_dict() == r1.to_dict()

    def test_load_missing_or_corrupt_is_none(self, machine_path):
        assert load_roofline() is None
        with open(machine_path, "w") as fh:
            fh.write("{not json")
        assert load_roofline() is None

    def test_validator_rejects_structural_damage(self, quick_roofline):
        good = machine_artifact(quick_roofline)
        validate_machine_artifact(good)
        bad = json.loads(json.dumps(good))
        bad["result"]["schema"] = "repro-machine/v0"
        with pytest.raises(ValueError):
            validate_machine_artifact(bad)
        bad = json.loads(json.dumps(good))
        bad["result"]["roofline"]["bandwidth_points"].reverse()
        if len(bad["result"]["roofline"]["bandwidth_points"]) > 1:
            with pytest.raises(ValueError):
                validate_machine_artifact(bad)
        bad = json.loads(json.dumps(good))
        bad["result"]["roofline"]["saturation_workers"] = 99
        with pytest.raises(ValueError):
            validate_machine_artifact(bad)
        bad = json.loads(json.dumps(good))
        bad["result"]["roofline"]["peak_bandwidth_gbs"] = 0.0
        with pytest.raises(ValueError):
            validate_machine_artifact(bad)


class TestBandwidthWorkers:
    def test_explicit_wins(self, machine_path):
        calibrate_roofline(quick=True)
        value, source = resolve_bandwidth_workers(
            ExecutionParams(bandwidth_workers=3)
        )
        assert (value, source) == (3, "explicit")

    def test_default_without_artifact(self, machine_path):
        value, source = resolve_bandwidth_workers(DEFAULT_EXECUTION)
        assert (value, source) == (FALLBACK_BANDWIDTH_WORKERS, "default")

    def test_calibrated_saturation_point(self, machine_path):
        r = calibrate_roofline(quick=True)
        value, source = resolve_bandwidth_workers(DEFAULT_EXECUTION)
        assert source == "calibrated"
        assert value == r.saturation_workers


def _span(kind, seconds, **attrs):
    return SpanRecord(id=1, parent=None, kind=kind, t0=0.0, tid=0,
                      attrs=attrs, t1=seconds)


class TestThroughputJoins:
    def test_tree_join_prices_node_rebuilds(self):
        node_terms = {7: {"flops": 4000.0, "words": 1000.0}}
        configs = throughput_from_spans(
            [_span("node_rebuild", 0.001, node=7)] * 2,
            node_terms=node_terms,
        )
        (c,) = configs
        assert c.config == "thread/tree"
        assert c.spans == 2
        assert c.flops == 8000.0
        assert c.bytes_moved == 2 * 1000.0 * 8
        assert c.gflops == pytest.approx(8000.0 / 0.002 / 1e9)

    def test_join_inputs_missing_skips(self):
        assert throughput_from_spans(
            [_span("node_rebuild", 0.001, node=3)]
        ) == []                                          # no node terms
        assert throughput_from_spans(
            [_span("node_rebuild", 0.001)],
            node_terms={3: {"flops": 1.0, "words": 1.0}},
        ) == []                                          # no node attr

    def test_tree_node_terms_excludes_scatter_and_root(self):
        from repro.core.strategy import balanced_binary
        from repro.core.symbolic import SymbolicTree
        from repro.synth.skewed import skewed_random_tensor

        t = skewed_random_tensor((20, 20, 20, 20), 500, 1.0, random_state=0)
        strategy = balanced_binary(4)
        terms = tree_node_terms(
            strategy, SymbolicTree(t, strategy).node_nnz(), 8
        )
        assert terms and all(v["words"] >= 0 for v in terms.values())


class TestRooflineReport:
    def test_uncalibrated_degrades_gracefully(self, machine_path):
        c = ConfigThroughput(config="thread/tree", spans=1, seconds=0.1,
                             flops=1e8, bytes_moved=1e8, source="spans+model")
        report = roofline_report([c])
        assert not report.calibrated
        assert c.bandwidth_fraction is None
        assert any("uncalibrated" in n for n in report.notes)
        assert "uncalibrated" in report_line(report)
        assert report.guidance() == []
        assert "thread/tree" in report.summary()

    def test_calibrated_fractions_and_guidance(self, quick_roofline):
        fast = ConfigThroughput(
            config="thread/tree", spans=1, seconds=1.0, flops=1e6,
            bytes_moved=0.8 * quick_roofline.peak_bandwidth_gbs * 1e9,
            source="spans+model",
        )
        slow = ConfigThroughput(
            config="attr/bdt", spans=1, seconds=1.0, flops=1e6,
            bytes_moved=0.1 * quick_roofline.peak_bandwidth_gbs * 1e9,
            source="spans+model",
        )
        report = roofline_report([fast, slow], quick_roofline, load=False)
        assert fast.bandwidth_fraction == pytest.approx(0.8)
        assert report.best() is fast
        saturated = [g for g in report.guidance() if "cannot help" in g]
        assert saturated and "thread/tree" in saturated[0]
        assert "80%" in report_line(report)
        doc = report.to_dict()
        assert doc["schema"] == "repro-roofline/v1"
        assert doc["calibrated"] and len(doc["configs"]) == 2

    def test_trace_dir_missing_artifacts(self, tmp_path, machine_path):
        report = report_from_trace_dir(str(tmp_path))
        assert not report.calibrated
        assert not report.configs
        assert any("no metrics.json" in n for n in report.notes)
        assert "uncalibrated" in report_line(report)

    def test_trace_dir_config_from_metrics(self, tmp_path, quick_roofline):
        # The run's counted work over its summed mttkrp span seconds.
        doc = {"run_id": "run-0", "metrics": {
            "counters": {"flops": 2_000_000_000, "words": 100_000_000},
            "spans": {"mttkrp": {"count": 40, "total_seconds": 0.5}},
        }}
        with open(tmp_path / "metrics.json", "w") as fh:
            json.dump(doc, fh)
        report = report_from_trace_dir(str(tmp_path), quick_roofline)
        (c,) = report.configs
        assert c.config == "counters" and c.source == "metrics.json"
        assert c.spans == 40 and c.seconds == 0.5
        assert c.gflops == pytest.approx(4.0)
        assert c.gbs == pytest.approx(1e8 * 8 / 0.5 / 1e9)
        assert c.bandwidth_fraction == pytest.approx(
            c.gbs / quick_roofline.peak_bandwidth_gbs)
        assert report.notes == []
        assert "best counters" in report_line(report)
        # No timed MTTKRP (or a malformed file): no config, no guess.
        doc["metrics"]["spans"] = {}
        with open(tmp_path / "metrics.json", "w") as fh:
            json.dump(doc, fh)
        assert report_from_trace_dir(str(tmp_path), quick_roofline,
                                     load=False).configs == []
        (tmp_path / "metrics.json").write_text("{not json")
        assert report_from_trace_dir(str(tmp_path), quick_roofline,
                                     load=False).configs == []

    def test_trace_dir_prefers_snapshotted_machine(self, tmp_path,
                                                   quick_roofline,
                                                   machine_path):
        with open(tmp_path / "machine.json", "w") as fh:
            json.dump(machine_artifact(quick_roofline), fh)
        report = report_from_trace_dir(str(tmp_path))
        assert report.calibrated
        assert (report.roofline.peak_bandwidth_gbs
                == quick_roofline.peak_bandwidth_gbs)

    def test_gauges_published_to_registry(self, quick_roofline):
        from repro.obs.metrics import registry

        c = ConfigThroughput(config="attr/my-tree", spans=1, seconds=0.1,
                             flops=1e8, bytes_moved=1e8, source="spans+model")
        roofline_report([c], quick_roofline, load=False)
        registry.reset()
        publish_roofline_gauges(quick_roofline, [c])
        try:
            gauges = registry.snapshot()["gauges"]
        finally:
            registry.reset()
        assert gauges["roofline.peak_bandwidth_gbs"] == \
            quick_roofline.peak_bandwidth_gbs
        assert gauges["roofline.saturation_workers"] == \
            quick_roofline.saturation_workers
        assert gauges["roofline.fraction.attr.my_tree"] == \
            c.bandwidth_fraction
        for point in quick_roofline.bandwidth_points:
            assert f"roofline.triad_gbs.t{point.threads}" in gauges


class TestRooflineCli:
    def test_quick_json(self, machine_path, capsys):
        from repro.cli import main

        assert main(["roofline", "--quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-roofline/v1"
        assert doc["calibrated"]
        assert os.path.exists(machine_path)

    def test_trace_dir_report(self, machine_path, tmp_path, capsys):
        from repro.cli import main

        assert main(["roofline", "--quick"]) == 0
        capsys.readouterr()
        assert main(["roofline", "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "machine artifact" in out
