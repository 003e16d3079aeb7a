"""Tests for the live-telemetry layer: events, serve, utilization."""

import json
import urllib.request

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.obs import events as obs_events
from repro.obs import switch
from repro.obs.metrics import registry
from repro.obs.serve import (ObsServer, load_trace_dir, render_openmetrics,
                             validate_openmetrics)
from repro.obs.trace import SpanRecord
from repro.obs.utilization import (format_utilization,
                                   utilization_from_spans)
from repro.synth.lowrank import lowrank_tensor


@pytest.fixture(autouse=True)
def clean_telemetry_state():
    """Every test starts and ends with events/trace off and state empty."""
    def reset():
        switch.disable("trace")
        switch.get("trace").clear()
        switch.disable("events")
        switch.get("events").close_sink()
        switch.get("events").clear()
        switch.disable("mem")
        switch.get("mem").reset()
        registry.reset()

    reset()
    yield
    reset()


def emit_run(n_iters=3, seconds=0.5):
    """A canned run_start / iteration* / run_stop event sequence."""
    switch.enable("events")
    obs_events.emit("run_start", shape=[4, 4, 4], nnz=30, rank=2,
                    strategy="bdt", n_iter_max=10, tol=1e-5)
    for i in range(n_iters):
        obs_events.emit("iteration", iteration=i, fit=0.5 + 0.1 * i,
                        seconds=seconds)
    obs_events.emit("run_stop", n_iterations=n_iters, converged=False,
                    fit=0.5 + 0.1 * (n_iters - 1),
                    total_seconds=seconds * n_iters)


class TestEventLog:
    def test_disabled_emits_nothing(self):
        assert not switch.is_on("events")
        assert obs_events.emit("warning", message="x") is None
        assert len(switch.get("events")) == 0

    def test_envelope_stamped(self):
        switch.enable("events")
        event = obs_events.emit("warning", message="hello")
        assert event["schema"] == obs_events.EVENTS_SCHEMA
        assert event["kind"] == "warning"
        assert event["seq"] == 1
        assert isinstance(event["t"], float)

    def test_ring_drops_oldest(self):
        log = obs_events.EventLog(maxlen=3)
        for i in range(5):
            log.emit("warning", message=str(i))
        assert len(log) == 3
        assert log.n_dropped == 2
        assert [e["message"] for e in log.tail()] == ["2", "3", "4"]

    def test_sink_flushed_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        switch.enable(f"events={path}")
        obs_events.emit("warning", message="first")
        # Visible on disk before any close: the sink flushes per event.
        events = obs_events.read_events(str(path))
        assert len(events) == 1 and events[0]["message"] == "first"

    def test_write_jsonl_roundtrip(self, tmp_path):
        emit_run(n_iters=2)
        path = tmp_path / "dump.jsonl"
        n = switch.get("events").write_jsonl(str(path))
        events = obs_events.read_events(str(path))
        assert len(events) == n == 4
        assert obs_events.validate_events(events) == []

    def test_replay_restores_run_state(self, tmp_path):
        emit_run(n_iters=3)
        path = tmp_path / "dump.jsonl"
        switch.get("events").write_jsonl(str(path))
        events = obs_events.read_events(str(path))

        fresh = obs_events.EventLog()
        assert fresh.replay(events) == 5
        assert fresh.run.iteration == 2
        assert fresh.run.converged is False
        assert not fresh.run.active

    def test_logging_events_restores_disabled(self):
        assert not switch.is_on("events")
        with switch.enabled("events") as _on:
            log = _on["events"]
            assert switch.is_on("events")
            obs_events.emit("warning", message="inside")
            assert len(log) == 1
        assert not switch.is_on("events")

    def test_validate_catches_broken_events(self):
        errors = obs_events.validate_events([
            {"schema": "wrong", "kind": "warning", "t": 1.0, "seq": 1,
             "message": "x"},
            {"schema": obs_events.EVENTS_SCHEMA, "kind": "iteration",
             "t": 2.0, "seq": 1},
            "not-a-dict",
        ])
        assert any("schema" in e for e in errors)
        assert any("not increasing" in e for e in errors)
        assert any("missing" in e for e in errors)
        assert any("not an object" in e for e in errors)

    def test_format_event_one_line(self):
        line = obs_events.format_event(
            {"schema": obs_events.EVENTS_SCHEMA, "kind": "iteration",
             "t": 0.0, "seq": 1, "iteration": 2, "fit": 0.75}
        )
        assert "\n" not in line
        assert "iteration=2" in line and "fit=0.75" in line


class TestRunState:
    def test_fold_and_eta(self):
        emit_run(n_iters=4, seconds=0.5)
        run = switch.get("events").run
        assert run.rate_seconds_per_iteration() == pytest.approx(0.5)
        # run_stop deactivates the run, so the ETA is gone.
        assert run.eta_seconds() is None
        doc = run.to_dict()
        assert doc["iteration"] == 3
        assert doc["n_iter_max"] == 10
        assert doc["converged"] is False

    def test_eta_while_active(self):
        switch.enable("events")
        obs_events.emit("run_start", shape=[4], nnz=1, rank=1,
                        strategy="bdt", n_iter_max=10)
        obs_events.emit("iteration", iteration=0, fit=0.1, seconds=2.0)
        run = switch.get("events").run
        # 9 iterations left at 2 s each.
        assert run.eta_seconds() == pytest.approx(18.0)

    def test_cpals_emits_schema_valid_events(self):
        planted = lowrank_tensor((6, 5, 4), rank=2, nnz=80, random_state=0)
        with switch.enabled("events") as _on:
            log = _on["events"]
            result = cp_als(planted.tensor, rank=2, strategy="bdt",
                            n_iter_max=3, tol=0.0, random_state=1)
        events = log.tail()
        assert obs_events.validate_events(events) == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_stop"
        iterations = [e for e in events if e["kind"] == "iteration"]
        assert len(iterations) == len(result.fits)
        assert iterations[-1]["fit"] == pytest.approx(result.fits[-1])


class TestOpenMetrics:
    def test_render_validates(self):
        emit_run()
        registry.observe_span("mttkrp", 0.01)
        registry.observe_span("mttkrp", 0.5)
        registry.set_gauge("pool.imbalance", 1.25)
        text = render_openmetrics()
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")
        assert "repro_pool_imbalance 1.25" in text
        assert "repro_run_fit" in text
        assert 'repro_span_duration_seconds_count{kind="mttkrp"} 2' in text

    def test_histogram_buckets_cumulative(self):
        registry.observe_span("kernel", 0.001)
        registry.observe_span("kernel", 0.002)
        text = render_openmetrics()
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_span_duration_seconds_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in lines[-1] and counts[-1] == 2

    def test_validator_catches_breakage(self):
        assert validate_openmetrics("repro_x 1\n") != []  # no TYPE, no EOF
        bad = "# TYPE repro_c counter\nrepro_c 1\n# EOF\n"
        assert any("_total" in e for e in validate_openmetrics(bad))


class TestObsServer:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()

    def test_scrape_endpoints(self):
        emit_run()
        registry.set_gauge("pool.imbalance", 1.1)
        with ObsServer(port=0) as server:
            status, body = self._get(server.url + "/metrics")
            assert status == 200
            assert validate_openmetrics(body) == []
            assert "repro_pool_imbalance" in body

            status, body = self._get(server.url + "/healthz")
            assert (status, body) == (200, "ok\n")

            status, body = self._get(server.url + "/runz")
            doc = json.loads(body)
            assert doc["run"]["iteration"] == 2
            assert doc["events"]["buffered"] == 5
            assert doc["last_events"][-1]["kind"] == "run_stop"

    def test_unknown_path_404(self):
        with ObsServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._get(server.url + "/nope")
            assert exc.value.code == 404

    def test_occupied_port_raises(self):
        with ObsServer(port=0) as server:
            with pytest.raises(OSError):
                ObsServer(port=server.port)


class TestLoadTraceDir:
    def test_missing_artifacts_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no trace artifacts"):
            load_trace_dir(str(tmp_path))

    def test_replays_events_and_metrics(self, tmp_path):
        emit_run(n_iters=2)
        switch.get("events").write_jsonl(str(tmp_path / "events.jsonl"))
        with open(tmp_path / "metrics.json", "w") as fh:
            json.dump({"metrics": {"gauges": {"pool.imbalance": 1.5},
                                   "counters": {"flops": 123},
                                   "events": {"drift.warnings": 2}}}, fh)
        switch.get("events").clear()
        registry.reset()

        loaded = load_trace_dir(str(tmp_path))
        assert loaded["events"] == 4
        assert loaded["gauges"] == 1
        text = render_openmetrics()
        assert "repro_pool_imbalance 1.5" in text
        assert "repro_counter_flops_total 123" in text
        assert switch.get("events").run.iteration == 1


def task_span(id, parent, worker, t0, t1, wait=0.0):
    return SpanRecord(id=id, parent=parent, kind="pool_task", t0=t0, t1=t1,
                      tid=0, attrs={"index": 0, "worker": worker,
                                    "queue_wait": wait})


class TestUtilization:
    def test_no_pool_tasks_is_none(self):
        spans = [SpanRecord(1, None, "mttkrp", 0.0, 0, {}, t1=1.0)]
        assert utilization_from_spans(spans) is None

    def test_worker_and_fanout_math(self):
        # Iteration span 1 encloses fan-out parent 2 with two tasks:
        # worker 0 busy 1.0s, worker 1 busy 3.0s -> imbalance 2/1.33 = 1.5.
        it = SpanRecord(1, None, "als_iteration", 0.0, 0,
                        {"iteration": 0}, t1=4.0)
        par = SpanRecord(2, 1, "mttkrp", 0.0, 0, {}, t1=4.0)
        spans = [
            it, par,
            task_span(3, 2, worker=0, t0=0.0, t1=1.0),
            task_span(4, 2, worker=1, t0=0.0, t1=3.0, wait=0.25),
        ]
        report = utilization_from_spans(spans)
        assert report.n_tasks == 2
        assert report.window_seconds == pytest.approx(3.0)
        by_worker = {w.worker: w for w in report.workers}
        assert by_worker[0].busy_seconds == pytest.approx(1.0)
        assert by_worker[1].busy_fraction == pytest.approx(1.0)
        assert by_worker[1].queue_wait_max == pytest.approx(0.25)
        (fanout,) = report.fanouts
        assert fanout.iteration == 0
        assert fanout.imbalance == pytest.approx(3.0 / 2.0)
        (iteration,) = report.iterations
        assert iteration.wall_seconds == pytest.approx(4.0)
        assert iteration.imbalance == pytest.approx(1.5)
        assert report.mean_imbalance == pytest.approx(1.5)

    def test_format_renders_tables(self):
        it = SpanRecord(1, None, "als_iteration", 0.0, 0,
                        {"iteration": 0}, t1=2.0)
        spans = [it,
                 task_span(2, 1, worker=0, t0=0.0, t1=1.0),
                 task_span(3, 1, worker=1, t0=0.0, t1=1.0)]
        text = format_utilization(utilization_from_spans(spans))
        assert "pool utilization" in text
        assert "worker" in text and "imbalance" in text

    def test_live_engine_produces_report(self):
        from repro.parallel.engine import ParallelMemoizedMttkrp

        from .helpers import random_coo, random_factors

        rng = np.random.default_rng(0)
        t = random_coo(rng, (12, 11, 10, 9), 400)
        factors = random_factors(rng, t.shape, 3)
        with switch.enabled("trace"):
            with ParallelMemoizedMttkrp(t, "bdt", factors, n_workers=2,
                                        min_chunk_rows=1) as eng:
                eng.mttkrp(0)
        report = utilization_from_spans(switch.get("trace").finished())
        assert report is not None
        assert report.n_tasks >= 2
        assert all(w.busy_fraction <= 1.0 + 1e-9 for w in report.workers)
        assert report.mean_imbalance >= 1.0


class TestDashboardUtilization:
    def test_worker_lanes_rendered(self):
        from repro.obs.dashboard import render_dashboard

        it = SpanRecord(1, None, "als_iteration", 0.0, 0,
                        {"iteration": 0}, t1=2.0)
        spans = [it,
                 task_span(2, 1, worker=0, t0=0.0, t1=1.0),
                 task_span(3, 1, worker=1, t0=0.5, t1=2.0)]
        report = utilization_from_spans(spans)
        tasks = [{"worker": s.attrs["worker"], "t0": s.t0, "t1": s.t1,
                  "queue_wait": s.attrs["queue_wait"], "parent": s.parent}
                 for s in spans if s.kind == "pool_task"]
        doc = render_dashboard(utilization=report, pool_tasks=tasks)
        assert "Worker utilization" in doc
        assert "worker 0" in doc and "worker 1" in doc
        assert "mean imbalance" in doc

    def test_section_absent_without_data(self):
        from repro.obs.dashboard import render_dashboard

        assert "Worker utilization" not in render_dashboard()
