"""Tests for the live-telemetry layer: events and utilization."""

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.obs import events as obs_events
from repro.obs import switch
from repro.obs.metrics import registry
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
