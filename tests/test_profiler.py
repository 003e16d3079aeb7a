"""Sampling stack profiler: span-join, worker-thread lanes, artifacts.

Covers the profiler end to end:

* enable/disable idempotence and instant-exit zero-sample runs;
* per-span sampled seconds agreeing with measured span durations
  (within generous sampling error — wall-clock sampling under the GIL);
* ``worker-<n>`` lanes from :class:`WorkerPool` threads;
* the ``repro-profile/v1`` artifact round trip (JSON + folded text) and
  :class:`TraceArtifacts`' missing-vs-malformed policy, including the
  ``repro report`` degradation path on pre-profiler trace dirs.
"""

import json
import math
import threading
import time

import pytest

from repro.cli import main
from repro.obs import profiler, trace
from repro.obs import switch
from repro.obs.artifacts import TraceArtifacts
from repro.obs.export import write_jsonl
from repro.obs.metrics import registry
from repro.obs.profiler import (PROFILE_SCHEMA, ProfileStore, folded_lines,
                                format_hotspots, hotspots, profile_artifact,
                                validate_profile_artifact, write_profile)
from repro.parallel.pool import WorkerPool


@pytest.fixture(autouse=True)
def clean_state():
    """Each test starts and ends with profiler/tracer off and empty."""
    def reset():
        switch.disable("profile")
        store = switch.get("profile")
        if store is not None:
            store.clear()
        profiler._labels.clear()
        profiler._observer.clear()
        switch.disable("trace")
        switch.get("trace").clear()
        switch.disable("events")
        switch.get("events").clear()
        registry.reset()
    reset()
    yield
    reset()


def _busy(seconds=0.3):
    """CPU-bound spin the sampler can catch (module-level: picklable)."""
    deadline = time.perf_counter() + float(seconds)
    x = 0.0
    while time.perf_counter() < deadline:
        x += math.sqrt(x + 1.0)
    return x


def _sampler_threads():
    return [t for t in threading.enumerate() if t.name == "repro-profiler"]


class TestLifecycle:
    def test_enable_disable_idempotent(self):
        assert not switch.is_on("profile")
        switch.enable(f"profile={50}")
        store = switch.get("profile")
        switch.enable(f"profile={50}")  # second enable: same store, same sampler
        assert switch.is_on("profile")
        assert switch.get("profile") is store
        assert len(_sampler_threads()) == 1
        switch.disable("profile")
        switch.disable("profile")
        assert not switch.is_on("profile")
        assert not any(t.is_alive() for t in _sampler_threads())
        # samples collected so far survive disable for export
        assert switch.get("profile") is store

    def test_enable_clear_drops_samples(self):
        switch.enable(f"profile={50}")
        switch.get("profile").add("main", (), ("m.f",), 0.02)
        assert switch.get("profile").n_samples == 1
        switch.enable("profile", clear=True)
        assert switch.get("profile").n_samples == 0
        switch.disable("profile")

    def test_instant_exit_records_zero_samples(self):
        with switch.enabled(f"profile={50}") as _on:
            store = _on["profile"]
            pass  # exits before the sampler's first sweep fires
        assert store.n_samples == 0
        assert store.sampled_seconds == 0.0
        doc = profile_artifact(store.snapshot(), run_id="r0", command="noop")
        assert validate_profile_artifact(doc) == []
        assert doc["n_samples"] == 0
        assert format_hotspots(doc) == "(no samples)"

    def test_env_off_means_cheap_noop(self):
        assert not switch.is_on("profile")
        assert profiler.active_hz() is None
        with trace.span("untraced_unprofiled"):
            _busy(0.01)
        store = switch.get("profile")
        assert store is None or store.n_samples == 0


class TestSpanJoin:
    def test_span_seconds_agree_with_measured_duration(self):
        switch.enable("trace")
        t0 = time.perf_counter()
        with switch.enabled(f"profile={250}") as _on:
            store = _on["profile"]
            with trace.span("hotwork"):
                _busy(0.4)
        elapsed = time.perf_counter() - t0
        snap = store.snapshot()
        assert snap["n_samples"] > 0
        hot = snap["span_samples"]["hotwork"]
        # Generous: wall-clock sampling under GIL contention, shared CI.
        assert 0.25 * elapsed <= hot["self_seconds"] <= 2.0 * elapsed
        assert hot["total_seconds"] >= hot["self_seconds"]
        lines = folded_lines(snap)
        assert any("span:hotwork" in ln and "_busy" in ln for ln in lines)
        assert all(ln.rsplit(" ", 1)[1].isdigit() for ln in lines)


class TestTiers:
    def test_thread_tier_worker_lanes(self):
        switch.enable("trace")
        with switch.enabled(f"profile={250}") as _on:
            store = _on["profile"]
            with trace.span("fanout"):
                pool = WorkerPool(3)
                try:
                    pool.run([lambda: _busy(0.25) for _ in range(3)])
                finally:
                    pool.close()
        snap = store.snapshot()
        assert snap["n_samples"] > 0
        worker = [e for e in snap["folded"]
                  if e["lane"].startswith("worker-")]
        assert worker, f"no worker lanes in {sorted({e['lane'] for e in snap['folded']})}"
        assert any("pool_task" in e["spans"] for e in worker)


class TestArtifact:
    def _profiled_snapshot(self):
        switch.enable("trace")
        with switch.enabled(f"profile={250}") as _on:
            store = _on["profile"]
            with trace.span("hotwork"):
                _busy(0.3)
        switch.disable("trace")
        return store.snapshot()

    def test_write_validate_roundtrip(self, tmp_path):
        snap = self._profiled_snapshot()
        json_path, folded_path = write_profile(
            str(tmp_path), snap, run_id="r1", command="decompose",
            duration_seconds=0.3)
        with open(json_path) as fh:
            doc = json.load(fh)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["run_id"] == "r1" and doc["command"] == "decompose"
        assert validate_profile_artifact(doc) == []
        with open(folded_path) as fh:
            lines = fh.read().splitlines()
        assert lines and lines == folded_lines(doc)
        rows = hotspots(doc, top=3)
        assert rows and rows[0]["self_seconds"] >= rows[-1]["self_seconds"]
        arts = TraceArtifacts(str(tmp_path))
        assert arts.profile()["n_samples"] == doc["n_samples"]
        assert arts.skipped == []

    def test_validator_flags_broken_docs(self):
        snap = self._profiled_snapshot()
        doc = profile_artifact(snap, run_id="r2", command="x")
        assert validate_profile_artifact(doc) == []
        bad = dict(doc, schema="bogus/v9")
        assert validate_profile_artifact(bad)
        bad = json.loads(json.dumps(doc))
        bad["n_samples"] += 7
        assert any("samples" in e for e in validate_profile_artifact(bad))


def _make_trace_dir(tmp_path):
    """A minimal pre-profiler trace dir: spans only, no profile.json."""
    switch.enable("trace")
    with trace.span("als_iteration"):
        with trace.span("mttkrp"):
            pass
    trace_dir = tmp_path / "tr"
    trace_dir.mkdir()
    write_jsonl(str(trace_dir / "trace.jsonl"))
    switch.disable("trace")
    switch.get("trace").clear()
    return trace_dir


class TestDegradation:
    def test_report_on_pre_profiler_trace_dir(self, tmp_path, capsys):
        trace_dir = _make_trace_dir(tmp_path)
        assert main(["report", str(trace_dir)]) == 0
        captured = capsys.readouterr()
        assert "no profile captured" in captured.out
        assert "skipped" not in captured.err

    def test_report_skips_malformed_profile(self, tmp_path, capsys):
        trace_dir = _make_trace_dir(tmp_path)
        (trace_dir / "profile.json").write_text(
            json.dumps({"schema": "bogus/v9"}))
        assert main(["report", str(trace_dir)]) == 0
        captured = capsys.readouterr()
        assert "no profile captured" in captured.out
        assert "skipped malformed profile.json" in captured.err

    def test_trace_artifacts_missing_vs_malformed(self, tmp_path):
        arts = TraceArtifacts(str(tmp_path))
        assert arts.profile() is None and arts.metrics() is None
        assert arts.skipped == []  # missing is not an error
        (tmp_path / "metrics.json").write_text("{not json")
        arts = TraceArtifacts(str(tmp_path))
        assert arts.metrics() is None
        assert [name for name, _ in arts.skipped] == ["metrics.json"]
        assert arts.metrics() is None  # cached: warn once, not per call
