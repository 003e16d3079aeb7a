"""Tests for the observability stack: tracer, exporters, metrics, memory."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.core.engine import MemoizedMttkrp
from repro.core.strategy import balanced_binary
from repro.model.cost import cost_from_symbolic
from repro.obs import export, switch, trace
from repro.obs import memory as obs_memory
from repro.obs.buildinfo import (artifact_envelope, build_info,
                                 version_string)
from repro.obs.metrics import metrics, registry
from repro.obs.observer import IterationRecord
from repro.parallel.engine import ParallelMemoizedMttkrp

from .helpers import random_coo


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with tracing off and empty global state."""
    switch.disable("trace")
    switch.get("trace").clear()
    switch.disable("mem")
    switch.get("mem").reset()
    registry.reset()
    yield
    switch.disable("trace")
    switch.get("trace").clear()
    switch.disable("mem")
    switch.get("mem").reset()
    registry.reset()


def small_engine(parallel=False, rank=4, **kwargs):
    rng = np.random.default_rng(0)
    t = random_coo(rng, (12, 11, 10, 9), 400)
    factors = [rng.standard_normal((d, rank)) for d in t.shape]
    cls = ParallelMemoizedMttkrp if parallel else MemoizedMttkrp
    return cls(t, balanced_binary(4), factors, **kwargs)


class TestSpans:
    def test_disabled_records_nothing(self):
        assert not switch.is_on("trace")
        with trace.span("mttkrp", mode=0) as rec:
            assert rec is None
        assert len(switch.get("trace")) == 0

    def test_disabled_span_is_shared_singleton(self):
        assert trace.span("a") is trace.span("b", x=1)

    def test_nesting_sets_parent(self):
        switch.enable("trace", clear=True)
        with trace.span("outer") as outer:
            assert trace.current_span_id() == outer.id
            with trace.span("inner") as inner:
                assert inner.parent == outer.id
        assert trace.current_span_id() is None
        spans = switch.get("trace").finished()
        assert [s.kind for s in spans] == ["inner", "outer"]  # exit order
        assert spans[1].parent is None
        assert all(s.duration >= 0 for s in spans)

    def test_tracing_context_restores_state(self):
        assert not switch.is_on("trace")
        with switch.enabled("trace"):
            assert switch.is_on("trace")
            with trace.span("x"):
                pass
        assert not switch.is_on("trace")
        assert len(switch.get("trace")) == 1

    def test_attrs_recorded(self):
        switch.enable("trace", clear=True)
        with trace.span("node_rebuild", node=(0, 1), nnz=42):
            pass
        (rec,) = switch.get("trace").finished()
        assert rec.attrs == {"node": (0, 1), "nnz": 42}

    def test_engine_emits_expected_kinds(self):
        engine = small_engine()
        switch.enable("trace", clear=True)
        engine.mttkrp(0)
        kinds = {s.kind for s in switch.get("trace").finished()}
        assert {"mttkrp", "node_rebuild", "kernel"} <= kinds

    def test_spans_feed_metrics(self):
        switch.enable("trace", clear=True)
        with trace.span("mttkrp", mode=0):
            pass
        snap = metrics()
        assert snap["spans"]["mttkrp"]["count"] == 1
        assert snap["spans"]["mttkrp"]["total_seconds"] >= 0


class TestPoolNesting:
    def test_worker_spans_nest_under_engine_span(self):
        engine = small_engine(parallel=True, n_workers=2, min_chunk_rows=1)
        try:
            switch.enable("trace", clear=True)
            engine.mttkrp(0)
        finally:
            engine.close()
        spans = {s.id: s for s in switch.get("trace").finished()}
        pool_tasks = [s for s in spans.values() if s.kind == "pool_task"]
        chunks = [s for s in spans.values() if s.kind == "kernel_chunk"]
        assert pool_tasks and chunks

        def root_kind(s):
            while s.parent is not None:
                s = spans[s.parent]
            return s.kind

        # Every worker-side span must resolve through node_rebuild to the
        # engine's mttkrp span even though it ran on a pool thread.
        for s in pool_tasks + chunks:
            assert s.parent in spans
            assert root_kind(s) == "mttkrp"
        assert any(
            spans[s.parent].kind == "pool_task" for s in chunks
        )


class TestTracedChunkedRun:
    def test_kernel_chunks_nest_under_pool_tasks(self, tmp_path):
        """The CI traced run (2 workers, every rebuild chunked) shows the
        span kinds CI requires, each ``kernel_chunk`` inside a
        ``pool_task``.  An explicit worker count is honoured on any number
        of CPUs, so this holds on one CPU too."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_MACHINE"] = str(tmp_path / "no-machine.json")
        subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--trace-dir",
             str(tmp_path), "decompose", "nips", "--scale", "0.02",
             "--rank", "4", "--iters", "3", "--strategy", "bdt",
             "--workers", "2", "--min-chunk-rows", "1"],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        with open(tmp_path / "trace.chrome.json") as fh:
            doc = json.load(fh)
        spans = {e["args"]["id"]: e["args"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        kinds = {a["kind"] for a in spans.values()}
        assert {"als_iteration", "mttkrp", "node_rebuild", "kernel_chunk",
                "pool_task"} <= kinds
        chunks = [a for a in spans.values() if a["kind"] == "kernel_chunk"]
        assert all(spans[a["parent"]]["kind"] == "pool_task" for a in chunks)


class TestExporters:
    def _traced_spans(self):
        engine = small_engine()
        switch.enable("trace", clear=True)
        engine.mttkrp(1)
        return switch.get("trace").finished()

    def test_chrome_trace_is_valid(self):
        spans = self._traced_spans()
        doc = export.to_chrome_trace(spans)
        assert export.validate_chrome_trace(doc) == []
        assert doc["otherData"]["span_count"] == len(spans)
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == len(spans)
        assert {e["args"]["kind"] for e in x_events} == {
            s.kind for s in spans
        }

    def test_chrome_trace_file_round_trip(self, tmp_path):
        spans = self._traced_spans()
        path = tmp_path / "trace.chrome.json"
        export.write_chrome_trace(str(path), spans)
        with open(path) as fh:
            doc = json.load(fh)
        assert export.validate_chrome_trace(doc) == []

    def test_validator_rejects_malformed(self):
        assert export.validate_chrome_trace([]) != []
        assert export.validate_chrome_trace({"traceEvents": {}}) != []
        bad_event = {
            "traceEvents": [{"name": "x", "ph": "X", "ts": -1.0,
                             "pid": 1, "tid": 1}],
            "otherData": {"schema": export.CHROME_SCHEMA},
        }
        problems = export.validate_chrome_trace(bad_event)
        assert any("dur" in p for p in problems)
        assert any("ts" in p for p in problems)

    def test_jsonl_round_trip_lossless(self, tmp_path):
        spans = self._traced_spans()
        path = tmp_path / "trace.jsonl"
        assert export.write_jsonl(str(path), spans) == len(spans)
        back = export.read_jsonl(str(path))
        assert back == spans

    def test_tree_summary_shows_hierarchy(self):
        self._traced_spans()
        text = export.tree_summary()
        assert "mttkrp" in text
        # children are indented under the mttkrp root
        assert any(line.startswith("  ") for line in text.splitlines())

    def test_tree_summary_elides_long_sibling_lists(self):
        switch.enable("trace", clear=True)
        with trace.span("root"):
            for i in range(30):
                with trace.span("child", index=i):
                    pass
        text = export.tree_summary(max_children=6)
        assert "siblings elided" in text
        assert text.count("child") < 30

    def test_kind_table(self):
        self._traced_spans()
        table = export.kind_table()
        assert "mttkrp" in table and "count" in table

    def test_empty_trace(self):
        assert export.tree_summary([]) == "(no spans recorded)"
        assert export.validate_chrome_trace(export.to_chrome_trace([])) == []


class TestCpAlsTracing:
    def test_span_tree_covers_engine_time(self):
        t = random_coo(np.random.default_rng(4), (14, 13, 12, 11), 800)
        n_iter = 3
        switch.enable("trace", clear=True)
        cp_als(t, 4, strategy=balanced_binary(4), n_iter_max=n_iter,
               random_state=1)
        spans = switch.get("trace").finished()
        iters = [s for s in spans if s.kind == "als_iteration"]
        mttkrps = [s for s in spans if s.kind == "mttkrp"]
        assert len(iters) == n_iter
        assert len(mttkrps) == n_iter * 4  # one per mode per iteration
        assert {s.attrs["mode"] for s in mttkrps} == {0, 1, 2, 3}
        # every mttkrp nests (possibly transitively) under an iteration
        by_id = {s.id: s for s in spans}
        for s in mttkrps:
            cur = s
            while cur.parent is not None:
                cur = by_id[cur.parent]
            assert cur.kind == "als_iteration"
        # per-iteration child spans fit inside their parent's window
        for it in iters:
            for child in (s for s in spans if s.parent == it.id):
                assert child.t0 >= it.t0 - 1e-9
                assert child.t1 <= it.t1 + 1e-9


class TestBuildInfo:
    def test_build_info_keys(self):
        info = build_info()
        assert {"version", "git_rev", "python", "numpy"} <= set(info)

    def test_version_string(self):
        s = version_string()
        assert s.startswith("repro ") and "python" in s

    def test_artifact_envelope(self):
        env = artifact_envelope("E3", {"x": 1}, scale=0.1)
        assert env["schema"] == "repro-bench/v1"
        assert env["artifact_id"] == "E3"
        assert env["result"] == {"x": 1}
        assert env["meta"]["scale"] == 0.1
        assert "timestamp" in env["meta"] and "git_rev" in env["meta"]
        json.dumps(env)  # JSON-serializable end to end


class TestMetricsRegistry:
    def test_gauges_and_events(self):
        registry.set_gauge("g", 2.5)
        registry.incr("e")
        registry.incr("e", 2)
        snap = metrics()
        assert snap["gauges"]["g"] == 2.5
        assert snap["events"]["e"] == 3

    def test_kernel_resolution_counted(self):
        from repro.kernels import get_kernel

        get_kernel("numpy")
        assert metrics()["events"]["kernel.resolved.numpy"] >= 1

    def test_histogram_buckets(self):
        registry.observe_span("k", 0.001)
        registry.observe_span("k", 0.002)
        stats = metrics()["spans"]["k"]
        assert stats["count"] == 2
        assert sum(stats["log2_buckets"].values()) == 2


class TestMemTracker:
    def test_disabled_by_default(self):
        assert not switch.is_on("mem")
        engine = small_engine()
        engine.mttkrp(0)
        assert switch.get("mem").n_stores == 0

    def test_store_free_accounting(self):
        t = obs_memory.MemTracker()
        t.on_store(1, 0, 100)
        t.on_store(1, 1, 50)
        assert t.live_bytes == 150 and t.peak_bytes == 150
        t.on_free(1, 0)
        assert t.live_bytes == 50
        t.on_free(1, 7)  # unknown node: no-op, never negative
        assert t.live_bytes == 50 and t.n_frees == 1
        t.on_store(1, 0, 200)  # re-store after free
        assert t.peak_bytes == 250

    def test_restore_same_node_replaces(self):
        t = obs_memory.MemTracker()
        t.on_store(1, 0, 100)
        t.on_store(1, 0, 120)  # rebuild of a cached node replaces, not adds
        assert t.live_bytes == 120

    def test_engine_keys_do_not_collide(self):
        t = obs_memory.MemTracker()
        t.on_store(1, 0, 100)
        t.on_store(2, 0, 60)
        assert t.live_bytes == 160
        t.release_engine(1)
        assert t.live_bytes == 60

    def test_window_peak(self):
        t = obs_memory.MemTracker()
        t.on_store(1, 0, 100)
        t.on_free(1, 0)
        t.begin_iteration(0)
        t.on_store(1, 1, 30)
        t.on_free(1, 1)
        assert t.window_peak() == 30  # not the pre-window 100
        t.predicted_peak_bytes = 30
        r = t.end_iteration(IterationRecord(0))
        assert r.measured_peak_bytes == 30 and r.ratio == 1.0

    def test_register_expected_counts_mismatches(self):
        t = obs_memory.MemTracker()
        t.register_expected(1, [80, 80])
        t.on_store(1, 0, 80)
        t.on_store(1, 1, 99)
        assert t.n_mismatches == 1
        assert metrics()["events"]["mem.node_mismatch"] == 1

    def test_engine_feeds_tracker(self):
        engine = small_engine()
        switch.enable("mem", clear=True)
        engine.mttkrp(0)
        tracker = switch.get("mem")
        assert tracker.n_stores > 0
        assert tracker.live_bytes == engine.live_value_bytes()

    def test_measured_peak_matches_simulation_exactly(self):
        from repro.model.cost import simulate_peak_value_bytes

        engine = small_engine()
        node_nnz = engine.symbolic.node_nnz()
        predicted = simulate_peak_value_bytes(engine.strategy, node_nnz, 4)
        switch.enable("mem", clear=True)
        tracker = switch.get("mem")
        for i in range(2):
            tracker.begin_iteration(i)
            for n in engine.mode_order:
                engine.mttkrp(n)
                engine.update_factor(n, engine.factors[n])
            # exact, not approximate: byte-for-byte equality
            assert tracker.window_peak() == predicted

    def test_concurrent_stores_keep_peak_correct(self):
        import threading

        t = obs_memory.MemTracker()
        n_threads, n_ops, nbytes = 4, 300, 10
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            barrier.wait()
            for i in range(n_ops):
                t.on_store(tid, i, nbytes)
            for i in range(n_ops):
                t.on_free(tid, i)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.live_bytes == 0
        assert t.n_stores == n_threads * n_ops
        assert t.n_frees == n_threads * n_ops
        # peak is at least one thread's full residency and never exceeds
        # the theoretical all-live maximum
        assert n_ops * nbytes <= t.peak_bytes <= n_threads * n_ops * nbytes

    def test_parallel_engine_peak_exact(self):
        from repro.model.cost import simulate_peak_value_bytes

        engine = small_engine(parallel=True, n_workers=2, min_chunk_rows=1)
        try:
            node_nnz = engine.symbolic.node_nnz()
            predicted = simulate_peak_value_bytes(
                engine.strategy, node_nnz, 4
            )
            switch.enable("mem", clear=True)
            tracker = switch.get("mem")
            tracker.begin_iteration(0)
            for n in engine.mode_order:
                engine.mttkrp(n)
                engine.update_factor(n, engine.factors[n])
            assert tracker.window_peak() == predicted
        finally:
            engine.close()

    def test_tracking_context_restores_state(self):
        assert not switch.is_on("mem")
        with switch.enabled("mem") as _on:
            t = _on["mem"]
            assert switch.is_on("mem")
            t.on_store(1, 0, 10)
        assert not switch.is_on("mem")

    def test_snapshot_roundtrips_to_json(self):
        with switch.enabled("mem") as _on:
            t = _on["mem"]
            t.on_store(1, 0, 10)
            t.begin_iteration(0)
            t.predicted_peak_bytes = 10
            t.end_iteration(IterationRecord(0))
        snap = t.snapshot()
        json.dumps(snap)
        assert snap["readings"][0]["measured_peak_bytes"] == 10


class TestCpAlsMemory:
    def _tensor(self):
        return random_coo(np.random.default_rng(5), (12, 11, 10, 9), 500)

    def test_memory_readings_exact_against_model(self):
        t = self._tensor()
        with switch.enabled("mem"):
            result = cp_als(t, 4, strategy=balanced_binary(4),
                            n_iter_max=3, tol=0, random_state=0)
        assert result.memory_readings is not None
        assert len(result.memory_readings) == 3
        engine = MemoizedMttkrp(t, balanced_binary(4))
        expected = cost_from_symbolic(engine.symbolic, 4).peak_value_bytes
        for r in result.memory_readings:
            assert r.predicted_peak_bytes == expected
        # steady-state iterations (past the cold start) match exactly
        for r in result.memory_readings[1:]:
            assert r.measured_peak_bytes == r.predicted_peak_bytes
            assert r.ratio == 1.0

    def test_no_readings_when_disabled(self):
        result = cp_als(self._tensor(), 3, strategy="star", n_iter_max=2,
                        random_state=0)
        assert result.memory_readings is None

    def test_successive_runs_measure_only_their_own_engine(self):
        """A finished run's engine leaves the live total when it is
        collected, so restarts in one process each match the model."""
        from repro.algos.restarts import cp_als_restarts

        t = self._tensor()
        with switch.enabled("mem"):
            report = cp_als_restarts(t, 4, 3, strategy=balanced_binary(4),
                                     n_iter_max=3, tol=0, random_state=0)
            again = cp_als(t, 4, strategy=balanced_binary(4), n_iter_max=3,
                           tol=0, random_state=1)
        for result in [*report.results, again]:
            for r in result.memory_readings:
                assert r.measured_peak_bytes == r.predicted_peak_bytes

    def test_tracemalloc_sampling_ends_with_its_run(self):
        """A run that asked for allocator sampling stops it at exit, so a
        later plain ``mem`` run reads no allocator trace (whose peak would
        count everything the process allocated in between)."""
        import tracemalloc

        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already running in this process")
        t = self._tensor()
        with switch.enabled("mem=tracemalloc"):
            traced = cp_als(t, 4, strategy=balanced_binary(4),
                            n_iter_max=2, tol=0, random_state=0)
        assert traced.memory_readings[-1].traced_peak_bytes is not None
        assert not tracemalloc.is_tracing()
        with switch.enabled("mem"):
            plain = cp_als(t, 4, strategy=balanced_binary(4),
                           n_iter_max=2, tol=0, random_state=0)
        assert plain.memory_readings[-1].traced_peak_bytes is None

    def test_traced_peak_is_the_windows_peak(self):
        import tracemalloc

        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already running in this process")
        tracker = obs_memory.MemTracker(sample_tracemalloc=True)
        try:
            scratch = bytearray(16 << 20)
            del scratch
            tracker.begin_iteration(0)
            reading = tracker.end_iteration(IterationRecord(0))
        finally:
            tracker.close()
        # The 16 MiB allocated before the window is not its peak.
        assert reading.traced_peak_bytes < 16 << 20

    def test_chrome_trace_memory_counter_track(self):
        t = self._tensor()
        switch.enable("trace", clear=True)
        switch.enable("mem", clear=True)
        cp_als(t, 4, strategy=balanced_binary(4), n_iter_max=2,
               tol=0, random_state=0)
        tracker = switch.get("mem")
        assert tracker.samples
        doc = export.to_chrome_trace(mem_samples=tracker.samples)
        assert export.validate_chrome_trace(doc) == []
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == len(tracker.samples)
        assert max(e["args"]["live_bytes"] for e in counters) == \
            tracker.peak_bytes

    def test_gauges_published_at_span_boundaries(self):
        t = self._tensor()
        switch.enable("trace", clear=True)
        switch.enable("mem", clear=True)
        cp_als(t, 4, strategy=balanced_binary(4), n_iter_max=2,
               tol=0, random_state=0)
        gauges = metrics()["gauges"]
        for name in ("mem.live_value_bytes", "mem.live_value_bytes_peak",
                     "mem.workspace_bytes", "mem.factor_bytes",
                     "mem.iter_peak_bytes", "mem.peak_bytes"):
            assert name in gauges, name
        assert gauges["mem.factor_bytes"] > 0
        assert gauges["mem.peak_bytes"] == switch.get("mem").peak_bytes


class TestGoldenTrace:
    def test_trace_run_matches_recorded_shape(self, tmp_path):
        """``repro trace`` still writes the artifact set, schema tags, key
        trees and event sequence recorded in
        ``fixtures/golden_trace_shape.json`` (timings and ids excluded)."""
        from . import trace_shape

        trace_shape.record_run(str(tmp_path))
        with open(trace_shape.FIXTURE) as fh:
            expected = json.load(fh)
        assert trace_shape.shape(str(tmp_path)) == expected
