"""Run ids: ``events.running()`` and the ``run_id`` stamp on events.

Covers:

* ``events.running()`` setting a fresh id for its block (or joining an
  enclosing one) and clearing it afterwards, also on an exception;
* ``cp_als`` runs stamping one ``run_id`` on all their events, their
  own or the caller's;
* the thread-tier engine with events on and tracing off;
* thread-safety of the event ring buffer and metrics registry under
  simultaneous emitters from two runs;
* the structural span-tree self-check (``validate_span_tree``).
"""

import collections
import contextvars
import threading

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.core.strategy import balanced_binary
from repro.obs import events as obs_events
from repro.obs import switch
from repro.obs.export import validate_span_tree
from repro.obs.metrics import registry
from repro.parallel import ParallelMemoizedMttkrp

from .helpers import random_coo

@pytest.fixture(autouse=True)
def clean_state():
    """Each test starts and ends with instruments off/empty."""
    def reset():
        switch.disable("trace")
        switch.get("trace").clear()
        switch.disable("mem")
        switch.get("mem").reset()
        switch.disable("events")
        switch.get("events").clear()
        registry.reset()
    reset()
    yield
    reset()


def small_tensor(seed=0, shape=(12, 11, 10, 9), nnz=400):
    return random_coo(np.random.default_rng(seed), shape, nnz)


class TestRunContext:
    def test_ambient_stamps_run_id_on_events(self):
        switch.enable("events", clear=True)
        with obs_events.running() as run_id:
            obs_events.emit("iteration", iteration=1)
        (event,) = switch.get("events").tail(1)
        assert event["run_id"] == run_id

    def test_using_activates_for_the_block(self):
        assert obs_events.run_id() is None
        with obs_events.running() as run_id:
            assert run_id.startswith("run-")
            assert obs_events.run_id() == run_id
            with obs_events.running() as inner:
                assert inner == run_id
            assert obs_events.run_id() == run_id
        assert obs_events.run_id() is None

    def test_using_deactivates_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs_events.running():
                raise RuntimeError("boom")
        assert obs_events.run_id() is None


class TestConcurrentRuns:
    def test_cp_als_without_context_gets_ambient(self):
        """A bare cp_als call gets a run id of its own: its events land
        in the global log, all stamped with one fresh run_id, and no id
        stays set afterwards."""
        switch.enable("events", clear=True)
        result = cp_als(small_tensor(), 3, strategy="star", n_iter_max=2)
        assert result.n_iterations >= 1
        events = switch.get("events").tail()
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_stop"
        (run_id,) = {e["run_id"] for e in events}
        assert run_id.startswith("run-")
        assert obs_events.run_id() is None

    def test_cp_als_inside_running_joins_callers_id(self):
        switch.enable("events", clear=True)
        with obs_events.running() as run_id:
            for seed in range(2):
                cp_als(small_tensor(seed), 3, strategy="star", n_iter_max=2)
        events = switch.get("events").tail()
        assert [e["kind"] for e in events].count("run_start") == 2
        assert {e["run_id"] for e in events} == {run_id}

    def test_thread_tier_events_without_trace(self):
        """Events on, tracing off: pool tasks run without context copies,
        the factors match the inline engine bitwise, and every event
        carries the run's one id."""
        tensor, strategy = small_tensor(), balanced_binary(4)
        kwargs = dict(n_iter_max=3, tol=0.0, random_state=0)
        inline = cp_als(tensor, 3, strategy=strategy, **kwargs)
        switch.enable("events", clear=True)
        assert not switch.is_on("trace")
        with ParallelMemoizedMttkrp(tensor, strategy, n_workers=2,
                                    min_chunk_rows=1) as engine:
            par = cp_als(tensor, 3, engine_factory=lambda t: engine,
                         **kwargs)
        assert (inline.ktensor.weights == par.ktensor.weights).all()
        for a, b in zip(inline.ktensor.factors, par.ktensor.factors):
            assert (a == b).all()
        assert inline.fits == par.fits
        events = switch.get("events").tail()
        assert any(e.get("chunks") == 2 for e in events
                   if e["kind"] == "node_rebuild")
        (run_id,) = {e.get("run_id") for e in events}
        assert run_id.startswith("run-")

    def test_concurrent_emitters_stress(self):
        """Ring buffer + registry under simultaneous emitters from two
        runs (4 threads each), with exact final accounting."""
        n_threads, n_each = 4, 200
        barrier = threading.Barrier(2 * n_threads)
        errors = []

        def emitter():
            try:
                barrier.wait(timeout=10)
                for k in range(n_each):
                    obs_events.emit("iteration", iteration=k)
                    registry.incr("als.iterations")
                    registry.observe_span("kernel", 1e-6)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        switch.enable("events", clear=True)
        run_ids, threads = [], []
        for _ in range(2):
            with obs_events.running() as run_id:
                run_ids.append(run_id)
                threads += [
                    threading.Thread(target=contextvars.copy_context().run,
                                     args=(emitter,))
                    for _ in range(n_threads)
                ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = 2 * n_threads * n_each
        log = switch.get("events")
        assert len(log) == total
        assert log.n_dropped == 0
        events = log.tail()
        assert sorted(e["seq"] for e in events) == list(range(1, total + 1))
        assert collections.Counter(e["run_id"] for e in events) == {
            run_id: n_threads * n_each for run_id in run_ids
        }
        snap = registry.snapshot()
        assert snap["events"]["als.iterations"] == total
        assert snap["spans"]["kernel"]["count"] == total


class TestMergeSubprocessSpans:
    """:func:`validate_span_tree`, the structural check any batch of spans
    joined into one tree must pass."""

    def test_validate_span_tree_catches_breakage(self):
        from repro.obs.trace import SpanRecord

        good = SpanRecord(id=1, parent=None, kind="a", t0=0.0, tid=0,
                          attrs={}, t1=1.0)
        orphan = SpanRecord(id=2, parent=99, kind="b", t0=0.1, tid=0,
                            attrs={}, t1=0.2)
        escapee = SpanRecord(id=3, parent=1, kind="c", t0=0.5, tid=0,
                             attrs={}, t1=5.0)
        backwards = SpanRecord(id=4, parent=None, kind="d", t0=2.0, tid=0,
                               attrs={}, t1=1.0)
        errors = validate_span_tree([good, orphan, escapee, backwards])
        assert len(errors) == 3
        assert any("parent 99 not in batch" in e for e in errors)
        assert any("ends" in e and "after" in e for e in errors)
        assert any("t1" in e and "< t0" in e for e in errors)
        assert validate_span_tree([good]) == []
