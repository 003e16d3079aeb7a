"""Run-scoped telemetry: RunContext and cross-run isolation.

Covers:

* ambient vs scoped contexts (instrument dispatch, run_id stamping);
* two *concurrent* ``cp_als`` runs with fully separated telemetry;
* thread-safety of the event ring buffer and metrics registry under
  simultaneous emitters from two runs;
* the structural span-tree self-check (``validate_span_tree``).
"""

import threading

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.core.strategy import balanced_binary
from repro.obs import events as obs_events
from repro.obs import runctx
from repro.obs import switch
from repro.obs import trace
from repro.obs.export import validate_span_tree
from repro.obs.metrics import registry

from .helpers import random_coo

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.watchdog.ModelDriftWarning"
)


@pytest.fixture(autouse=True)
def clean_state():
    """Each test starts and ends with globals off/empty and no runs."""
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


def run_als(ctx, seed=0, **kwargs):
    kwargs.setdefault("strategy", balanced_binary(4))
    kwargs.setdefault("n_iter_max", 2)
    return cp_als(small_tensor(seed), 3, run_ctx=ctx, **kwargs)


class TestRunContext:
    def test_ambient_defers_to_globals(self):
        ctx = runctx.RunContext.ambient()
        assert not ctx.owns_telemetry
        switch.enable("trace", clear=True)
        with runctx.using(ctx):
            assert not ctx.instruments  # no private instruments
            with trace.span("kernel", mode=0):
                pass
        spans = switch.get("trace").finished()
        assert [s.kind for s in spans] == ["kernel"]

    def test_ambient_stamps_run_id_on_events(self):
        switch.enable("events", clear=True)
        ctx = runctx.RunContext.ambient()
        with runctx.using(ctx):
            obs_events.emit("iteration", iteration=1)
        (event,) = switch.get("events").tail(1)
        assert event["run_id"] == ctx.run_id

    def test_scoped_isolates_all_instruments(self):
        ctx = runctx.RunContext.scoped(obs="trace,events,mem")
        assert ctx.owns_telemetry
        with runctx.using(ctx):
            assert switch.is_on("trace")
            assert switch.get("trace") is ctx.instruments["trace"]
            assert switch.get("events") is ctx.instruments["events"]
            assert switch.get("mem") is ctx.instruments["mem"]
            with trace.span("kernel", mode=1):
                pass
            obs_events.emit("iteration", iteration=3)
            registry.incr("als.iterations")
        # Nothing leaked into the globals; everything is on the context.
        assert len(switch._global("trace")) == 0
        assert len(switch._global("events")) == 0
        assert registry.snapshot()["events"] == {}
        assert len(ctx.instruments["trace"]) == 1
        assert ctx.metrics.snapshot()["events"] == {"als.iterations": 1}
        assert ctx.instruments["events"].tail(1)[0]["run_id"] == ctx.run_id

    def test_scoped_flags_pin_over_globals(self):
        """A scoped run traces even when the process default is off —
        and an off-scoped run stays dark when the default is on."""
        ctx_on = runctx.RunContext.scoped(obs="trace,events")
        ctx_off = runctx.RunContext.scoped(obs="")
        assert not switch.is_on("trace")
        with runctx.using(ctx_on):
            assert switch.is_on("trace")
        switch.enable("trace")
        with runctx.using(ctx_off):
            assert not switch.is_on("trace")
            assert not switch.is_on("events")

    def test_using_activates_for_the_block(self):
        ctx = runctx.RunContext.scoped()
        assert runctx.current() is None
        with runctx.using(ctx):
            assert runctx.current() is ctx
        assert runctx.current() is None

    def test_using_deactivates_on_exception(self):
        ctx = runctx.RunContext.scoped(obs="trace")
        with pytest.raises(RuntimeError):
            with runctx.using(ctx):
                raise RuntimeError("boom")
        assert runctx.current() is None
        assert not switch.is_on("trace")


class TestConcurrentRuns:
    def test_two_cp_als_runs_zero_cross_talk(self):
        """The acceptance-criteria scenario: two concurrent decompositions,
        each with a scoped context, end with fully separated telemetry."""
        ctxs = [
            runctx.RunContext.scoped(run_id=f"run-iso{i}",
                                     obs="trace,events")
            for i in range(2)
        ]
        errors = []

        def work(i):
            try:
                result = run_als(ctxs[i], seed=i)
                assert result.n_iterations >= 1
            except Exception as exc:  # pragma: no cover - fail loudly below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        for i, ctx in enumerate(ctxs):
            spans = ctx.instruments["trace"].finished()
            assert any(s.kind == "als_iteration" for s in spans)
            assert validate_span_tree(spans) == []
            run_ids = {e["run_id"] for e in ctx.instruments["events"].tail(10_000)}
            assert run_ids == {ctx.run_id}
            snap = ctx.metrics.snapshot()
            assert snap["spans"]["als_iteration"]["count"] >= 1
        # Globals stayed untouched: the runs really were isolated.
        assert len(switch._global("trace")) == 0
        assert registry.snapshot()["events"] == {}

    def test_cp_als_without_context_gets_ambient(self):
        """A bare cp_als call runs under an ambient context of its own:
        its events land in the global log, all stamped with one fresh
        run_id, and no context stays active afterwards."""
        switch.enable("events", clear=True)
        result = cp_als(small_tensor(), 3, strategy="star", n_iter_max=2)
        assert result.n_iterations >= 1
        events = switch.get("events").tail()
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_stop"
        (run_id,) = {e["run_id"] for e in events}
        assert run_id.startswith("run-")
        assert runctx.current() is None

    def test_concurrent_emitters_stress(self):
        """Satellite 2: ring buffer + registry under simultaneous emitters
        from two runs (4 threads each), with exact final accounting."""
        n_threads, n_each = 4, 200
        ctxs = [
            runctx.RunContext.scoped(run_id=f"run-stress{i}")
            for i in range(2)
        ]
        barrier = threading.Barrier(2 * n_threads)
        errors = []

        def emitter(ctx):
            try:
                with runctx.using(ctx):
                    barrier.wait(timeout=10)
                    for k in range(n_each):
                        obs_events.emit("iteration", iteration=k)
                        registry.incr("als.iterations")
                        registry.observe_span("kernel", 1e-6)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=emitter, args=(ctx,))
            for ctx in ctxs for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for ctx in ctxs:
            assert len(ctx.instruments["events"]) == n_threads * n_each
            assert ctx.instruments["events"].n_dropped == 0
            snap = ctx.metrics.snapshot()
            assert snap["events"]["als.iterations"] == n_threads * n_each
            assert snap["spans"]["kernel"]["count"] == n_threads * n_each
            assert {e["run_id"] for e in ctx.instruments["events"].tail(10_000)} == \
                {ctx.run_id}


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
