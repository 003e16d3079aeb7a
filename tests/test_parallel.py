"""Tests for the multicore runtime (repro.parallel)."""

import numpy as np
import pytest

from repro.core import strategy as S
from repro.core.cpals import cp_als
from repro.core.partition import contiguous_chunks
from repro.model.cost import (ExecutionParams, cost_from_symbolic,
                              parallel_iteration_seconds)
from repro.core.symbolic import SymbolicTree
from repro.obs import switch
from repro.parallel import (ParallelMemoizedMttkrp, WorkerPool,
                            resolve_worker_count)
from repro.synth.lowrank import lowrank_tensor

from .helpers import dense_mttkrp, random_coo, random_factors


def set_cpus(monkeypatch, n):
    """Pretend this process may run on ``n`` CPUs."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestPartition:
    def test_contiguous_chunks_cover(self):
        chunks = contiguous_chunks(10, 3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 10
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c

    def test_chunks_near_equal(self):
        sizes = [hi - lo for lo, hi in contiguous_chunks(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        chunks = contiguous_chunks(2, 5)
        assert len(chunks) == 5
        assert sum(hi - lo for lo, hi in chunks) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            contiguous_chunks(-1, 2)
        with pytest.raises((TypeError, ValueError)):
            contiguous_chunks(5, 0)

    def test_partition_nonzeros(self):
        rng = np.random.default_rng(0)
        t = random_coo(rng, (5, 5, 5), 50)
        parts = t.split_nonzeros(4)
        assert [p.nnz for p in parts] == [
            hi - lo for lo, hi in contiguous_chunks(t.nnz, 4)
        ]
        assert sum(p.nnz for p in parts) == t.nnz


class TestWorkerPool:
    def test_single_worker_inline(self):
        pool = WorkerPool(1)
        assert pool.run([lambda: 1, lambda: 2]) == [1, 2]
        pool.close()

    def test_multi_worker_ordered_results(self):
        with WorkerPool(4) as pool:
            results = pool.run([(lambda i=i: i * i) for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_exception_propagates(self):
        def boom():
            raise RuntimeError("boom")

        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run([boom, boom])

    def test_invalid_worker_count(self):
        with pytest.raises((TypeError, ValueError)):
            WorkerPool(0)


class TestDefaultWorkers:
    @pytest.fixture(autouse=True)
    def restore_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def test_env_override(self, monkeypatch):
        from repro.parallel.pool import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        set_cpus(monkeypatch, 8)
        assert default_workers() == 3
        # The override feeds the pool default too.
        pool = WorkerPool()
        assert pool.n_workers == 3
        pool.close()

    def test_env_not_an_integer(self, monkeypatch):
        from repro.parallel.pool import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="positive integer"):
            default_workers()

    def test_env_below_one(self, monkeypatch):
        from repro.parallel.pool import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_workers()

    def test_unset_uses_cpu_count(self):
        from repro.parallel.pool import default_workers

        assert 1 <= default_workers() <= 8


class TestResolveWorkerCount:
    """The precedence + clamp rule behind the worker knobs."""

    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        set_cpus(monkeypatch, 8)

    def test_explicit_beats_env(self, monkeypatch):
        from repro.parallel.pool import resolve_worker_count

        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert resolve_worker_count(2) == 2

    def test_clamps_with_warning(self):
        from repro.parallel.pool import resolve_worker_count

        with pytest.warns(RuntimeWarning,
                          match=r"exceeds the 8 available cpus; clamping"):
            assert resolve_worker_count(12) == 8

    def test_env_count_also_clamped(self, monkeypatch):
        from repro.parallel.pool import resolve_worker_count

        monkeypatch.setenv("REPRO_WORKERS", "12")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS=12"):
            assert resolve_worker_count(None) == 8

    def test_within_budget_is_silent(self):
        import warnings as _warnings

        from repro.parallel.pool import resolve_worker_count

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert resolve_worker_count(8) == 8

    def test_explicit_worker_pool_count_not_clamped(self):
        """Thread oversubscription is harmless, so explicit WorkerPool
        counts bypass the clamp entirely — no warning, count honored."""
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            pool = WorkerPool(n_workers=12)
        assert pool.n_workers == 12
        pool.close()


class TestPoolTaskSpans:
    @pytest.fixture(autouse=True)
    def clean_trace(self):
        switch.disable("trace")
        switch.get("trace").clear()
        yield
        switch.disable("trace")
        switch.get("trace").clear()

    def _task_spans(self, n_workers, n_tasks=4):
        with switch.enabled("trace"):
            with WorkerPool(n_workers) as pool:
                results = pool.run(
                    [(lambda i=i: i * i) for i in range(n_tasks)]
                )
        assert results == [i * i for i in range(n_tasks)]
        return [s for s in switch.get("trace").finished()
                if s.kind == "pool_task"]

    def test_inline_path_emits_identical_span_shape(self):
        spans = self._task_spans(n_workers=1)
        assert len(spans) == 4
        for s in spans:
            assert set(s.attrs) == {"index", "worker", "queue_wait",
                                    "source"}
            # Inline execution: submitting thread is lane 0, no queue.
            assert s.attrs["worker"] == 0
            assert s.attrs["queue_wait"] == 0.0
            assert s.attrs["source"] == "measured"

    def test_threaded_path_attrs(self):
        spans = self._task_spans(n_workers=2, n_tasks=8)
        assert len(spans) == 8
        for s in spans:
            assert set(s.attrs) == {"index", "worker", "queue_wait",
                                    "source"}
            assert s.attrs["queue_wait"] >= 0.0
            assert s.attrs["source"] == "measured"
        workers = {s.attrs["worker"] for s in spans}
        assert workers <= {0, 1} and len(workers) >= 1
        assert sorted(s.attrs["index"] for s in spans) == list(range(8))

    def test_single_task_fanout_runs_inline(self):
        # len(tasks) <= 1 short-circuits to the inline path even with a
        # threaded pool: exactly one span, zero queue wait.

        with switch.enabled("trace"):
            with WorkerPool(4) as pool:
                assert pool.run([lambda: 42]) == [42]
        (span,) = [s for s in switch.get("trace").finished()
                   if s.kind == "pool_task"]
        assert span.attrs["queue_wait"] == 0.0

    def test_imbalance_gauge_published(self):
        import time

        from repro.obs.metrics import registry

        registry.reset()
        with switch.enabled("trace"):
            with WorkerPool(1) as pool:
                pool.run([lambda: time.sleep(0.002), lambda: None])
        gauges = registry.snapshot()["gauges"]
        assert gauges.get("pool.imbalance", 0.0) > 1.0
        registry.reset()


class TestParallelMemoized:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["star", "bdt"])
    def test_matches_dense(self, n_workers, strategy):
        rng = np.random.default_rng(5)
        t = random_coo(rng, (6, 5, 7, 4), 70)
        factors = random_factors(rng, t.shape, 3)
        eng = ParallelMemoizedMttkrp(t, strategy, factors, n_workers=n_workers,
                                     min_chunk_rows=4)
        dense = t.to_dense()
        for mode in range(4):
            np.testing.assert_allclose(
                eng.mttkrp(mode),
                dense_mttkrp(dense, factors, mode),
                rtol=1e-10, atol=1e-10,
            )
        eng.close()

    def test_matches_sequential_engine_through_cpals(self):
        """Thread-tier cp_als is bitwise equal to the inline engine at
        1-3 workers on the numpy and reference kernels."""
        from repro.core.engine import MemoizedMttkrp

        planted = lowrank_tensor((10, 8, 6, 5), rank=2, nnz=10 * 8 * 6 * 5,
                                 random_state=6)
        for kernel in ("numpy", "reference"):
            seq = cp_als(
                planted.tensor, rank=2, n_iter_max=4, tol=0.0,
                random_state=7,
                engine_factory=lambda t: MemoizedMttkrp(
                    t, S.balanced_binary(4), kernel=kernel
                ),
            )
            for n_workers in (1, 2, 3):
                case = f"kernel={kernel} n_workers={n_workers}"
                with ParallelMemoizedMttkrp(
                    planted.tensor, S.balanced_binary(4),
                    n_workers=n_workers, min_chunk_rows=4, kernel=kernel,
                ) as engine:
                    par = cp_als(
                        planted.tensor, rank=2, n_iter_max=4, tol=0.0,
                        random_state=7, engine_factory=lambda t: engine,
                    )
                assert engine.pool.n_workers == n_workers, case
                for a, b in zip(seq.ktensor.factors, par.ktensor.factors):
                    np.testing.assert_array_equal(a, b, err_msg=case)
                np.testing.assert_array_equal(
                    seq.ktensor.weights, par.ktensor.weights, err_msg=case
                )

    def test_update_invalidation_still_correct(self):
        rng = np.random.default_rng(8)
        t = random_coo(rng, (5, 5, 5, 5), 60)
        factors = random_factors(rng, t.shape, 2)
        eng = ParallelMemoizedMttkrp(t, "bdt", factors, n_workers=2,
                                     min_chunk_rows=4)
        eng.mttkrp(0)
        newU = rng.standard_normal((5, 2))
        eng.update_factor(2, newU)
        factors[2] = newU
        np.testing.assert_allclose(
            eng.mttkrp(0),
            dense_mttkrp(t.to_dense(), factors, 0),
            rtol=1e-10, atol=1e-10,
        )
        eng.close()

    @pytest.mark.parametrize("min_chunk_rows", [0, -1])
    def test_min_chunk_rows_must_be_positive(self, min_chunk_rows):
        rng = np.random.default_rng(9)
        t = random_coo(rng, (4, 4, 4), 20)
        with pytest.raises(ValueError, match="min_chunk_rows must be >= 1"):
            ParallelMemoizedMttkrp(t, "bdt", n_workers=2,
                                   min_chunk_rows=min_chunk_rows)


class TestScalingSimulator:
    """The one scaling model: :func:`parallel_iteration_seconds`."""

    @pytest.fixture
    def cost(self, monkeypatch):
        set_cpus(monkeypatch, 64)
        # Large enough that per-sync overhead does not dominate the model.
        rng = np.random.default_rng(9)
        t = random_coo(rng, (100, 100, 100, 100), 200_000)
        return cost_from_symbolic(SymbolicTree(t, S.balanced_binary(4)), 16)

    @staticmethod
    def curve(cost, workers, params=ExecutionParams(bandwidth_workers=8)):
        base = parallel_iteration_seconds(cost, 1, params=params)
        return {p: base / parallel_iteration_seconds(cost, p, params=params)
                for p in workers}

    def test_speedup_monotone_until_saturation(self, cost):
        curve = self.curve(cost, [1, 2, 4, 8])
        assert curve[1] == pytest.approx(1.0)
        assert curve[2] > 1.0
        assert curve[4] > curve[2]

    def test_bandwidth_saturation_limits_speedup(self, cost):
        params = ExecutionParams(bandwidth_workers=2, sync_seconds=0.0,
                                 memory_bound_fraction=1.0,
                                 gil_serial_fraction=0.0)
        curve = self.curve(cost, [1, 2, 4, 16], params)
        assert curve[2] == pytest.approx(2.0)
        assert curve[16] <= 2.0 + 1e-9

    def test_perfect_scaling_when_compute_bound(self, cost):
        params = ExecutionParams(bandwidth_workers=10**6, sync_seconds=0.0,
                                 memory_bound_fraction=0.0,
                                 gil_serial_fraction=0.0)
        curve = self.curve(cost, [1, 4], params)
        assert curve[4] == pytest.approx(4.0)

    def test_sync_overhead_hurts_small_problems(self, cost):
        slow_sync = ExecutionParams(bandwidth_workers=8, sync_seconds=10.0)
        t = parallel_iteration_seconds(cost, 8, params=slow_sync)
        assert t > parallel_iteration_seconds(
            cost, 8, params=ExecutionParams(bandwidth_workers=8))

    def test_invalid_worker_count(self, cost):
        with pytest.raises(ValueError):
            parallel_iteration_seconds(cost, 0)


class TestAvailableCpus:
    """Worker defaults, the clamp and the model clamp all count the CPUs
    in this process's affinity set, not the host's."""

    def test_one_cpu_affinity(self, monkeypatch):
        import os
        import warnings as _warnings

        from repro.parallel.pool import available_cpus

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        set_cpus(monkeypatch, 1)
        assert available_cpus() == 1
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert resolve_worker_count(None) == 1
        with pytest.warns(RuntimeWarning, match="1 available cpus"):
            assert resolve_worker_count(4) == 1

        rng = np.random.default_rng(11)
        t = random_coo(rng, (30, 30, 30), 2000)
        cost = cost_from_symbolic(SymbolicTree(t, S.balanced_binary(3)), 8)
        serial = parallel_iteration_seconds(cost, 1)
        for p in (2, 4, 8):
            assert parallel_iteration_seconds(cost, p) == serial

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import os

        from repro.parallel.pool import available_cpus

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3
