"""Tests for the process-parallel tier (repro.parallel.procpool + shm).

Covers the data plane (shared-memory lifecycle, no leaked segments on any
path), the numeric contract (deterministic shard reduction, bitwise layout
parity, agreement with the dense reference), the instrumentation shape
(``pool_task`` spans, ``pool.imbalance``), and crash-proofing (worker
death -> structured warning + thread-tier fallback).

Worker counts here deliberately exceed small CI machines' cpu counts —
every pool is built with ``allow_oversubscribe=True`` (or sized 1) so the
tests exercise real multi-process pools everywhere.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core.coo import CooTensor
from repro.obs import switch
from repro.parallel import ParallelCooMttkrp
from repro.parallel.procpool import ProcessMttkrp, ProcessPool
from repro.parallel.shm import (SharedArrayGroup, SharedArraySpec,
                                attach_array, detach_all, n_attached)

from .helpers import dense_mttkrp, random_coo, random_factors


def make_pool(n_workers):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ProcessPool(n_workers, allow_oversubscribe=True)


def make_backend(tensor, n_workers, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ProcessMttkrp(
            tensor, n_workers, allow_oversubscribe=True, **kw
        )


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _exit_hard(x):
    os._exit(13)


class TestSharedMemory:
    def test_spec_pickles_flat(self):
        import pickle

        spec = SharedArraySpec("seg", (3, 4), "<f8")
        clone = pickle.loads(pickle.dumps(spec))
        assert (clone.name, clone.shape, clone.dtype) == ("seg", (3, 4), "<f8")

    def test_put_and_readback(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((7, 5))
        with SharedArrayGroup() as group:
            view = group.put("x", data)
            np.testing.assert_array_equal(view, data)
            assert "x" in group
            assert group.nbytes() == data.nbytes
            # In-place update through the view, as update_factor does.
            np.copyto(view, data * 2)
            np.testing.assert_array_equal(group.array("x"), data * 2)

    def test_put_shape_mismatch_rejected(self):
        with SharedArrayGroup() as group:
            group.put("x", np.zeros((2, 2)))
            with pytest.raises(ValueError, match="exists with shape"):
                group.put("x", np.zeros((3, 3)))

    def test_attach_in_same_process(self):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        with SharedArrayGroup() as group:
            group.put("x", data)
            before = n_attached()
            view = attach_array(group.spec("x"))
            np.testing.assert_array_equal(view, data)
            assert n_attached() == before + 1
            # Cached: same segment attaches once.
            attach_array(group.spec("x"))
            assert n_attached() == before + 1
        detach_all()
        assert n_attached() == 0

    def test_close_unlinks_segments(self):
        group = SharedArrayGroup()
        group.put("x", np.zeros(10))
        name = group.spec("x").name
        group.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_idempotent_and_finalizer_safe(self):
        group = SharedArrayGroup()
        group.put("x", np.zeros(4))
        group.close()
        group.close()  # second close is a no-op
        del group  # finalizer on an already-closed group must not raise

    def test_collection_unlinks_without_close(self):
        """The weakref finalizer reclaims segments when close() was never
        called (crashed run, sloppy test)."""
        import gc

        group = SharedArrayGroup()
        group.put("x", np.zeros(16))
        name = group.spec("x").name
        del group
        gc.collect()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestProcessPool:
    def test_single_worker_inline(self):
        pool = make_pool(1)
        assert pool.run([(_square, (3,)), (_square, (4,))]) == [9, 16]
        pool.close()

    def test_multi_worker_ordered_results(self):
        with make_pool(2) as pool:
            results = pool.run([(_square, (i,)) for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_exception_propagates(self):
        with make_pool(2) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run([(_boom, (1,)), (_boom, (2,))])

    def test_pool_task_spans_measured_from_workers(self):
        with make_pool(2) as pool, switch.enabled("trace") as on:
            tracer = on["trace"]
            pool.run([(_square, (i,)) for i in range(4)])
        spans = [s for s in tracer.finished() if s.kind == "pool_task"]
        assert len(spans) == 4
        assert sorted(s.attrs["index"] for s in spans) == [0, 1, 2, 3]
        parent_pid = os.getpid()
        for s in spans:
            # The thread tier's attribute shape plus provenance.
            assert set(s.attrs) == {"index", "worker", "queue_wait",
                                    "source", "pid"}
            assert s.attrs["queue_wait"] >= 0.0
            assert s.duration >= 0.0
            # In-worker capture: genuinely measured, in a child process.
            assert s.attrs["source"] == "measured"
            assert s.attrs["pid"] != parent_pid
        workers = {s.attrs["worker"] for s in spans}
        assert workers <= {0, 1}  # stable lane ids, first-seen

    def test_pool_task_spans_synthesized_without_capture(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pool = ProcessPool(2, allow_oversubscribe=True, capture=False)
        with pool, switch.enabled("trace") as on:
            tracer = on["trace"]
            pool.run([(_square, (i,)) for i in range(4)])
        spans = [s for s in tracer.finished() if s.kind == "pool_task"]
        assert len(spans) == 4
        for s in spans:
            assert s.attrs["source"] == "synthesized"
            assert s.attrs["pid"] != os.getpid()

    def test_imbalance_gauge_published(self):
        from repro.obs.metrics import registry

        registry.reset()
        with make_pool(2) as pool:
            pool.run([(_square, (i,)) for i in range(4)])
        assert registry.snapshot()["gauges"]["pool.imbalance"] >= 1.0

    def test_worker_count_resolution_clamps(self):
        ncpu = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="clamping"):
            pool = ProcessPool(ncpu + 7)
        assert pool.n_workers == ncpu
        pool.close()

    def test_oversubscribe_optout_keeps_count(self):
        ncpu = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            pool = ProcessPool(ncpu + 1, allow_oversubscribe=True)
        assert pool.n_workers == ncpu + 1
        pool.close()


class TestProcessMttkrp:
    @pytest.mark.parametrize("n_workers", [1, 3])
    @pytest.mark.parametrize("layout", ["numpy", "alto"])
    def test_matches_dense(self, n_workers, layout):
        rng = np.random.default_rng(42)
        shape = (9, 7, 6, 5)
        tensor = random_coo(rng, shape, 250)
        factors = random_factors(rng, shape, 6)
        dense = tensor.to_dense()
        with make_backend(tensor, n_workers, layout=layout) as backend:
            backend.set_factors(factors)
            for mode in range(tensor.ndim):
                np.testing.assert_allclose(
                    backend.mttkrp(mode),
                    dense_mttkrp(dense, factors, mode),
                    rtol=1e-10, atol=1e-10,
                )

    def test_layouts_bitwise_identical(self):
        rng = np.random.default_rng(7)
        tensor = random_coo(rng, (20, 15, 12, 9), 800)
        factors = random_factors(rng, tensor.shape, 8)
        with make_backend(tensor, 3, layout="numpy") as a, \
                make_backend(tensor, 3, layout="alto") as b:
            a.set_factors(factors)
            b.set_factors(factors)
            assert a.chunks == b.chunks  # layout-independent shards
            for mode in range(tensor.ndim):
                np.testing.assert_array_equal(a.mttkrp(mode), b.mttkrp(mode))

    def test_deterministic_across_runs(self):
        """Same inputs, same worker count -> identical bits, twice."""
        rng = np.random.default_rng(9)
        tensor = random_coo(rng, (16, 13, 11), 500)
        factors = random_factors(rng, tensor.shape, 8)
        outs = []
        for _ in range(2):
            with make_backend(tensor, 3) as backend:
                backend.set_factors(factors)
                outs.append([backend.mttkrp(m) for m in range(3)])
        for a, b in zip(*outs):
            np.testing.assert_array_equal(a, b)

    def test_shard_reduction_order_matches_thread_tier(self):
        """Non-leading modes reduce per-shard slabs in shard order — the
        exact partial order of the thread tier on the same chunks."""
        rng = np.random.default_rng(10)
        tensor = random_coo(rng, (14, 12, 10), 400)
        factors = random_factors(rng, tensor.shape, 8)
        with make_backend(tensor, 3) as backend:
            backend.set_factors(factors)
            ref = ParallelCooMttkrp(tensor, n_workers=1)
            ref.chunks = list(backend.chunks)
            ref.set_factors(factors)
            for mode in range(1, tensor.ndim):
                np.testing.assert_array_equal(
                    backend.mttkrp(mode), ref.mttkrp(mode)
                )
            ref.close()

    def test_mode0_direct_write_matches_single_shard(self):
        """Aligned shards never split a mode-0 row, so the conflict-free
        direct write equals the single-worker whole-range scatter."""
        rng = np.random.default_rng(12)
        tensor = random_coo(rng, (10, 9, 8), 300)
        factors = random_factors(rng, tensor.shape, 5)
        with make_backend(tensor, 1) as one, make_backend(tensor, 4) as many:
            one.set_factors(factors)
            many.set_factors(factors)
            np.testing.assert_array_equal(one.mttkrp(0), many.mttkrp(0))

    def test_factor_updates_propagate(self):
        rng = np.random.default_rng(14)
        tensor = random_coo(rng, (8, 7, 6), 120)
        factors = random_factors(rng, tensor.shape, 4)
        with make_backend(tensor, 2) as backend:
            backend.set_factors(factors)
            backend.mttkrp(1)
            new0 = rng.standard_normal(factors[0].shape)
            backend.update_factor(0, new0)
            expected = ParallelCooMttkrp(tensor, n_workers=1)
            expected.chunks = list(backend.chunks)
            expected.set_factors([new0] + factors[1:])
            np.testing.assert_array_equal(
                backend.mttkrp(1), expected.mttkrp(1)
            )
            expected.close()

    def test_update_factor_validates_shape(self):
        rng = np.random.default_rng(15)
        tensor = random_coo(rng, (6, 5, 4), 60)
        with make_backend(tensor, 1) as backend:
            backend.set_factors(random_factors(rng, tensor.shape, 4))
            with pytest.raises(ValueError, match="factor for mode"):
                backend.update_factor(0, np.zeros((6, 7)))

    def test_empty_tensor(self):
        tensor = CooTensor.empty((4, 5, 6))
        with make_backend(tensor, 2) as backend:
            backend.set_factors(
                random_factors(np.random.default_rng(0), tensor.shape, 3)
            )
            for mode in range(3):
                np.testing.assert_array_equal(backend.mttkrp(mode), 0.0)

    def test_alto_layout_rejected_when_overflowing(self):
        tensor = CooTensor.empty((1 << 32, 1 << 32))
        with pytest.raises(ValueError, match="63 index bits"):
            make_backend(tensor, 1, layout="alto")

    def test_invalid_layout_rejected(self):
        tensor = CooTensor.empty((4, 4))
        with pytest.raises(ValueError, match="layout must be"):
            make_backend(tensor, 1, layout="csf")

    def test_close_releases_segments(self):
        rng = np.random.default_rng(16)
        tensor = random_coo(rng, (8, 7, 6), 100)
        backend = make_backend(tensor, 2)
        backend.set_factors(random_factors(rng, tensor.shape, 4))
        backend.mttkrp(0)
        names = [s.name for s in backend._shm.specs().values()]
        assert names
        backend.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segments_released_when_set_factors_fails(self):
        """Error paths must not leak: the finalizer covers construction
        followed by a validation failure and no close()."""
        import gc

        rng = np.random.default_rng(17)
        tensor = random_coo(rng, (8, 7, 6), 100)
        backend = make_backend(tensor, 2)
        names = [s.name for s in backend._shm.specs().values()]
        with pytest.raises(ValueError):
            backend.set_factors([np.zeros((1, 1))] * 3)  # wrong shapes
        del backend
        gc.collect()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestCrashFallback:
    def test_worker_death_falls_back_to_threads(self):
        """A dying worker process must surface a structured warning and
        permanently reroute to an equivalent thread-tier backend."""
        rng = np.random.default_rng(19)
        tensor = random_coo(rng, (12, 10, 8), 300)
        factors = random_factors(rng, tensor.shape, 6)
        backend = make_backend(tensor, 2)
        try:
            backend.set_factors(factors)
            expected = [backend.mttkrp(m) for m in range(3)]
            # Kill the pool out from under the backend.
            switch.enable("events", clear=True)
            try:
                with pytest.warns(RuntimeWarning, match="falling back"):
                    try:
                        backend.pool.run([(_exit_hard, (0,))] * 2)
                    except Exception as exc:
                        backend._activate_fallback(exc)
                events = switch.get("events").tail()
            finally:
                switch.disable("events")
            assert backend._fallback is not None
            warnings_seen = [e for e in events if e["kind"] == "warning"]
            assert warnings_seen
            assert warnings_seen[0]["tier"] == "process"
            assert warnings_seen[0]["fallback"] == "thread"
            # Same chunks + same factors: results unchanged, bit for bit.
            for mode in range(3):
                np.testing.assert_array_equal(
                    backend.mttkrp(mode), expected[mode]
                )
            # Updates keep flowing through the shared views.
            new1 = rng.standard_normal(factors[1].shape)
            backend.update_factor(1, new1)
            check = ParallelCooMttkrp(tensor, n_workers=1)
            check.chunks = list(backend.chunks)
            check.set_factors([factors[0], new1, factors[2]])
            np.testing.assert_array_equal(backend.mttkrp(2), check.mttkrp(2))
            check.close()
        finally:
            backend.close()

    def test_broken_pool_mid_mttkrp(self):
        """The BrokenProcessPool path inside mttkrp() itself: the same
        call that hit the crash still returns the correct answer."""
        from concurrent.futures.process import BrokenProcessPool

        rng = np.random.default_rng(20)
        tensor = random_coo(rng, (12, 10, 8), 300)
        factors = random_factors(rng, tensor.shape, 6)
        backend = make_backend(tensor, 2)
        try:
            backend.set_factors(factors)
            expected = backend.mttkrp(1)
            # Poison the executor so the next dispatch raises.
            try:
                backend.pool.run([(_exit_hard, (0,))] * 2)
            except BrokenProcessPool:
                pass
            with pytest.warns(RuntimeWarning, match="falling back"):
                out = backend.mttkrp(1)
            np.testing.assert_array_equal(out, expected)
        finally:
            backend.close()
