"""Tests for the fused kernel layer (repro.kernels).

The contract: every registered backend computes the same MTTKRP as the
naive COO baseline, reports identical perf counters, and the ``numpy``
backend is bitwise identical to the ``reference`` (seed) numeric path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.baselines.coo_mttkrp import CooMttkrp
from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.dtypes import AGREEMENT_RTOL
from repro.core.engine import MemoizedMttkrp
from repro.core.symbolic import SymbolicTree
from repro.kernels import (MAX_CLASS_ROWS, KernelBackend, WorkspaceArena,
                           available_kernels, default_block_rows, get_kernel,
                           length_class_sum, make_node_index,
                           resolve_block_rows, segment_blocks,
                           unavailable_kernels)
from repro.kernels.backends import RebuildContext
from repro.kernels.indices import length_class_layout
from repro.parallel import ParallelMemoizedMttkrp
from repro.perf import counting

from .helpers import random_coo, random_factors

BACKENDS = available_kernels()


def naive_mttkrp(tensor, factors, mode):
    backend = CooMttkrp(tensor)
    backend.set_factors(factors)
    return backend.mttkrp(mode)


def strategy_for(order: int) -> S.MemoStrategy:
    return S.balanced_binary(order)


# ---------------------------------------------------------------------------
# backend <-> baseline parity (property-based)
# ---------------------------------------------------------------------------

@hst.composite
def tensor_cases(draw):
    """Ragged random tensors of order 3-5 (empty slices arise naturally
    whenever a dimension exceeds the distinct indices drawn)."""
    order = draw(hst.integers(3, 5))
    shape = tuple(draw(hst.integers(2, 7)) for _ in range(order))
    nnz = draw(hst.integers(1, 50))
    rank = draw(hst.sampled_from([1, 8, 17]))
    seed = draw(hst.integers(0, 2**31 - 1))
    return shape, nnz, rank, seed


class TestBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=tensor_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_baseline(self, backend, case):
        shape, nnz, rank, seed = case
        rng = np.random.default_rng(seed)
        tensor = random_coo(rng, shape, nnz)
        factors = random_factors(rng, shape, rank)
        engine = MemoizedMttkrp(
            tensor, strategy_for(len(shape)), factors, kernel=backend
        )
        for mode in range(tensor.ndim):
            np.testing.assert_allclose(
                engine.mttkrp(mode),
                naive_mttkrp(tensor, factors, mode),
                rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("rank", [1, 8, 17])
    def test_empty_slice_tensor(self, backend, rank):
        """Slices with no nonzeros must come out exactly zero."""
        idx = np.array([[0, 0, 0, 0], [4, 1, 2, 3], [4, 1, 2, 0]])
        tensor = CooTensor(idx, np.array([1.5, -2.0, 3.0]), (6, 3, 4, 5))
        rng = np.random.default_rng(0)
        factors = random_factors(rng, tensor.shape, rank)
        engine = MemoizedMttkrp(tensor, "bdt", factors, kernel=backend)
        for mode in range(4):
            out = engine.mttkrp(mode)
            np.testing.assert_allclose(
                out, naive_mttkrp(tensor, factors, mode),
                rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
            )
        np.testing.assert_array_equal(engine.mttkrp(0)[1:4], 0.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_tensor(self, backend):
        tensor = CooTensor.empty((3, 4, 5))
        factors = random_factors(np.random.default_rng(0), tensor.shape, 8)
        engine = MemoizedMttkrp(tensor, "bdt", factors, kernel=backend)
        for mode in range(3):
            np.testing.assert_array_equal(engine.mttkrp(mode), 0.0)

    def test_numpy_bitwise_identical_to_reference(self):
        """The default backend reorders passes but not arithmetic: outputs
        must be *bitwise* equal to the seed path, across invalidations."""
        rng = np.random.default_rng(7)
        tensor = random_coo(rng, (20, 31, 17, 24), 800)
        factors = random_factors(rng, tensor.shape, 16)
        strategies = [S.balanced_binary(4), S.star(4),
                      S.from_nested(((0, 2), (1, 3)))]
        for strategy in strategies:
            ref = MemoizedMttkrp(tensor, strategy, factors, kernel="reference")
            new = MemoizedMttkrp(tensor, strategy, factors, kernel="numpy")
            for _ in range(2):
                for mode in ref.mode_order:
                    np.testing.assert_array_equal(
                        ref.mttkrp(mode), new.mttkrp(mode)
                    )
                    U = rng.standard_normal((tensor.shape[mode], 16))
                    ref.update_factor(mode, U)
                    new.update_factor(mode, U)


# ---------------------------------------------------------------------------
# perf-counter parity: the cost-model invariant is backend-independent
# ---------------------------------------------------------------------------

class TestCounterParity:
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_identical_counters_across_backends(self, order):
        rng = np.random.default_rng(order)
        shape = tuple([6] * order)
        tensor = random_coo(rng, shape, 80)
        factors = random_factors(rng, shape, 4)
        snapshots = {}
        for backend in BACKENDS:
            engine = MemoizedMttkrp(
                tensor, strategy_for(order), factors, kernel=backend
            )
            updates = np.random.default_rng(99)  # same updates per backend
            for n in engine.mode_order:  # warm-up to steady state
                engine.mttkrp(n)
                engine.update_factor(
                    n, updates.standard_normal((shape[n], 4))
                )
            with counting() as c:
                for n in engine.mode_order:
                    engine.mttkrp(n)
                    engine.update_factor(
                        n, updates.standard_normal((shape[n], 4))
                    )
            snapshots[backend] = c.snapshot()
        reference = snapshots[BACKENDS[0]]
        for backend, snap in snapshots.items():
            assert snap == reference, f"{backend} counters diverge"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert get_kernel().name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert get_kernel().name == "reference"
        engine = MemoizedMttkrp(CooTensor.empty((2, 2, 2)), "star")
        assert engine.kernel.name == "reference"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert get_kernel("numpy").name == "numpy"

    def test_instance_passthrough(self):
        inst = get_kernel("numpy")
        assert get_kernel(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel("no-such-kernel")

    def test_unavailable_backend_falls_back_with_warning(self):
        if "numba" in BACKENDS:
            pytest.skip("numba installed: fallback path not reachable")
        assert "numba" in unavailable_kernels()
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_kernel("numba")
        assert backend.name == "numpy"

    def test_available_lists_default_first(self):
        assert BACKENDS[0] == "numpy"
        assert "reference" in BACKENDS

    def test_backend_is_kernel_backend(self):
        for name in BACKENDS:
            assert isinstance(get_kernel(name), KernelBackend)


# ---------------------------------------------------------------------------
# workspace arena
# ---------------------------------------------------------------------------

class TestWorkspaceArena:
    def test_reuses_buffer_across_requests(self):
        arena = WorkspaceArena()
        a = arena.request("prod", 100, 8)
        b = arena.request("prod", 50, 8)
        assert b.base is a.base  # same backing allocation
        assert b.shape == (50, 8)

    def test_grows_when_needed(self):
        arena = WorkspaceArena()
        small = arena.request("prod", 10, 4)
        big = arena.request("prod", 5000, 4)
        assert big.shape == (5000, 4)
        assert big.base is not small.base

    def test_column_change_reallocates(self):
        arena = WorkspaceArena()
        arena.request("prod", 10, 4)
        wide = arena.request("prod", 10, 8)
        assert wide.shape == (10, 8)

    def test_nbytes_and_clear(self):
        arena = WorkspaceArena()
        arena.request("prod", 2048, 8)
        assert arena.nbytes() >= 2048 * 8 * 8
        arena.clear()
        assert arena.nbytes() == 0

    def test_engine_reports_workspace(self):
        rng = np.random.default_rng(0)
        tensor = random_coo(rng, (6, 6, 6, 6), 200)
        engine = MemoizedMttkrp(
            tensor, "bdt", random_factors(rng, tensor.shape, 4)
        )
        engine.mttkrp(0)
        assert engine.workspace_nbytes() >= 0


# ---------------------------------------------------------------------------
# blocking
# ---------------------------------------------------------------------------

class TestBlocking:
    def test_blocks_partition_sources_and_segments(self):
        rng = np.random.default_rng(0)
        targets = np.sort(rng.integers(0, 500, 4000))
        starts = np.flatnonzero(
            np.concatenate(([True], targets[1:] != targets[:-1]))
        ).astype(np.intp)
        blocks = list(segment_blocks(starts, 4000, 256))
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 4000
        for (_lo, hi, _sl, sh, _ls), (lo2, _h2, sl2, _s2, _l2) in zip(
            blocks, blocks[1:]
        ):
            assert hi == lo2 and sh == sl2
        # local starts reproduce the segment structure exactly
        rebuilt = np.concatenate([ls + lo for lo, _, _, _, ls in blocks])
        np.testing.assert_array_equal(rebuilt, starts)

    def test_oversized_segment_taken_whole(self):
        starts = np.array([0, 10_000], dtype=np.intp)
        blocks = list(segment_blocks(starts, 10_050, 256))
        assert blocks[0][:2] == (0, 10_000)
        assert blocks[1][:2] == (10_000, 10_050)

    def test_zero_block_rows_is_unblocked(self):
        starts = np.arange(0, 100, 10, dtype=np.intp)
        blocks = list(segment_blocks(starts, 100, 0))
        assert len(blocks) == 1
        assert blocks[0][:4] == (0, 100, 0, 10)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "12345")
        assert resolve_block_rows(16) == 12345
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "0")
        assert resolve_block_rows(16) == 0

    def test_default_heuristic_sane(self):
        for rank in (1, 8, 16, 64, 256):
            rows = default_block_rows(rank)
            assert 1024 <= rows <= 1 << 18

    def test_blocked_equals_unblocked_bitwise(self, monkeypatch):
        rng = np.random.default_rng(3)
        tensor = random_coo(rng, (15, 12, 18, 9), 3000)
        factors = random_factors(rng, tensor.shape, 8)
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "0")
        unblocked = MemoizedMttkrp(tensor, "bdt", factors).mttkrp(2)
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "64")
        blocked = MemoizedMttkrp(tensor, "bdt", factors).mttkrp(2)
        np.testing.assert_array_equal(unblocked, blocked)


# ---------------------------------------------------------------------------
# parallel engine through the kernel layer + context managers
# ---------------------------------------------------------------------------

class TestParallelKernels:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunked_rebuild_matches_sequential(self, backend):
        rng = np.random.default_rng(5)
        tensor = random_coo(rng, (12, 14, 10, 11), 4000)
        factors = random_factors(rng, tensor.shape, 8)
        sequential = MemoizedMttkrp(tensor, "bdt", factors, kernel=backend)
        with ParallelMemoizedMttkrp(
            tensor, "bdt", factors, n_workers=3, min_chunk_rows=4,
            kernel=backend,
        ) as par:
            for mode in sequential.mode_order:
                if backend in ("numpy", "reference"):
                    np.testing.assert_array_equal(
                        par.mttkrp(mode), sequential.mttkrp(mode)
                    )
                else:
                    np.testing.assert_allclose(
                        par.mttkrp(mode), sequential.mttkrp(mode),
                        rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
                    )

    def test_context_manager_closes_owned_pool(self):
        tensor = random_coo(np.random.default_rng(0), (5, 5, 5), 50)
        with ParallelMemoizedMttkrp(tensor, "star", n_workers=2) as eng:
            assert eng.pool._executor is not None
        assert eng.pool._executor is None

    def test_context_manager_leaves_shared_pool_open(self):
        from repro.parallel import WorkerPool

        tensor = random_coo(np.random.default_rng(0), (5, 5, 5), 50)
        with WorkerPool(2) as pool:
            with ParallelMemoizedMttkrp(tensor, "star", pool=pool) as eng:
                pass
            assert pool._executor is not None


# ---------------------------------------------------------------------------
# kernel index caching on the symbolic tree
# ---------------------------------------------------------------------------

class TestKernelIndexCache:
    def test_cached_and_shared_across_engines(self):
        rng = np.random.default_rng(2)
        tensor = random_coo(rng, (8, 8, 8, 8), 300)
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        factors = random_factors(rng, tensor.shape, 4)
        e1 = MemoizedMttkrp(tensor, S.balanced_binary(4), factors, symbolic=sym)
        e2 = MemoizedMttkrp(tensor, S.balanced_binary(4), factors, symbolic=sym)
        e1.mttkrp(0)
        e2.mttkrp(0)
        leaf = sym.strategy.leaf_id(0)
        assert sym.kernel_index(leaf) is sym.kernel_index(leaf)
        assert sym.kernel_index(sym.strategy.root_id) is None

    def test_eager_build_and_accounting(self):
        rng = np.random.default_rng(3)
        tensor = random_coo(rng, (8, 8, 8), 200)
        sym = SymbolicTree(tensor, S.balanced_binary(3))
        assert sym.kernel_index_nbytes() == 0
        sym.build_kernel_indices()
        assert sym.kernel_index_nbytes() > 0
        # excluded from the model-checked symbolic index bytes
        from repro.model.cost import symbolic_index_bytes

        assert symbolic_index_bytes(
            sym.strategy, sym.node_nnz()
        ) == sym.index_nbytes()

    def test_gather_arrays_are_flat_and_permuted(self):
        """gather = the parent's index column taken through the source
        order: the plan's permutation, then the length-class layout."""
        rng = np.random.default_rng(4)
        tensor = random_coo(rng, (9, 7, 8, 6), 250)
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        n_layouts = 0
        for node in sym.strategy.nodes:
            if node.is_root:
                continue
            ki = sym.kernel_index(node.id)
            plan = sym.nodes[node.id].plan
            parent_index = sym.nodes[node.parent].index
            order = np.arange(plan.n_sources)
            built = length_class_layout(plan.starts, plan.n_sources)
            reorders = not plan.has_identity_perm or sym.strategy.nodes[
                node.parent].is_root
            if built is not None and not plan.is_identity and reorders:
                order = built[0]
                n_layouts += 1
                assert ki.layout is not None
            perm = ki.perm if ki.perm is not None else order
            np.testing.assert_array_equal(perm, plan.perm[order])
            for g, d_col in zip(
                ki.gather, sym.nodes[node.id].delta_parent_cols
            ):
                assert g.flags.c_contiguous
                expected = parent_index[:, d_col][plan.perm[order]]
                np.testing.assert_array_equal(g, expected)
        assert n_layouts > 0


# ---------------------------------------------------------------------------
# length-class layout: bitwise equal to np.add.reduceat
# ---------------------------------------------------------------------------

class _OneIndexTree:
    """Stands in for a SymbolicTree holding a single kernel index."""

    def __init__(self, ki):
        self.ki = ki

    def kernel_index(self, node_id):
        return self.ki


def layout_segment_sum(values, lengths, block_rows):
    """Segment-sum ``values`` (``(n, R)``) over consecutive runs of
    ``lengths`` through the numpy kernel's real block loop.

    The node has one delta mode whose factor is ``values`` itself and root
    values of exactly 1.0, so every product is the value unchanged.
    """
    n, rank = values.shape
    starts = (np.cumsum(lengths) - lengths).astype(np.intp)
    ki = make_node_index(1, (0,), [np.arange(n)], None, starts, n,
                         identity=False, parent_is_root=True)
    ctx = RebuildContext(_OneIndexTree(ki), 1, None, None, [values], None,
                         np.ones(n), rank, WorkspaceArena())
    out = np.empty((len(lengths), rank))
    if n:
        with np.errstate(over="ignore", invalid="ignore"):
            get_kernel("numpy")._run_blocks(ctx, ki, ki.blocks(block_rows),
                                            out)
    return ki, out


def reduceat(values, lengths):
    """The reference: ``np.add.reduceat`` over consecutive runs."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.reduceat(values, np.cumsum(lengths) - lengths, axis=0)


def assert_bitwise(a, b):
    """Equal bit for bit, signed zeros included; NaNs must sit in the same
    places, but their sign and payload are left to the hardware (x86
    returns the first NaN operand of an add, and compilers may swap a
    commutative add's operands)."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.uint64),
                                  b[~nan].view(np.uint64))


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                     5e-324, 1.0, -1.0, 1e-16, 3.0])


def special_values(seed, n, rank, special_frac):
    """Values spanning 24 decades, with ``special_frac`` of the entries
    replaced by signed zeros, infinities, NaN and extremes."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, rank)) * 10.0 ** rng.integers(
        -12, 12, (n, rank))
    mask = rng.random((n, rank)) < special_frac
    values[mask] = rng.choice(SPECIALS, int(mask.sum()))
    return values


class TestLengthClassSum:
    @pytest.mark.parametrize("width", range(2, MAX_CLASS_ROWS + 1))
    def test_class_sum_matches_reduceat(self, width):
        rng = np.random.default_rng(width)
        block = rng.standard_normal((50 * width, 5)) * 10.0 ** rng.integers(
            -12, 12, (50 * width, 5))
        out = np.empty((50, 5))
        length_class_sum(block, width, out)
        assert_bitwise(out, np.add.reduceat(
            block, np.arange(0, 50 * width, width), axis=0))

    @given(
        lengths=hst.lists(hst.one_of(
            hst.integers(1, 9),
            hst.sampled_from([9, 16, 128, 129, 1000]),
        ), max_size=40),
        rank=hst.sampled_from([1, 3, 16]),
        block_rows=hst.sampled_from([0, 1, 7, 64, 5000]),
        seed=hst.integers(0, 2**31 - 1),
        special_frac=hst.sampled_from([0.0, 0.05, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_layout_matches_reduceat(self, lengths, rank, block_rows, seed,
                                     special_frac):
        lengths = np.array(lengths, dtype=np.intp)
        values = special_values(seed, int(lengths.sum()), rank, special_frac)
        _, out = layout_segment_sum(values, lengths, block_rows)
        if values.shape[0]:
            assert_bitwise(out, reduceat(values, lengths))

    @pytest.mark.parametrize("block_rows", [0, 5, 100])
    def test_fixed_lengths_and_special_values(self, block_rows):
        lengths = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128, 129, 1000,
                            8, 3, 1, 9, 2], dtype=np.intp)
        rng = np.random.default_rng(11)
        values = rng.standard_normal((int(lengths.sum()), 4)) * 1e8
        # sign of zero: -0.0 sums stay -0.0, mixed zeros give +0.0
        values[:, 0] = -0.0
        values[1:3, 1] = [0.0, -0.0]
        values[3:6, 2] = [np.inf, 1.0, -np.inf]
        values[36:45, 2] = np.nan
        values[6:10, 3] = [1e308, 1e308, -1e308, 1.0]
        ki, out = layout_segment_sum(values, lengths, block_rows)
        assert ki.layout is not None
        assert_bitwise(out, reduceat(values, lengths))
        assert np.signbit(out[:, 0]).all()

    def test_empty_node(self):
        ki, out = layout_segment_sum(np.empty((0, 3)),
                                     np.zeros(0, dtype=np.intp), 64)
        assert out.shape == (0, 3)
        assert ki.layout is None and ki.n_sources == 0

    def test_only_long_segments_keep_plain_order(self):
        lengths = np.array([9, 12, 30], dtype=np.intp)
        ki, _ = layout_segment_sum(np.ones((51, 2)), lengths, 64)
        assert ki.layout is None and ki.perm is None

    def test_runs_cover_every_segment_once(self):
        """``runs()`` (what fused backends iterate) sums to the plain
        reduction when each run is scattered to its row."""
        lengths = np.array([3, 12, 1, 1, 8, 2, 40, 5], dtype=np.intp)
        rng = np.random.default_rng(2)
        values = rng.standard_normal((int(lengths.sum()), 3))
        ki, out = layout_segment_sum(values, lengths, 0)
        run_starts, rows = ki.runs()
        sums = np.add.reduceat(values[ki.perm], run_starts, axis=0)
        got = np.empty_like(sums)
        got[rows] = sums
        assert_bitwise(got, out)

    def test_chunks_map_to_layout_regions(self):
        """Any segment range maps to whole runs of each region, and the
        ranges of a partition reproduce the whole-node blocks."""
        lengths = np.array([1, 9, 2, 2, 1, 30, 3, 1, 8, 9], dtype=np.intp)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((int(lengths.sum()), 2))
        ki, full = layout_segment_sum(values, lengths, 4)
        ctx = RebuildContext(_OneIndexTree(ki), 1, None, None, [values],
                             None, np.ones(values.shape[0]), 2,
                             WorkspaceArena())
        out = np.full_like(full, np.nan)
        kernel = get_kernel("numpy")
        for lo, hi in [(0, 3), (3, 4), (4, 9), (9, 10)]:
            kernel.rebuild_chunk(ctx, slice(None), slice(lo, hi), out)
        assert_bitwise(out, full)

    def test_zipf_cp_als_reference_equals_default(self, monkeypatch):
        """A skewed tensor with many one-row segments: CP-ALS factors from
        the seed numeric path and from the default kernel are bitwise
        equal."""
        from repro.core.cpals import cp_als
        from repro.synth.skewed import skewed_random_tensor

        tensor = skewed_random_tensor((60, 50, 40, 30), 3000, 1.2,
                                      random_state=0,
                                      value_distribution="uniform")
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        plan = sym.nodes[1].plan
        lens = np.diff(plan.starts, append=plan.n_sources)
        assert (lens == 1).sum() > plan.n_segments // 2
        results = {}
        for kernel in ("reference", "numpy"):
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            results[kernel] = cp_als(tensor, 6, strategy="bdt", n_iter_max=4,
                                     tol=0.0, random_state=1).ktensor
        ref, new = results["reference"], results["numpy"]
        assert_bitwise(ref.weights, new.weights)
        for a, b in zip(ref.factors, new.factors):
            assert_bitwise(a, b)

    def test_nbytes_counts_layout_and_root_value_cache(self):
        rng = np.random.default_rng(6)
        tensor = random_coo(rng, (30, 25, 20, 15), 2000)
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        sym.build_kernel_indices()
        total = sym.kernel_index_nbytes()
        # the root child on mode 0's path: the one mttkrp(0) rebuilds
        root_child = sym.strategy.path_to_root(sym.strategy.leaf_id(0))[-2]
        ki = sym.kernel_index(root_child)
        assert ki.layout is not None
        base = (ki.starts.nbytes + sum(g.nbytes for g in ki.gather)
                + ki.perm.nbytes)
        layout_bytes = ki.layout.segs.nbytes + ki.layout.long_starts.nbytes
        assert ki.nbytes() == base + layout_bytes
        MemoizedMttkrp(tensor, sym.strategy,
                       random_factors(rng, tensor.shape, 4),
                       symbolic=sym).mttkrp(0)
        assert ki.nbytes() == base + layout_bytes + tensor.nnz * 8
        assert sym.kernel_index_nbytes() == total + tensor.nnz * 8
