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
from repro.kernels.indices import CLASS_TILE_SOURCES, lexicographic
from repro.parallel import ParallelMemoizedMttkrp
from repro.parallel.engine import block_groups
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
        """Every stored row's sources (``runs()``) are exactly its
        segment's parent rows, in the plan's order: the parent-row map
        names the parent's stored row of each, and the gather arrays hold
        the parent's lexicographic index column for each."""
        rng = np.random.default_rng(4)
        tensor = random_coo(rng, (9, 7, 8, 6), 250)
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        n_layouts = 0
        for node in sym.strategy.nodes:
            if node.is_root:
                continue
            ki = sym.kernel_index(node.id)
            plan = sym.nodes[node.id].plan
            parent_order = sym.row_order(node.parent)
            # the parent's lexicographic row behind each source
            stored = (np.arange(ki.n_sources) if ki.perm is None
                      else ki.perm)
            source = (stored if parent_order is None
                      else parent_order[stored])
            for g, d_col in zip(
                ki.gather, sym.nodes[node.id].delta_parent_cols
            ):
                assert g.flags.c_contiguous
                np.testing.assert_array_equal(
                    g, sym.nodes[node.parent].index[source, d_col])
            row_order = (np.arange(ki.n_segments) if ki.row_order is None
                         else ki.row_order)
            lens = np.diff(plan.starts, append=plan.n_sources)
            run_starts, run_lens, run_strides = ki.runs()
            for row in range(ki.n_segments):
                seg = row_order[row]
                run = (run_starts[row]
                       + run_strides[row] * np.arange(run_lens[row]))
                lo = plan.starts[seg]
                np.testing.assert_array_equal(
                    source[run], plan.perm[lo:lo + lens[seg]])
            n_layouts += ki.layout is not None
        assert n_layouts > 0

    def test_identity_child_inherits_row_order(self):
        """An identity child of a layout node stores its rows in the
        parent's order and reads the parent's rows contiguously."""
        rng = np.random.default_rng(12)
        idx = rng.integers(0, 6, (400, 4))
        idx[:, 1] = 0  # (1, 2, 3) -> (2, 3) is one-to-one and sorted
        tensor = CooTensor(idx, rng.standard_normal(400), (6, 1, 6, 6))
        factors = random_factors(rng, tensor.shape, 5)
        strategy = S.chain(4, 2)
        new = MemoizedMttkrp(tensor, strategy, factors, kernel="numpy")
        ref = MemoizedMttkrp(tensor, strategy, factors, kernel="reference")
        sym = new.symbolic
        (child,) = [n for n in strategy.nodes if n.modes == (2, 3)]
        ki = sym.kernel_index(child.id)
        assert ki.identity and ki.perm is None
        assert ki.row_order is sym.row_order(child.parent)
        assert ki.row_order is not None
        for mode in new.mode_order:
            np.testing.assert_array_equal(new.mttkrp(mode), ref.mttkrp(mode))
            np.testing.assert_allclose(
                new.mttkrp(mode), naive_mttkrp(tensor, factors, mode),
                rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL)

    def test_sorted_child_of_layout_parent_gathers(self):
        """A child whose plan keeps its parent's order still gathers when
        the parent stores its rows in layout order, so it gets a layout of
        its own; its stored rows equal the reference's lexicographic rows
        taken through its row order."""
        from repro.synth.skewed import skewed_random_tensor

        tensor = skewed_random_tensor((60, 50, 40, 30), 3000, 1.2,
                                      random_state=0,
                                      value_distribution="uniform")
        strategy = S.balanced_binary(4)
        factors = random_factors(np.random.default_rng(1), tensor.shape, 6)
        new = MemoizedMttkrp(tensor, strategy, factors, kernel="numpy")
        ref = MemoizedMttkrp(tensor, strategy, factors, kernel="reference")
        sym = new.symbolic
        checked = 0
        for node in strategy.nodes:
            if node.is_root or strategy.nodes[node.parent].is_root:
                continue
            ki = sym.kernel_index(node.id)
            if not (sym.nodes[node.id].plan.has_identity_perm
                    and sym.row_order(node.parent) is not None):
                continue
            assert ki.perm is not None and ki.layout is not None
            new._ensure_node(node.id)
            lex = ref.node_tensor(node.id).vals
            assert_bitwise(new._values[node.id], lex[ki.row_order])
            assert_bitwise(new.node_tensor(node.id).vals, lex)
            checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# length-class layout: bitwise equal to np.add.reduceat
# ---------------------------------------------------------------------------

class _OneIndexTree:
    """Stands in for a SymbolicTree holding a single kernel index."""

    def __init__(self, ki):
        self.ki = ki

    def kernel_index(self, node_id):
        return self.ki


def layout_segment_sum(values, lengths, block_rows,
                       tile=CLASS_TILE_SOURCES):
    """Segment-sum ``values`` (``(n, R)``) over consecutive runs of
    ``lengths`` through the numpy kernel's real block loop, and return the
    rows mapped back to segment order through the node's row order.

    The node has one delta mode whose factor is ``values`` itself and root
    values of exactly 1.0, so every product is the value unchanged.
    """
    n, rank = values.shape
    starts = (np.cumsum(lengths) - lengths).astype(np.intp)
    ki = make_node_index(1, (0,), [np.arange(n)], None, starts, n,
                         identity=False, parent_is_root=True, tile=tile)
    ctx = RebuildContext(_OneIndexTree(ki), 1, None, None, [values], None,
                         np.ones(n), rank, WorkspaceArena())
    out = np.empty((len(lengths), rank))
    if n:
        with np.errstate(over="ignore", invalid="ignore"):
            get_kernel("numpy")._run_blocks(ctx, ki, ki.blocks(block_rows),
                                            out)
    return ki, lexicographic(out, ki.row_order)


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
        """A position-major tile (source ``j`` of every segment together)
        sums like ``reduceat`` over each segment's sources."""
        rng = np.random.default_rng(width)
        block = rng.standard_normal((50 * width, 5)) * 10.0 ** rng.integers(
            -12, 12, (50 * width, 5))
        out = np.empty((50, 5))
        length_class_sum(block, width, out)
        segment_major = block.reshape(width, 50, 5).transpose(1, 0, 2)
        assert_bitwise(out, np.add.reduceat(
            segment_major.reshape(-1, 5), np.arange(0, 50 * width, width),
            axis=0))

    @given(
        lengths=hst.lists(hst.one_of(
            hst.integers(1, 9),
            hst.sampled_from([9, 16, 128, 129, 1000]),
        ), max_size=40),
        rank=hst.sampled_from([1, 3, 16]),
        block_rows=hst.sampled_from([0, 1, 7, 64, 5000]),
        tile=hst.sampled_from([1, 2, 5, 16, 4096]),
        seed=hst.integers(0, 2**31 - 1),
        special_frac=hst.sampled_from([0.0, 0.05, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_layout_matches_reduceat(self, lengths, rank, block_rows, tile,
                                     seed, special_frac):
        lengths = np.array(lengths, dtype=np.intp)
        values = special_values(seed, int(lengths.sum()), rank, special_frac)
        _, out = layout_segment_sum(values, lengths, block_rows, tile)
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
        for tile in (1, 6, 4096):
            ki, out = layout_segment_sum(values, lengths, block_rows, tile)
            assert ki.layout is not None
            assert_bitwise(out, reduceat(values, lengths))
            assert np.signbit(out[:, 0]).all()

    def test_small_tiles_split_classes_position_major(self):
        """Seven 3-row segments in tiles of 6 sources: two segments per
        tile, the last tile holding one; inside a tile source ``j`` of
        every segment is stored together."""
        lengths = np.full(7, 3, dtype=np.intp)
        values = np.arange(21.0)[:, None]
        ki, out = layout_segment_sum(values, lengths, 64, tile=6)
        assert list(ki.layout.tiles(3)) == [(0, 0, 2), (6, 2, 2),
                                            (12, 4, 2), (18, 6, 1)]
        np.testing.assert_array_equal(
            ki.perm[:6], [0, 3, 1, 4, 2, 5])
        np.testing.assert_array_equal(ki.perm[18:], [18, 19, 20])
        assert_bitwise(out, reduceat(values, lengths))

    def test_empty_node(self):
        ki, out = layout_segment_sum(np.empty((0, 3)),
                                     np.zeros(0, dtype=np.intp), 64)
        assert out.shape == (0, 3)
        assert ki.layout is None and ki.n_sources == 0

    def test_only_long_segments_keep_plain_order(self):
        lengths = np.array([9, 12, 30], dtype=np.intp)
        ki, _ = layout_segment_sum(np.ones((51, 2)), lengths, 64)
        assert ki.layout is None and ki.perm is None
        assert ki.row_order is None

    def test_runs_cover_every_segment_once(self):
        """``runs()`` (what fused backends iterate) gives each stored row
        exactly its segment's sources, in order, also across tiles."""
        lengths = np.array([3, 12, 1, 1, 8, 2, 40, 5, 3, 3, 2], dtype=np.intp)
        for tile in (1, 4, 4096):
            ki, _ = layout_segment_sum(np.ones((int(lengths.sum()), 1)),
                                       lengths, 0, tile)
            starts = np.cumsum(lengths) - lengths
            run_starts, run_lens, run_strides = ki.runs()
            for row, seg in enumerate(ki.row_order):
                run = (run_starts[row]
                       + run_strides[row] * np.arange(run_lens[row]))
                np.testing.assert_array_equal(
                    ki.perm[run], starts[seg] + np.arange(lengths[seg]))

    def test_chunks_map_to_layout_regions(self):
        """Contiguous groups of the cached blocks (the thread tier's
        chunks) write disjoint stored rows and together reproduce the
        whole-node result."""
        lengths = np.array([1, 9, 2, 2, 1, 30, 3, 1, 8, 9, 2, 2, 1],
                           dtype=np.intp)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((int(lengths.sum()), 2))
        n = values.shape[0]
        full_ki, full = layout_segment_sum(values, lengths, 4, tile=4)
        ki = make_node_index(1, (0,), [np.arange(n)], None,
                             (np.cumsum(lengths) - lengths).astype(np.intp),
                             n, identity=False, parent_is_root=True, tile=4)
        ctx = RebuildContext(_OneIndexTree(ki), 1, None, None, [values],
                             None, np.ones(n), 2, WorkspaceArena())
        kernel = get_kernel("numpy")
        blocks = ki.blocks_for(4)
        for n_groups in (1, 2, 3, len(blocks), 64):
            groups = block_groups(blocks, n, n_groups)
            assert 1 <= len(groups) <= min(n_groups, len(blocks))
            assert [b for g in groups for b in g] == blocks
            out = np.full_like(full, np.nan)
            for group in groups:
                kernel.rebuild_chunk(ctx, group, out)
            assert_bitwise(lexicographic(out, ki.row_order), full)

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
        layout_bytes = ki.row_order.nbytes + ki.layout.long_starts.nbytes
        assert ki.nbytes() == base + layout_bytes
        MemoizedMttkrp(tensor, sym.strategy,
                       random_factors(rng, tensor.shape, 4),
                       symbolic=sym).mttkrp(0)
        assert ki.nbytes() == base + layout_bytes + tensor.nnz * 8
        assert sym.kernel_index_nbytes() == total + tensor.nnz * 8
