"""Narrow kernel indices: every kept index array in its range's dtype.

The symbolic pass stores each gather column and leaf row in its mode's
coordinate dtype (``uint16`` up to 65,536 rows, else ``int32``, ``int64``
past ``2**31``) and every position array in ``int32``
(:func:`repro.core.dtypes.index_dtype`).  The width boundaries are reached
through the tensor's shape, never through large arrays: a mode of 65,537
rows is ``int32`` with a handful of nonzeros.  Narrowing must change no
value — each array equals the one an all-``int64`` build keeps, and the
numpy kernel stays bitwise equal to ``reference`` — and the cost model
must price the narrow arrays exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import repro.core.symbolic as symbolic_module
import repro.kernels.indices as indices_module
from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.dtypes import index_dtype
from repro.core.engine import MemoizedMttkrp
from repro.core.symbolic import SymbolicTree
from repro.io.frostt import read_tns
from repro.kernels import WorkspaceArena, get_kernel, segment_blocks
from repro.kernels.backends import RebuildContext
from repro.model.cost import cost_from_symbolic, node_cost_terms

from .helpers import random_factors

RANK = 3
HUGE = 2**40

STRATEGIES = [
    S.star(4),
    S.two_way(4),
    S.chain(4, 2),
    S.balanced_binary(4),
    S.from_nested((0, (1, 2, 3))),
    S.from_nested((3, (0, (1, 2)))),
]


def top_heavy_tensor(shape, nnz, seed, spread=6) -> CooTensor:
    """Nonzeros whose coordinates sit at the top of each mode, drawn from
    a few values per mode so that projections collide (segments of
    several rows, parent-row maps and length classes all occur)."""
    rng = np.random.default_rng(seed)
    idx = np.column_stack([
        s - 1 - rng.integers(0, min(s, spread), size=nnz) for s in shape
    ])
    return CooTensor(idx, rng.standard_normal(nnz), shape)


def int64_tree(tensor, strategy, monkeypatch) -> SymbolicTree:
    """The tree an all-``int64`` build keeps (the rule widened to int64)."""
    def wide(extent, coordinate=False):
        return np.dtype(np.int64)

    with monkeypatch.context() as m:
        m.setattr(symbolic_module, "index_dtype", wide)
        m.setattr(indices_module, "index_dtype", wide)
        return SymbolicTree(tensor, strategy)


def assert_same_values_narrow_dtypes(narrow, wide):
    """Every array the narrow tree keeps equals the int64 build's, in the
    dtype of its range."""
    shape = narrow.tensor.shape
    for node in narrow.strategy.nodes:
        if node.is_root:
            continue
        ki, kw = narrow.kernel_index(node.id), wide.kernel_index(node.id)
        positions = index_dtype(ki.n_sources)
        assert len(ki.gather) == len(kw.gather) == len(node.delta)
        for mode, g, gw in zip(node.delta, ki.gather, kw.gather):
            assert g.dtype == index_dtype(shape[mode], coordinate=True)
            assert gw.dtype == np.int64
            np.testing.assert_array_equal(g, gw)
        assert (ki.perm is None) == (kw.perm is None)
        if ki.perm is not None:
            assert ki.perm.dtype == positions
            np.testing.assert_array_equal(ki.perm, kw.perm)
        assert ki.starts.dtype == positions
        np.testing.assert_array_equal(ki.starts, kw.starts)
        assert (ki.row_order is None) == (kw.row_order is None)
        if ki.row_order is not None:
            assert ki.row_order.dtype == index_dtype(ki.n_segments)
            np.testing.assert_array_equal(ki.row_order, kw.row_order)
        assert (ki.layout is None) == (kw.layout is None)
        if ki.layout is not None:
            assert ki.layout.seg_bounds == kw.layout.seg_bounds
            assert ki.layout.src_bounds == kw.layout.src_bounds
        if node.is_leaf:
            rows, rows_w = narrow.leaf_rows(node.id), wide.leaf_rows(node.id)
            assert rows.dtype == index_dtype(shape[node.modes[0]],
                                             coordinate=True)
            np.testing.assert_array_equal(rows, rows_w)


def assert_model_exact(sym):
    """The existing exactness rule, on the narrow arrays: the model equals
    the kept bytes at the root and at every node with a parent-row map
    and its own layout, and bounds them elsewhere."""
    terms = node_cost_terms(sym.strategy, sym.node_nnz(), RANK,
                            sym.tensor.shape)
    for term in terms:
        measured = sym.node_index_nbytes(term.node_id)
        ki = sym.kernel_index(term.node_id)
        if ki is None or (ki.perm is not None and ki.layout is not None):
            assert term.index_bytes == measured
        else:
            assert term.index_bytes > measured
    modeled = cost_from_symbolic(sym, RANK).index_bytes
    assert modeled == sum(t.index_bytes for t in terms)
    assert modeled >= sym.index_nbytes()


def node_values(sym, kernel, factors):
    """Every non-root node's values, rebuilt in topological order by one
    backend (no engine: a mode of ``2**40`` rows has no MTTKRP output)."""
    strategy, tensor = sym.strategy, sym.tensor
    backend, arena, vals = get_kernel(kernel), WorkspaceArena(), {}
    for nid in strategy.topological_order():
        node = strategy.nodes[nid]
        if node.is_root:
            continue
        from_root = strategy.nodes[node.parent].is_root
        ctx = RebuildContext(
            sym, nid, sym.nodes[nid], sym.nodes[node.parent], factors,
            None if from_root else vals[node.parent],
            tensor.vals if from_root else None, RANK, arena)
        vals[nid] = backend.rebuild(ctx)
    return vals


class UsedRows:
    """A factor matrix of ``2**40`` rows that stores only the rows the
    coordinates ``used`` name: ``np.take`` (the numpy kernel) and fancy
    indexing (the reference kernel) both dispatch here."""

    def __init__(self, used, rng):
        self.used = np.unique(used)
        self.values = rng.standard_normal((self.used.shape[0], RANK))

    def __getitem__(self, index):
        pos = np.searchsorted(self.used, index)
        np.testing.assert_array_equal(self.used[pos], index)
        return self.values[pos]

    def take(self, indices, axis=0, out=None, mode="raise"):
        assert axis == 0
        rows = self[np.asarray(indices)]
        if out is None:
            return rows
        out[...] = rows
        return out


def assert_bitwise(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestIndexDtype:
    @pytest.mark.parametrize("extent, coordinate, expected", [
        (1, True, np.uint16), (65_536, True, np.uint16),
        (65_537, True, np.int32), (2**31, True, np.int32),
        (2**31 + 1, True, np.int64), (HUGE, True, np.int64),
        (0, False, np.int32), (65_536, False, np.int32),
        (2**31, False, np.int32), (2**31 + 1, False, np.int64),
    ])
    def test_rule(self, extent, coordinate, expected):
        assert index_dtype(extent, coordinate=coordinate) == expected

    def test_segment_blocks_same_for_every_width(self):
        """The block walk gives the same blocks on narrow starts."""
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 40, 500)
        starts = np.cumsum(lengths) - lengths
        n = int(lengths.sum())
        for block_rows in (0, 1, 64, 257, n):
            want = list(segment_blocks(starts, n, block_rows))
            got = list(segment_blocks(starts.astype(np.int32), n,
                                      block_rows))
            assert [b[:4] for b in got] == [b[:4] for b in want]
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g[4], w[4])


class TestWidthBoundaries:
    #: uint16 / int32 straddle in modes 0 and 1, small modes 2 and 3
    SHAPE = (65_536, 65_537, 6, 5)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_straddling_uint16(self, strategy, monkeypatch):
        tensor = top_heavy_tensor(self.SHAPE, 300, seed=1)
        sym = SymbolicTree(tensor, strategy)
        assert_same_values_narrow_dtypes(
            sym, int64_tree(tensor, strategy, monkeypatch))
        assert_model_exact(sym)
        factors = random_factors(np.random.default_rng(2), tensor.shape,
                                 RANK)
        engines = [MemoizedMttkrp(tensor, strategy, factors, symbolic=sym,
                                  kernel=k) for k in ("numpy", "reference")]
        for mode in engines[0].mode_order:
            assert_bitwise(engines[0].mttkrp(mode), engines[1].mttkrp(mode))

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_mode_past_int32_falls_back_to_int64(self, strategy,
                                                 monkeypatch):
        """A mode of ``2**40`` rows and a handful of nonzeros: its gather
        columns and leaf rows are ``int64``, everything else stays narrow,
        and the kernels agree bit for bit."""
        shape = (65_536, 65_537, 5, HUGE)
        tensor = top_heavy_tensor(shape, 12, seed=3, spread=3)
        assert tensor.idx[:, 3].max() == HUGE - 1
        sym = SymbolicTree(tensor, strategy)
        assert_same_values_narrow_dtypes(
            sym, int64_tree(tensor, strategy, monkeypatch))
        leaf = strategy.leaf_id(3)
        assert sym.leaf_rows(leaf).dtype == np.int64
        assert any(g.dtype == np.int64
                   for n in strategy.nodes if 3 in n.delta
                   for g in sym.kernel_index(n.id).gather)
        assert_model_exact(sym)
        rng = np.random.default_rng(4)
        factors = random_factors(rng, shape[:3], RANK)
        factors.append(UsedRows(tensor.idx[:, 3], rng))
        new = node_values(sym, "numpy", factors)
        ref = node_values(sym, "reference", factors)
        assert sorted(new) == sorted(ref)
        for nid in new:
            assert_bitwise(new[nid], ref[nid])

    def test_index_bytes_fall_with_the_widths(self):
        """Past 65,536 rows a coordinate costs 4 bytes, not 2: the model
        and the kept arrays move together."""
        strategy = S.balanced_binary(4)
        small = top_heavy_tensor((65_536, 65_536, 6, 5), 300, seed=5)
        large = CooTensor(small.idx, small.vals, (65_537, 65_537, 6, 5))
        for tensor in (small, large):
            assert_model_exact(SymbolicTree(tensor, strategy))
        assert (SymbolicTree(small, strategy).index_nbytes()
                < SymbolicTree(large, strategy).index_nbytes())


@given(sizes=hst.lists(hst.integers(65_530, 65_542), min_size=2,
                       max_size=2),
       small=hst.integers(2, 7), nnz=hst.integers(1, 120),
       seed=hst.integers(0, 10_000), which=hst.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_random_shapes_straddling_uint16(sizes, small, nnz, seed, which):
    """Random mode sizes on both sides of 65,536: values equal the int64
    build, the model is exact, and numpy equals reference bitwise."""
    shape = (sizes[0], small, sizes[1], 4)
    strategy = STRATEGIES[which]
    tensor = top_heavy_tensor(shape, nnz, seed)
    sym = SymbolicTree(tensor, strategy)
    with pytest.MonkeyPatch.context() as mp:
        wide = int64_tree(tensor, strategy, mp)
    assert_same_values_narrow_dtypes(sym, wide)
    assert_model_exact(sym)
    factors = random_factors(np.random.default_rng(seed), shape, RANK)
    engines = [MemoizedMttkrp(tensor, strategy, factors, symbolic=sym,
                              kernel=k) for k in ("numpy", "reference")]
    for mode in engines[0].mode_order:
        assert_bitwise(engines[0].mttkrp(mode), engines[1].mttkrp(mode))


class TestReadTnsChecksBoundsOnce:
    def write(self, path, rows):
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        return path

    def test_no_second_bounds_scan(self, tmp_path, monkeypatch):
        """``read_tns`` takes each column's min and max itself; the tensor
        it builds does not scan the coordinates again."""
        import repro.core.coo as coo

        def rescan(*args, **kwargs):
            raise AssertionError("coordinates scanned twice")

        monkeypatch.setattr(coo, "check_indices_in_bounds", rescan)
        path = self.write(tmp_path / "t.tns", [(1, 2, 1.5), (3, 1, -2.0)])
        for shape in (None, (3, 2), (4, 9)):
            tensor = read_tns(path, shape=shape)
            assert tensor.shape == (shape or (3, 2))
            np.testing.assert_array_equal(tensor.idx, [[0, 1], [2, 0]])

    def test_error_texts_kept(self, tmp_path):
        path = self.write(tmp_path / "t.tns", [(1, 2, 1.5), (3, 1, -2.0)])
        with pytest.raises(ValueError,
                           match="index 2 out of bounds for mode 0 of "
                                 "size 2"):
            read_tns(path, shape=(2, 2))
        with pytest.raises(ValueError, match="3 modes"):
            read_tns(path, shape=(3, 2, 1))
        zero = self.write(tmp_path / "z.tns", [(0, 2, 1.5)])
        with pytest.raises(ValueError, match="1-based positive"):
            read_tns(zero)
        with pytest.raises(ValueError, match="1-based positive"):
            read_tns(zero, shape=(5, 5))
