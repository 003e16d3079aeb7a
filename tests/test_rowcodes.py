"""Unit tests for repro.core.rowcodes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rowcodes


class TestFitsInt64:
    def test_small_dims_fit(self):
        assert rowcodes.fits_int64([10, 20, 30])

    def test_empty_dims_fit(self):
        assert rowcodes.fits_int64([])

    def test_huge_product_does_not_fit(self):
        assert not rowcodes.fits_int64([2**40, 2**40])

    def test_boundary(self):
        assert rowcodes.fits_int64([2**62])
        assert not rowcodes.fits_int64([2**62, 4])


class TestEncodeRows:
    def test_row_major_order(self):
        idx = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int64)
        codes = rowcodes.encode_rows(idx, [2, 3])
        assert codes.tolist() == [0, 1, 3]

    def test_matches_lexicographic_order(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 7, size=(50, 3)).astype(np.int64)
        codes = rowcodes.encode_rows(idx, [7, 7, 7])
        by_code = np.argsort(codes, kind="stable")
        by_lex = rowcodes.lexsort_rows(idx)
        assert np.array_equal(idx[by_code], idx[by_lex])

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            rowcodes.encode_rows(np.zeros((2, 2), dtype=np.int64), [5])

    def test_overflow_raises(self):
        idx = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(OverflowError):
            rowcodes.encode_rows(idx, [2**40, 2**40])

    def test_zero_columns(self):
        codes = rowcodes.encode_rows(np.zeros((4, 0), dtype=np.int64), [])
        assert codes.tolist() == [0, 0, 0, 0]

    def test_codes_unique_iff_rows_unique(self):
        idx = np.array([[1, 2], [1, 2], [2, 1]], dtype=np.int64)
        codes = rowcodes.encode_rows(idx, [4, 4])
        assert codes[0] == codes[1] != codes[2]


class TestGroupRows:
    def test_basic_grouping(self):
        idx = np.array([[1, 1], [0, 0], [1, 1], [0, 1]], dtype=np.int64)
        unique_rows, inverse = rowcodes.group_rows(idx, [2, 2])
        assert unique_rows.tolist() == [[0, 0], [0, 1], [1, 1]]
        assert inverse.tolist() == [2, 0, 2, 1]

    def test_reconstruction_property(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 5, size=(200, 4)).astype(np.int64)
        unique_rows, inverse = rowcodes.group_rows(idx, [5] * 4)
        assert np.array_equal(unique_rows[inverse], idx)

    def test_unique_rows_sorted(self):
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 4, size=(100, 3)).astype(np.int64)
        unique_rows, _ = rowcodes.group_rows(idx, [4] * 3)
        order = rowcodes.lexsort_rows(unique_rows)
        assert np.array_equal(order, np.arange(unique_rows.shape[0]))

    def test_empty_input(self):
        idx = np.zeros((0, 3), dtype=np.int64)
        unique_rows, inverse = rowcodes.group_rows(idx, [4] * 3)
        assert unique_rows.shape == (0, 3)
        assert inverse.shape == (0,)

    def test_matches_np_unique_on_fallback_path(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 3, size=(60, 2)).astype(np.int64)
        # Force the lexicographic fallback with oversized dims.
        u1, inv1 = rowcodes.group_rows(idx, [2**40, 2**40])
        u2, inv2 = np.unique(idx, axis=0, return_inverse=True)
        assert np.array_equal(u1, u2)
        assert np.array_equal(inv1, inv2.ravel())

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=0, max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_np_unique(self, rows):
        idx = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        u1, inv1 = rowcodes.group_rows(idx, [7, 7, 7])
        if len(rows):
            u2, inv2 = np.unique(idx, axis=0, return_inverse=True)
            assert np.array_equal(u1, u2)
            assert np.array_equal(inv1, inv2.ravel())
        else:
            assert u1.shape[0] == 0


class TestCountDistinctRows:
    def test_counts(self):
        idx = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.int64)
        assert rowcodes.count_distinct_rows(idx, [2, 2]) == 2

    def test_empty(self):
        assert rowcodes.count_distinct_rows(np.zeros((0, 2), np.int64), [2, 2]) == 0

    def test_zero_columns_counts_one(self):
        assert rowcodes.count_distinct_rows(np.zeros((5, 0), np.int64), []) == 1

    def test_agrees_with_group_rows(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 9, size=(300, 3)).astype(np.int64)
        u, _ = rowcodes.group_rows(idx, [9] * 3)
        assert rowcodes.count_distinct_rows(idx, [9] * 3) == u.shape[0]


def _np_unique_rows(idx):
    """Reference grouping: NumPy's own row-wise unique."""
    unique_rows, inverse = np.unique(idx, axis=0, return_inverse=True)
    return unique_rows, inverse.ravel()


def _assert_matches_reference(idx, dims):
    unique_rows, inverse = rowcodes.group_rows(idx, dims)
    ref_rows, ref_inverse = _np_unique_rows(idx)
    assert np.array_equal(unique_rows, ref_rows)
    assert unique_rows.dtype == ref_rows.dtype
    assert np.array_equal(inverse, ref_inverse)
    assert inverse.dtype == np.intp
    assert rowcodes.count_distinct_rows(idx, dims) == ref_rows.shape[0]
    if idx.shape[1]:
        columns = list(np.asfortranarray(idx).T)
        assert rowcodes.count_distinct_columns(columns, dims) == \
            ref_rows.shape[0]


def _rows_with_duplicates(rng, dims, m):
    """``m`` rows drawn from a small pool, so most rows repeat."""
    pool = np.stack([rng.integers(0, d, size=max(m // 3, 1)) for d in dims],
                    axis=1).astype(np.int64)
    return pool[rng.integers(0, pool.shape[0], size=m)]


class TestExactAgainstNpUnique:
    """Sort-based grouping equals ``np.unique(axis=0)`` on every key path."""

    @pytest.mark.parametrize("dims", [
        [5, 6, 7],                 # one int64 key
        [2**62],                   # one key at the boundary
        [2**40, 2**40, 7],         # two keys: [2**40], [2**40, 7]
        [327] * 8,                 # two keys over the plan8d shape
        [2**62, 4, 2**62, 3],      # four keys
    ])
    def test_fixed_dims(self, dims):
        rng = np.random.default_rng(sum(d % 1000 for d in dims))
        _assert_matches_reference(_rows_with_duplicates(rng, dims, 500), dims)

    @pytest.mark.parametrize("dims", [
        [256, 256], [256, 257], [2**16, 2**16], [2**16, 2**16 + 1],
    ])
    def test_narrow_key_dtype_boundaries(self, dims):
        """Keys sort as uint16 / uint32 up to a key space of 2**16 / 2**32;
        the largest and smallest keys must survive the narrowing."""
        rng = np.random.default_rng(dims[1])
        idx = _rows_with_duplicates(rng, dims, 300)
        corners = np.array([[0, 0], [0, dims[1] - 1], [dims[0] - 1, 0],
                            [dims[0] - 1, dims[1] - 1]] * 2, np.int64)
        _assert_matches_reference(np.concatenate([idx, corners]), dims)

    def test_overflow_path_uses_several_keys(self):
        assert len(rowcodes._row_keys(np.zeros((1, 8), np.int64),
                                      [327] * 8)) == 2
        assert len(rowcodes._row_keys(np.zeros((1, 3), np.int64),
                                      [2**40, 2**40, 7])) == 2
        assert len(rowcodes._row_keys(np.zeros((1, 3), np.int64),
                                      [5, 6, 7])) == 1

    @pytest.mark.parametrize("dims", [[9, 9], [2**40, 2**40, 7]])
    def test_all_rows_identical(self, dims):
        idx = np.tile(np.array([d - 1 for d in dims], np.int64), (40, 1))
        _assert_matches_reference(idx, dims)
        assert rowcodes.count_distinct_rows(idx, dims) == 1

    @pytest.mark.parametrize("dims", [[9, 9], [327] * 8])
    def test_single_row(self, dims):
        idx = np.array([[d // 2 for d in dims]], np.int64)
        _assert_matches_reference(idx, dims)

    @pytest.mark.parametrize("dim", [1, 11, 2**63 - 1])
    def test_single_column(self, dim):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, dim, size=(100, 1), endpoint=False,
                           dtype=np.int64)
        idx[::3] = idx[0]
        _assert_matches_reference(idx, [dim])

    def test_extreme_digits(self):
        # Rows of all-min and all-max digits stress the key packing.
        dims = [2**40, 2**40, 7]
        rows = [[0, 0, 0], [2**40 - 1, 2**40 - 1, 6], [0, 2**40 - 1, 0],
                [2**40 - 1, 0, 6], [0, 0, 6], [0, 0, 0]]
        _assert_matches_reference(np.array(rows, np.int64), dims)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_property(self, data):
        dims = data.draw(st.lists(
            st.sampled_from([1, 2, 3, 5, 327, 2**31, 2**40, 2**62]),
            min_size=1, max_size=6), label="dims")
        m = data.draw(st.integers(1, 60), label="m")
        # Few distinct digits per column, so duplicate rows are common.
        columns = [
            data.draw(st.lists(
                st.sampled_from(sorted({0, d // 2, d - 1})),
                min_size=m, max_size=m))
            for d in dims
        ]
        idx = np.array(columns, dtype=np.int64).T.copy()
        _assert_matches_reference(idx, dims)


def _assert_stable_groups_match(idx, dims):
    """``stable_groups`` equals ``group_rows`` + ``SegmentPlan(inverse)``,
    the two sorts it replaces."""
    from repro.core.segreduce import SegmentPlan

    order, starts = rowcodes.stable_groups(idx, dims)
    unique_rows, inverse = rowcodes.group_rows(idx, dims)
    plan = SegmentPlan(inverse)
    assert (order is None) == plan.has_identity_perm
    full = np.arange(idx.shape[0]) if order is None else order
    assert full.dtype == np.intp and starts.dtype == np.intp
    assert np.array_equal(full, plan.perm)
    assert np.array_equal(starts, plan.starts)
    identity = order is None and starts.shape[0] == idx.shape[0]
    assert identity == plan.is_identity
    assert np.array_equal(np.take(idx, full[starts], axis=0), unique_rows)
    if idx.shape[1]:
        columns = list(np.asfortranarray(idx).T)
        by_columns = rowcodes.stable_groups_columns(columns, dims)
        assert (by_columns[0] is None) == (order is None)
        assert np.array_equal(
            full if by_columns[0] is None else by_columns[0], full)
        assert np.array_equal(by_columns[1], starts)


class TestStableGroups:
    """Differential test of the one-sort grouping against its two
    predecessors on every key path."""

    @pytest.mark.parametrize("dims", [
        [5, 6],                # one packed key, narrowed to uint16
        [800, 7],              # one packed key, narrowed to uint32
        [2**20, 2**20, 7],     # one packed key, int64
        [2**62],               # space * m overflows: stable argsort
        [2**61, 3],            # the same, over two columns
        [327] * 8,             # two keys: lexsort
        [2**40, 2**40, 7],     # two keys: lexsort
    ])
    @pytest.mark.parametrize("layout", ["shuffled", "sorted", "prefix"])
    def test_fixed_dims(self, dims, layout):
        rng = np.random.default_rng(len(dims) * 31 + dims[-1] % 97)
        idx = _rows_with_duplicates(rng, dims, 400)
        if layout != "shuffled":
            idx = np.take(idx, rowcodes.lexsort_rows(idx), axis=0)
        if layout == "prefix":
            # a prefix of lexicographic rows is sorted; dropping a
            # trailing column leaves it sorted with more duplicates
            idx, dims = idx[:, :-1], dims[:-1]
            if not dims:
                return
        _assert_stable_groups_match(idx, dims)

    @pytest.mark.parametrize("dims", [[9, 9], [2**62], [327] * 8])
    def test_distinct_sorted_rows_are_identity(self, dims):
        idx = np.array([[0] * (len(dims) - 1) + [j] for j in range(5)],
                       np.int64)
        order, starts = rowcodes.stable_groups(idx, dims)
        assert order is None
        assert starts.tolist() == list(range(5))
        _assert_stable_groups_match(idx, dims)

    @pytest.mark.parametrize("dims", [[9, 9], [2**62], [327] * 8])
    def test_all_rows_identical(self, dims):
        idx = np.tile(np.array([d - 1 for d in dims], np.int64), (30, 1))
        order, starts = rowcodes.stable_groups(idx, dims)
        assert order is None and starts.tolist() == [0]
        _assert_stable_groups_match(idx, dims)

    @pytest.mark.parametrize("dims", [[9, 9], [327] * 8])
    def test_zero_rows(self, dims):
        idx = np.zeros((0, len(dims)), np.int64)
        order, starts = rowcodes.stable_groups(idx, dims)
        assert order is None and starts.shape == (0,)
        _assert_stable_groups_match(idx, dims)

    def test_zero_columns(self):
        order, starts = rowcodes.stable_groups(np.zeros((4, 0), np.int64), [])
        assert order is None and starts.tolist() == [0]

    def test_equal_rows_keep_source_order(self):
        idx = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [0, 0]], np.int64)
        order, starts = rowcodes.stable_groups(idx, [2, 2])
        assert order.tolist() == [4, 1, 3, 0, 2]
        assert starts.tolist() == [0, 1, 3]

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_property(self, data):
        dims = data.draw(st.lists(
            st.sampled_from([1, 2, 3, 327, 2**20, 2**40, 2**62]),
            min_size=1, max_size=8), label="dims")
        m = data.draw(st.integers(0, 70), label="m")
        columns = [
            data.draw(st.lists(
                st.sampled_from(sorted({0, 1 % d, d // 2, d - 1})),
                min_size=m, max_size=m))
            for d in dims
        ]
        idx = np.array(columns, dtype=np.int64).reshape(len(dims), m).T.copy()
        if data.draw(st.booleans(), label="sorted") and m:
            idx = np.take(idx, rowcodes.lexsort_rows(idx), axis=0)
        _assert_stable_groups_match(idx, dims)


class TestDistinctCounterExact:
    def test_every_mode_subset_of_order5(self):
        from itertools import combinations

        from repro.core.coo import CooTensor
        from repro.model.overlap import DistinctCounter

        rng = np.random.default_rng(6)
        shape = (4, 3, 5, 2, 6)
        idx = np.stack([rng.integers(0, d, 300) for d in shape], axis=1)
        tensor = CooTensor(idx, rng.standard_normal(300), shape)
        counter = DistinctCounter(tensor)
        for size in range(tensor.ndim + 1):
            for modes in combinations(range(tensor.ndim), size):
                sub = tensor.idx[:, list(modes)]
                naive = np.unique(sub, axis=0).shape[0] if modes else 1
                assert counter.count(modes) == naive, modes


class TestCanonicalizeOverflow:
    def test_matches_np_unique_bincount_reference(self):
        from repro.core.coo import CooTensor

        rng = np.random.default_rng(7)
        shape = (2**40, 2**40, 7)
        idx = _rows_with_duplicates(rng, shape, 400)
        vals = rng.standard_normal(400)
        tensor = CooTensor(idx, vals, shape)
        ref_rows, inverse = _np_unique_rows(idx)
        assert ref_rows.shape[0] < idx.shape[0]   # duplicates were merged
        ref_vals = np.bincount(inverse, weights=vals,
                               minlength=ref_rows.shape[0])
        assert tensor.idx.dtype == np.int64
        assert np.array_equal(tensor.idx, ref_rows)
        assert tensor.vals.tobytes() == ref_vals.tobytes()
