"""Unit tests for repro.core.coo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coo import CooTensor, coo_nbytes
from repro.core.rowcodes import lexsort_rows

from .helpers import random_coo


class TestConstruction:
    def test_basic(self):
        t = CooTensor([[0, 1], [1, 0]], [1.0, 2.0], (2, 2))
        assert t.shape == (2, 2)
        assert t.nnz == 2
        assert t.ndim == 2

    def test_canonicalization_sorts(self):
        t = CooTensor([[1, 0], [0, 1]], [2.0, 1.0], (2, 2))
        assert t.idx.tolist() == [[0, 1], [1, 0]]
        assert t.vals.tolist() == [1.0, 2.0]

    def test_canonicalization_merges_duplicates(self):
        t = CooTensor([[0, 0], [0, 0], [1, 1]], [1.0, 2.0, 5.0], (2, 2))
        assert t.nnz == 2
        assert t.vals.tolist() == [3.0, 5.0]

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError, match="out of bounds"):
            CooTensor([[0, 2]], [1.0], (2, 2))

    def test_negative_index_raises(self):
        with pytest.raises(ValueError, match="negative"):
            CooTensor([[-1, 0]], [1.0], (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, bad):
        # Given unsorted, so the reported coordinate is the caller's own.
        with pytest.raises(ValueError, match=r"vals has 2 non-finite "
                           r"entries .* is at index \(1, 1\)"):
            CooTensor([[0, 1], [1, 1], [1, 0], [0, 0]],
                      [1.0, bad, bad, 2.0], (2, 2))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            CooTensor([[0, 0]], [1.0, 2.0], (2, 2))

    def test_wrong_column_count_raises(self):
        with pytest.raises(ValueError):
            CooTensor([[0, 0, 0]], [1.0], (2, 2))

    def test_empty(self):
        t = CooTensor.empty((3, 4, 5))
        assert t.nnz == 0
        assert t.norm() == 0.0
        assert t.to_dense().shape == (3, 4, 5)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            CooTensor.empty((0, 2))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((3, 4, 2))
        dense[dense < 0.5] = 0.0
        t = CooTensor.from_dense(dense)
        np.testing.assert_allclose(t.to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[1.0, 1e-6], [0.0, 2.0]])
        t = CooTensor.from_dense(dense, tol=1e-3)
        assert t.nnz == 2

    def test_density(self):
        t = CooTensor([[0, 0]], [1.0], (2, 5))
        assert t.density == pytest.approx(0.1)

    def test_copy_semantics(self):
        idx = np.array([[0, 0]], dtype=np.int64)
        vals = np.array([1.0])
        t = CooTensor(idx, vals, (2, 2))
        vals[0] = 99.0
        assert t.vals[0] == 1.0


class TestNumerics:
    def test_norm(self):
        t = CooTensor([[0, 0], [1, 1]], [3.0, 4.0], (2, 2))
        assert t.norm() == pytest.approx(5.0)

    def test_norm_matches_dense(self):
        rng = np.random.default_rng(1)
        t = random_coo(rng, (4, 5, 6), 40)
        assert t.norm() == pytest.approx(np.linalg.norm(t.to_dense()))

    def test_values_at_present_and_absent(self):
        t = CooTensor([[0, 1], [1, 0]], [1.5, 2.5], (2, 2))
        out = t.values_at([[0, 1], [0, 0], [1, 0]])
        np.testing.assert_allclose(out, [1.5, 0.0, 2.5])

    def test_values_at_empty_tensor(self):
        t = CooTensor.empty((2, 2))
        np.testing.assert_allclose(t.values_at([[0, 0]]), [0.0])

    def test_slice_nnz(self):
        t = CooTensor([[0, 0], [0, 1], [2, 0]], [1, 1, 1], (3, 2))
        assert t.slice_nnz(0).tolist() == [2, 0, 1]
        assert t.slice_nnz(1).tolist() == [2, 1]

    def test_mode_plan_groups_by_mode(self):
        rng = np.random.default_rng(2)
        t = random_coo(rng, (5, 6), 30)
        plan = t.mode_plan(0)
        sums = plan.reduce(t.vals)
        dense_row_sums = t.to_dense().sum(axis=1)
        np.testing.assert_allclose(
            sums, dense_row_sums[plan.group_ids], atol=1e-12
        )


class TestMatricize:
    def test_matricize_matches_dense_reshape(self):
        rng = np.random.default_rng(3)
        t = random_coo(rng, (3, 4, 5), 25)
        dense = t.to_dense()
        for mode in range(3):
            mat = t.matricize(mode).toarray()
            moved = np.moveaxis(dense, mode, 0)
            np.testing.assert_allclose(
                mat, moved.reshape(dense.shape[mode], -1), atol=1e-12
            )

    def test_matricize_negative_mode(self):
        rng = np.random.default_rng(4)
        t = random_coo(rng, (3, 4), 6)
        np.testing.assert_allclose(
            t.matricize(-1).toarray(), t.matricize(1).toarray()
        )


class TestTransforms:
    def test_permute_modes(self):
        rng = np.random.default_rng(5)
        t = random_coo(rng, (3, 4, 5), 20)
        p = t.permute_modes([2, 0, 1])
        np.testing.assert_allclose(
            p.to_dense(), np.transpose(t.to_dense(), (2, 0, 1))
        )

    def test_permute_invalid(self):
        t = CooTensor.empty((2, 2))
        with pytest.raises(ValueError):
            t.permute_modes([0, 0])

    def test_remove_empty_slices(self):
        t = CooTensor([[0, 5], [4, 5]], [1.0, 2.0], (10, 10))
        compact, maps = t.remove_empty_slices()
        assert compact.shape == (2, 1)
        assert maps[0].tolist() == [0, 4]
        assert maps[1].tolist() == [5]
        # Values preserved under the index maps.
        np.testing.assert_allclose(compact.vals, t.vals)

    def test_scale(self):
        t = CooTensor([[0, 0]], [2.0], (2, 2))
        assert t.scale(-0.5).vals.tolist() == [-1.0]

    def test_split_nonzeros_sums_to_whole(self):
        rng = np.random.default_rng(6)
        t = random_coo(rng, (4, 4, 4), 30)
        parts = t.split_nonzeros(3)
        assert len(parts) == 3
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total.allclose(t)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            CooTensor.empty((2, 2)) + CooTensor.empty((2, 3))

    def test_sub_self_is_zero(self):
        rng = np.random.default_rng(7)
        t = random_coo(rng, (3, 3), 5)
        diff = t - t
        assert diff.allclose(CooTensor.empty((3, 3)))


class TestInvariants:
    @given(st.integers(0, 60), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_sorted_unique(self, nnz, seed):
        rng = np.random.default_rng(seed)
        t = random_coo(rng, (4, 5, 3), max(nnz, 0)) if nnz else CooTensor.empty((4, 5, 3))
        if t.nnz > 1:
            order = lexsort_rows(t.idx)
            assert np.array_equal(order, np.arange(t.nnz))
            # No duplicate rows.
            dup = np.all(t.idx[1:] == t.idx[:-1], axis=1)
            assert not dup.any()

    def test_canonicalization_preserves_dense(self):
        rng = np.random.default_rng(8)
        nnz = 50
        idx = np.column_stack([rng.integers(0, 4, nnz) for _ in range(3)])
        vals = rng.standard_normal(nnz)
        t = CooTensor(idx, vals, (4, 4, 4))
        ref = np.zeros((4, 4, 4))
        np.add.at(ref, tuple(idx.T), vals)
        np.testing.assert_allclose(t.to_dense(), ref, atol=1e-12)


def test_coo_nbytes_formula():
    assert coo_nbytes(10, 3) == 10 * (3 * 8 + 8)
