"""Unit tests for repro.core.segreduce."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segreduce import SegmentPlan, segment_sum


def reference_reduce(values, targets):
    """Dict-based reference segmented sum (ascending group-id order)."""
    groups = {}
    for t, v in zip(targets, values):
        groups.setdefault(int(t), []).append(v)
    keys = sorted(groups)
    return keys, np.array([np.sum(groups[k], axis=0) for k in keys])


class TestSegmentPlan:
    def test_basic_2d(self):
        targets = np.array([2, 0, 2, 1])
        values = np.arange(8.0).reshape(4, 2)
        plan = SegmentPlan(targets)
        out = plan.reduce(values)
        keys, ref = reference_reduce(values, targets)
        assert plan.group_ids.tolist() == keys
        np.testing.assert_allclose(out, ref)

    def test_1d_values(self):
        plan = SegmentPlan(np.array([1, 1, 0]))
        out = plan.reduce(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [3.0, 3.0])

    def test_empty(self):
        plan = SegmentPlan(np.array([], dtype=np.int64))
        assert plan.n_sources == 0
        assert plan.n_segments == 0
        out = plan.reduce(np.zeros((0, 3)))
        assert out.shape == (0, 3)

    def test_identity_fast_path(self):
        plan = SegmentPlan(np.array([0, 1, 2, 3]))
        assert plan._identity
        values = np.random.default_rng(0).random((4, 2))
        out = plan.reduce(values)
        np.testing.assert_array_equal(out, values)
        out[0, 0] = -1.0  # must be a copy, not a view of the input
        assert values[0, 0] != -1.0

    def test_non_contiguous_group_ids(self):
        plan = SegmentPlan(np.array([100, 5, 100]))
        assert plan.group_ids.tolist() == [5, 100]
        out = plan.reduce(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out, [[2.0], [4.0]])

    def test_wrong_row_count_raises(self):
        plan = SegmentPlan(np.array([0, 1]))
        with pytest.raises(ValueError):
            plan.reduce(np.zeros((3, 2)))

    def test_rejects_2d_targets(self):
        with pytest.raises(ValueError):
            SegmentPlan(np.zeros((2, 2), dtype=np.int64))

    def test_out_parameter(self):
        plan = SegmentPlan(np.array([0, 0, 1]))
        out = np.empty((2, 1))
        res = plan.reduce(np.array([[1.0], [2.0], [4.0]]), out=out)
        assert res is out
        np.testing.assert_allclose(out, [[3.0], [4.0]])

    def test_scatter_into(self):
        plan = SegmentPlan(np.array([3, 1, 3]))
        out = np.ones((5, 1))
        plan.scatter_into(np.array([[1.0], [2.0], [3.0]]), out)
        np.testing.assert_allclose(out.ravel(), [1, 3, 1, 5, 1])

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference(self, targets):
        targets = np.asarray(targets)
        rng = np.random.default_rng(42)
        values = rng.standard_normal((len(targets), 3))
        plan = SegmentPlan(targets)
        out = plan.reduce(values)
        keys, ref = reference_reduce(values, targets)
        assert plan.group_ids.tolist() == keys
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestStableOrder:
    """The plan's permutation is the stable argsort, without running one."""

    CASES = {
        "empty": np.array([], dtype=np.int64),
        "single": np.array([7]),
        "all_equal": np.full(50, 3),
        "sorted": np.repeat(np.arange(20), 3),
        "reversed": np.arange(40)[::-1].copy(),
        "random": np.random.default_rng(5).integers(0, 30, size=500),
        "random_wide": np.random.default_rng(6).integers(-10**6, 10**9, 300),
        # Keys t * m + i would overflow int64: the stable argsort is kept.
        "overflow": np.array([2**62, 5, 2**62, -(2**62), 5]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_stable_argsort(self, name):
        targets = self.CASES[name]
        plan = SegmentPlan(targets)
        perm = np.argsort(targets, kind="stable")
        sorted_targets = targets[perm]
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_targets[1:] != sorted_targets[:-1]])
        ) if len(targets) else np.zeros(0, dtype=np.intp)
        for got, want in ((plan.perm, perm), (plan.starts, starts),
                          (plan.group_ids, sorted_targets[starts])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert plan.has_identity_perm == bool(
            np.array_equal(perm, np.arange(len(targets))))


class TestSegmentSum:
    def test_dense_bins_2d(self):
        out = segment_sum(
            np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([2, 2]), 4
        )
        assert out.shape == (4, 2)
        np.testing.assert_allclose(out[2], [3.0, 1.0])
        np.testing.assert_allclose(out[[0, 1, 3]], 0.0)

    def test_dense_bins_1d(self):
        out = segment_sum(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out, [3.0, 0.0, 3.0])
