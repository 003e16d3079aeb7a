"""Edge cases and failure-injection tests across modules.

Deliberately hostile inputs: degenerate shapes, huge key spaces (int64
overflow fallbacks), single-element tensors, zero columns, adversarial
strategies — the inputs that exercise every fallback branch.
"""

import warnings

import numpy as np
import pytest

from repro.core import rowcodes
from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.cpals import cp_als
from repro.core.engine import MemoizedMttkrp
from repro.core.symbolic import SymbolicTree
from repro.model.planner import plan

from .helpers import dense_mttkrp, random_factors


class TestHugeKeySpaces:
    """Mode-size products beyond int64 force the lexicographic fallbacks."""

    HUGE = (2**40, 2**40, 2**40)

    def make(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 2**40, size=(40, 3)).astype(np.int64)
        idx = np.unique(idx, axis=0)
        return CooTensor(idx, rng.random(idx.shape[0]), self.HUGE,
                         canonical=False)

    def test_canonicalization(self):
        t = self.make()
        order = rowcodes.lexsort_rows(t.idx)
        assert np.array_equal(order, np.arange(t.nnz))

    def test_values_at_dict_fallback(self):
        t = self.make()
        got = t.values_at(t.idx[:5])
        np.testing.assert_allclose(got, t.vals[:5])
        miss = t.values_at(np.zeros((1, 3), dtype=np.int64))
        assert miss[0] == 0.0 or miss[0] == t.vals[0]

    def test_symbolic_tree_fallback_grouping(self):
        t = self.make()
        sym = SymbolicTree(t, S.balanced_binary(3))
        assert sym.nodes[sym.strategy.root_id].nnz == t.nnz

    def test_engine_correct_on_huge_dims(self):
        t = self.make()
        compact, _ = t.remove_empty_slices()
        factors = random_factors(np.random.default_rng(1), compact.shape, 2)
        eng = MemoizedMttkrp(compact, "bdt", factors)
        # Reference via the COO baseline (densification impossible here).
        from repro.baselines import coo_mttkrp

        for mode in range(3):
            np.testing.assert_allclose(
                eng.mttkrp(mode), coo_mttkrp(compact, factors, mode),
                rtol=1e-10, atol=1e-10,
            )

    def test_matricize_overflow_raises(self):
        t = self.make()
        with pytest.raises(OverflowError):
            t.matricize(0)


class TestDegenerateShapes:
    def test_all_size_one_modes(self):
        t = CooTensor([[0, 0, 0]], [5.0], (1, 1, 1))
        factors = [np.full((1, 2), 2.0) for _ in range(3)]
        eng = MemoizedMttkrp(t, "bdt", factors)
        np.testing.assert_allclose(eng.mttkrp(0), [[20.0, 20.0]])

    def test_single_nonzero_cp_als(self):
        t = CooTensor([[1, 2, 3]], [4.0], (3, 4, 5))
        result = cp_als(t, rank=1, strategy="star", n_iter_max=5,
                        random_state=0)
        assert result.fit > 0.999  # a single entry is exactly rank 1

    def test_one_long_one_short_mode(self):
        rng = np.random.default_rng(2)
        idx = np.column_stack([
            rng.integers(0, 1000, 50), rng.integers(0, 2, 50),
        ])
        t = CooTensor(idx, rng.random(50), (1000, 2))
        factors = random_factors(rng, t.shape, 3)
        eng = MemoizedMttkrp(t, "star", factors)
        np.testing.assert_allclose(
            eng.mttkrp(1), dense_mttkrp(t.to_dense(), factors, 1),
            rtol=1e-10, atol=1e-10,
        )

    def test_planner_on_tiny_tensor(self):
        t = CooTensor([[0, 0, 0], [1, 1, 1]], [1.0, 2.0], (2, 2, 2))
        report = plan(t, rank=2)
        assert report.best.feasible

    def test_explicit_zero_values_kept(self):
        # Explicit zeros are legitimate stored entries (pattern matters for
        # symbolic structures even if the value is zero).
        t = CooTensor([[0, 0], [1, 1]], [0.0, 1.0], (2, 2))
        assert t.nnz == 2
        eng = MemoizedMttkrp(t, "star",
                             random_factors(np.random.default_rng(3), (2, 2), 1))
        assert eng.mttkrp(0).shape == (2, 1)


class TestAdversarialStrategies:
    def test_maximum_fanout_tree(self):
        """A root with N leaf children and no internal structure (= star)."""
        rng = np.random.default_rng(4)
        order = 6
        t = CooTensor(
            rng.integers(0, 4, (30, order)), rng.random(30), (4,) * order
        )
        strategy = S.from_nested(tuple(range(order)))
        factors = random_factors(rng, t.shape, 2)
        eng = MemoizedMttkrp(t, strategy, factors)
        np.testing.assert_allclose(
            eng.mttkrp(3), dense_mttkrp(t.to_dense(), factors, 3),
            rtol=1e-9, atol=1e-9,
        )

    def test_mixed_fanout_tree(self):
        rng = np.random.default_rng(5)
        t = CooTensor(rng.integers(0, 4, (30, 5)), rng.random(30), (4,) * 5)
        strategy = S.from_nested((0, (1, 2, 3), 4))  # ternary root
        factors = random_factors(rng, t.shape, 2)
        eng = MemoizedMttkrp(t, strategy, factors)
        for mode in range(5):
            np.testing.assert_allclose(
                eng.mttkrp(mode), dense_mttkrp(t.to_dense(), factors, mode),
                rtol=1e-9, atol=1e-9,
            )

    def test_deep_caterpillar_order8(self):
        rng = np.random.default_rng(6)
        t = CooTensor(rng.integers(0, 3, (25, 8)), rng.random(25), (3,) * 8)
        strategy = S.chain(8, 6)
        assert strategy.depth() == 7
        factors = random_factors(rng, t.shape, 2)
        eng = MemoizedMttkrp(t, strategy, factors)
        np.testing.assert_allclose(
            eng.mttkrp(7), dense_mttkrp(t.to_dense(), factors, 7),
            rtol=1e-9, atol=1e-9,
        )


class TestNumericRobustness:
    def test_extreme_value_magnitudes(self):
        rng = np.random.default_rng(7)
        idx = np.unique(rng.integers(0, 6, (30, 3)), axis=0)
        vals = 10.0 ** rng.uniform(-150, 150, idx.shape[0])
        t = CooTensor(idx, vals, (6, 6, 6))
        factors = random_factors(rng, t.shape, 2)
        eng = MemoizedMttkrp(t, "bdt", factors)
        out = eng.mttkrp(0)
        assert np.isfinite(out).all()

    def test_cp_als_on_constant_tensor(self):
        # A constant (all-ones over its pattern) tensor is rank 1 when the
        # pattern is a full grid.
        dense = np.ones((4, 5, 3))
        t = CooTensor.from_dense(dense)
        result = cp_als(t, rank=1, strategy="bdt", n_iter_max=10,
                        random_state=8)
        assert result.fit > 0.9999

    def test_negative_values_supported(self):
        rng = np.random.default_rng(9)
        idx = np.unique(rng.integers(0, 5, (40, 3)), axis=0)
        t = CooTensor(idx, -np.abs(rng.random(idx.shape[0])), (5, 5, 5))
        result = cp_als(t, rank=3, strategy="auto", n_iter_max=10,
                        random_state=10)
        assert np.isfinite(result.fit)

    @pytest.mark.parametrize("strategy", ["star", "bdt", "auto"])
    def test_rank_above_every_mode_dimension(self, strategy):
        # R=8 exceeds every dimension of a (4, 5, 3) tensor, so each
        # Hadamard Gram H is rank-deficient: the run must still complete
        # with finite factors, a fit of at most 1, and no warnings.
        rng = np.random.default_rng(11)
        idx = np.unique(rng.integers(0, (4, 5, 3), (40, 3)), axis=0)
        t = CooTensor(idx, rng.random(idx.shape[0]), (4, 5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cp_als(t, rank=8, strategy=strategy, n_iter_max=20,
                            random_state=12)
        assert all(U.shape[1] == 8 for U in result.ktensor.factors)
        assert all(np.isfinite(U).all() for U in result.ktensor.factors)
        assert np.isfinite(result.ktensor.weights).all()
        assert np.isfinite(result.fits).all()
        assert max(result.fits) <= 1.0
