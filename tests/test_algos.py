"""Tests for the higher-level algorithms (repro.algos)."""

import numpy as np
import pytest

from repro.algos import (complete, cp_als_restarts, cp_nmu, holdout_split,
                         select_rank)
from repro.core.coo import CooTensor
from repro.core.engine import MemoizedMttkrp
from repro.synth.lowrank import lowrank_tensor, random_kruskal

from .helpers import random_coo


@pytest.fixture(scope="module")
def nonneg_planted():
    shape = (10, 9, 8, 7)
    return lowrank_tensor(shape, rank=3, nnz=int(np.prod(shape)),
                          nonneg=True, random_state=0)


class TestCpNmu:
    def test_fit_monotone_nondecreasing(self, nonneg_planted):
        result = cp_nmu(nonneg_planted.tensor, rank=3, n_iter_max=25,
                        tol=0.0, random_state=1)
        fits = np.array(result.fits)
        assert (np.diff(fits) >= -1e-7).all(), fits

    def test_factors_nonnegative(self, nonneg_planted):
        result = cp_nmu(nonneg_planted.tensor, rank=3, n_iter_max=15,
                        random_state=2)
        for U in result.ktensor.factors:
            assert (U >= 0).all()
        assert (result.ktensor.weights >= 0).all()

    def test_reasonable_fit_on_nonneg_lowrank(self, nonneg_planted):
        result = cp_nmu(nonneg_planted.tensor, rank=3, n_iter_max=150,
                        tol=1e-9, random_state=3)
        assert result.fit > 0.9

    def test_negative_tensor_rejected(self):
        t = CooTensor([[0, 0]], [-1.0], (2, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            cp_nmu(t, rank=1)

    def test_strategies_agree(self, nonneg_planted):
        a = cp_nmu(nonneg_planted.tensor, rank=2, strategy="star",
                   n_iter_max=5, tol=0.0, random_state=4)
        b = cp_nmu(nonneg_planted.tensor, rank=2, strategy="bdt",
                   n_iter_max=5, tol=0.0, random_state=4)
        np.testing.assert_allclose(a.fits, b.fits, rtol=1e-8)

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            cp_nmu(CooTensor.empty((4,)), rank=1)


class TestCompletion:
    @pytest.fixture(scope="class")
    def observed(self):
        # Partially observed planted model: 35% of cells, enough to recover
        # a rank-2 model on this shape.
        rng = np.random.default_rng(10)
        model = random_kruskal((15, 12, 10), 2, rng, nonneg=False)
        from repro.synth.random_tensor import sample_unique_indices

        idx = sample_unique_indices((15, 12, 10), 630, rng)
        vals = model.values_at(idx)
        tensor = CooTensor(idx, vals, (15, 12, 10), canonical=True)
        return tensor, model

    def test_train_rmse_decreases(self, observed):
        tensor, _ = observed
        result = complete(tensor, rank=2, n_iter_max=60, tol=0.0,
                          random_state=0)
        assert result.train_rmse[-1] < 0.5 * result.train_rmse[0]

    def test_generalizes_to_heldout(self, observed):
        tensor, model = observed
        train, test_idx, test_vals = holdout_split(
            tensor, test_fraction=0.2, random_state=1
        )
        result = complete(train, rank=2, n_iter_max=400, tol=1e-9,
                          learning_rate=0.08, regularization=1e-5,
                          random_state=2)
        pred = result.predict(test_idx)
        test_rms = float(np.sqrt(np.mean(test_vals**2)))
        rel_err = float(
            np.sqrt(np.mean((pred - test_vals) ** 2))
        ) / max(test_rms, 1e-12)
        assert rel_err < 0.35, rel_err

    def test_mttkrp_all_matches_per_mode(self):
        """The single-sweep gradient kernel equals per-mode MTTKRPs."""
        rng = np.random.default_rng(3)
        t = random_coo(rng, (5, 6, 4, 3), 40)
        factors = [rng.standard_normal((s, 3)) for s in t.shape]
        eng = MemoizedMttkrp(t, "bdt", factors)
        all_at_once = eng.mttkrp_all()
        eng2 = MemoizedMttkrp(t, "bdt", factors)
        for n in range(4):
            np.testing.assert_allclose(
                all_at_once[n], eng2.mttkrp(n), rtol=1e-10, atol=1e-10
            )

    def test_set_root_values_changes_results(self):
        rng = np.random.default_rng(4)
        t = random_coo(rng, (5, 5, 5), 30)
        factors = [rng.standard_normal((5, 2)) for _ in range(3)]
        eng = MemoizedMttkrp(t, "bdt", factors)
        before = eng.mttkrp(0).copy()
        new_vals = rng.standard_normal(t.nnz)
        eng.set_root_values(new_vals)
        after = eng.mttkrp(0)
        reference = MemoizedMttkrp(
            CooTensor(t.idx, new_vals, t.shape, canonical=True),
            "bdt", factors,
        ).mttkrp(0)
        np.testing.assert_allclose(after, reference, rtol=1e-10, atol=1e-10)
        assert not np.allclose(before, after)

    def test_set_root_values_wrong_length(self):
        rng = np.random.default_rng(5)
        t = random_coo(rng, (4, 4), 10)
        eng = MemoizedMttkrp(t, "star")
        with pytest.raises(ValueError):
            eng.set_root_values(np.zeros(t.nnz + 1))

    def test_validation(self, observed):
        tensor, _ = observed
        with pytest.raises(ValueError):
            complete(CooTensor.empty((3, 3)), rank=1)
        with pytest.raises(ValueError):
            complete(tensor, rank=1, learning_rate=0.0)
        with pytest.raises(ValueError):
            complete(tensor, rank=1, regularization=-1.0)

    def test_holdout_split_partitions(self, observed):
        tensor, _ = observed
        train, test_idx, test_vals = holdout_split(
            tensor, test_fraction=0.25, random_state=6
        )
        assert train.nnz + test_idx.shape[0] == tensor.nnz
        assert test_idx.shape[0] == test_vals.shape[0]
        # Held-out coordinates are absent from the training pattern.
        assert np.all(train.values_at(test_idx) == 0.0)

    def test_holdout_bad_fraction(self, observed):
        tensor, _ = observed
        with pytest.raises(ValueError):
            holdout_split(tensor, test_fraction=1.5)

    def test_callback(self, observed):
        tensor, _ = observed
        epochs = []
        complete(tensor, rank=1, n_iter_max=3, tol=0.0, random_state=7,
                 callback=lambda e, rmse, factors: epochs.append(e))
        assert epochs == [0, 1, 2]


class TestRestarts:
    @pytest.fixture(scope="class")
    def planted(self):
        shape = (9, 8, 7)
        return lowrank_tensor(shape, rank=2, nnz=int(np.prod(shape)),
                              random_state=20)

    def test_best_is_max_fit(self, planted):
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=3, strategy="bdt",
            n_iter_max=10, tol=0.0, random_state=0,
        )
        assert len(report.results) == 3
        assert report.best.fit == max(report.fits())

    def test_restarts_share_symbolic_tree(self, planted):
        """All restarts reference the same SymbolicTree object."""
        from repro.core.symbolic import SymbolicTree

        built = []
        original = SymbolicTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            return original(self, *args, **kwargs)

        SymbolicTree.__init__ = counting_init
        try:
            cp_als_restarts(
                planted.tensor, rank=2, n_restarts=4, strategy="bdt",
                n_iter_max=2, tol=0.0, random_state=1,
            )
        finally:
            SymbolicTree.__init__ = original
        assert sum(built) == 1  # one symbolic build for four restarts

    def test_auto_strategy(self, planted):
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=2, strategy="auto",
            n_iter_max=3, tol=0.0, random_state=2,
        )
        assert len(report.results) == 2

    def test_strategy_name_is_the_planned_strategy(self, planted):
        from repro.model.planner import plan

        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=2, strategy="auto",
            n_iter_max=2, tol=0.0, random_state=2,
        )
        picked = plan(planted.tensor, 2).best.strategy.name
        assert report.best.strategy_name == picked
        assert all(r.strategy_name == picked for r in report.results)

    def test_memory_budget_is_honoured(self):
        """The planner under cp_als_restarts sees the budget cp_als sees:
        an infeasible one fails the same way, a tight one picks the same
        strategy."""
        from repro.core.cpals import cp_als
        from repro.model.planner import InfeasibleBudgetError, plan
        from repro.synth.skewed import skewed_random_tensor

        tensor = skewed_random_tensor((30, 40, 20, 25), 2000, exponents=1.1,
                                      random_state=4)
        opts = dict(n_iter_max=2, tol=0.0, random_state=0)
        with pytest.raises(InfeasibleBudgetError) as direct:
            cp_als(tensor, 4, memory_budget=10, **opts)
        with pytest.raises(InfeasibleBudgetError) as restarted:
            cp_als_restarts(tensor, 4, n_restarts=2, memory_budget=10, **opts)
        assert str(restarted.value) == str(direct.value)

        unbounded = plan(tensor, 4).best
        budget = unbounded.cost.total_memory_bytes - 1
        expected = cp_als(tensor, 4, memory_budget=budget, **opts)
        assert expected.strategy_name != unbounded.strategy.name
        report = cp_als_restarts(tensor, 4, n_restarts=2,
                                 memory_budget=budget, **opts)
        assert all(r.strategy_name == expected.strategy_name
                   for r in report.results)

    def test_strategy_name_of_explicit_strategy(self, planted):
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=1, strategy="star",
            n_iter_max=2, tol=0.0, random_state=2,
        )
        assert report.best.strategy_name == "star"

    def test_select_rank_knee(self, planted):
        selection = select_rank(
            planted.tensor, ranks=[1, 2, 4], n_restarts=1, strategy="bdt",
            n_iter_max=25, tol=1e-8, random_state=3,
        )
        # True rank is 2: going 2 -> 4 gains little.
        assert selection.suggested_rank == 2
        assert selection.fits[2] > selection.fits[1]

    def test_select_rank_empty(self, planted):
        with pytest.raises(ValueError):
            select_rank(planted.tensor, ranks=[])


class TestRestartEarlyStop:
    @pytest.fixture(scope="class")
    def planted(self):
        shape = (9, 8, 7)
        return lowrank_tensor(shape, rank=2, nnz=int(np.prod(shape)),
                              random_state=21)

    def test_off_by_default(self, planted):
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=2, strategy="bdt",
            n_iter_max=5, tol=0.0, random_state=0,
        )
        assert report.early_stops == {}
        assert all(r.n_iterations == 5 for r in report.results)

    def test_stalled_restarts_cut_short(self, planted):
        # tol=0.0 disables cp_als's own convergence exit; the planted
        # tensor is exactly rank 2, so every restart flat-lines quickly
        # and the stall classifier should cut the iteration budget.
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=3, strategy="bdt",
            n_iter_max=40, tol=0.0, random_state=0, early_stop=True,
            early_stop_window=3,
        )
        assert report.early_stops
        for index, record in report.early_stops.items():
            assert record["reason"] in ("stalled", "swamped")
            assert report.results[index].n_iterations <= 40
            assert (report.results[index].n_iterations
                    == record["iteration"] + 1)

    def test_deterministic_and_same_seeds_as_full_run(self, planted):
        kwargs = dict(rank=2, n_restarts=3, strategy="bdt", n_iter_max=25,
                      tol=0.0, random_state=7)
        full = cp_als_restarts(planted.tensor, **kwargs)
        cut_a = cp_als_restarts(planted.tensor, early_stop=True, **kwargs)
        cut_b = cp_als_restarts(planted.tensor, early_stop=True, **kwargs)
        # Deterministic: two early-stop runs agree exactly.
        assert cut_a.early_stops == cut_b.early_stops
        assert cut_a.best_index == cut_b.best_index
        assert cut_a.fits() == cut_b.fits()
        # Seeds are drawn identically with or without the option: each
        # restart's trajectory is a prefix of the full run's, so on this
        # planted tensor the winner matches.
        assert cut_a.best_index == full.best_index
        assert cut_a.best.fit == pytest.approx(full.best.fit, abs=1e-6)

    def test_user_callback_still_runs(self, planted):
        seen = []
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=2, strategy="bdt",
            n_iter_max=4, tol=0.0, random_state=1, early_stop=True,
            callback=lambda i, fit, model: seen.append(i),
        )
        assert seen
        assert len(report.results) == 2

    def test_user_callback_stop_not_recorded(self, planted):
        report = cp_als_restarts(
            planted.tensor, rank=2, n_restarts=2, strategy="bdt",
            n_iter_max=20, tol=0.0, random_state=2, early_stop=True,
            early_stop_window=50,  # classifier effectively can't stall
            callback=lambda i, fit, model: i >= 1,
        )
        # The user's stop fired, not the classifier's: nothing recorded.
        assert report.early_stops == {}
        assert all(r.n_iterations == 2 for r in report.results)
