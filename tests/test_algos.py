"""Tests for the higher-level algorithms (repro.algos)."""

import numpy as np
import pytest

from repro.algos import cp_als_restarts, select_rank
from repro.synth.lowrank import lowrank_tensor


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

        # At rank 64 the value matrices outweigh the index arrays, so the
        # fastest tree is not the smallest and a budget can change the pick.
        unbounded = plan(tensor, 64).best
        budget = unbounded.cost.total_memory_bytes - 1
        expected = cp_als(tensor, 64, memory_budget=budget, **opts)
        assert expected.strategy_name != unbounded.strategy.name
        report = cp_als_restarts(tensor, 64, n_restarts=2,
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
