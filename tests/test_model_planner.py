"""Tests for the adaptive planner (repro.model.planner) and overlap counter."""

import json

import numpy as np
import pytest

from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.cpals import cp_als
from repro.core.symbolic import SymbolicTree
from repro.model.calibrate import calibrate_machine, reset_calibration
from repro.model.cost import MachineModel
from repro.model.overlap import DistinctCounter
from repro.model.planner import InfeasibleBudgetError, plan
from repro.model.report import format_table
from repro.synth.skewed import skewed_random_tensor

from .helpers import random_coo


@pytest.fixture(scope="module")
def tensor4d():
    return skewed_random_tensor(
        (40, 50, 30, 20), 3000, exponents=1.1, random_state=0
    )


class TestDistinctCounter:
    def test_exact_counts_match_symbolic(self, tensor4d):
        counter = DistinctCounter(tensor4d)
        for strategy in (S.star(4), S.balanced_binary(4), S.chain(4, 2)):
            sym = SymbolicTree(tensor4d, strategy)
            assert counter.node_nnz(strategy) == sym.node_nnz()

    def test_full_mode_set_is_nnz(self, tensor4d):
        counter = DistinctCounter(tensor4d)
        assert counter.count(range(4)) == tensor4d.nnz

    def test_empty_mode_set(self, tensor4d):
        counter = DistinctCounter(tensor4d)
        assert counter.count([]) == 1

    def test_empty_tensor(self):
        counter = DistinctCounter(CooTensor.empty((3, 4)))
        assert counter.count([0]) == 0
        assert counter.count([]) == 0

    def test_cache_shared_across_strategies(self, tensor4d):
        counter = DistinctCounter(tensor4d)
        counter.node_nnz(S.balanced_binary(4))
        size_after_first = counter.cache_size()
        counter.node_nnz(S.two_way(4))  # same mode sets: (0,1), (2,3), leaves
        assert counter.cache_size() == size_after_first

    def test_sampled_reasonable(self):
        t = skewed_random_tensor((200, 200, 200), 30_000, 1.2, random_state=1)
        exact = DistinctCounter(t, method="exact")
        sampled = DistinctCounter(t, method="sampled", sample_size=5000)
        for modes in ([0, 1], [1, 2], [0]):
            e = exact.count(modes)
            s = sampled.count(modes)
            assert 0.3 * e <= s <= 3.0 * e, (modes, e, s)

    def test_sampled_capped_by_nnz(self):
        t = skewed_random_tensor((50, 50, 50), 5000, 0.0, random_state=2)
        sampled = DistinctCounter(t, method="sampled", sample_size=1000)
        assert sampled.count([0, 1, 2]) == t.nnz
        assert sampled.count([0]) <= 50

    def test_invalid_method(self, tensor4d):
        with pytest.raises(ValueError):
            DistinctCounter(tensor4d, method="guess")


class TestPlanner:
    def test_best_is_first_feasible(self, tensor4d):
        report = plan(tensor4d, rank=8)
        assert report.best is report.scored[0]
        assert report.best.feasible

    def test_candidates_sorted_by_prediction(self, tensor4d):
        report = plan(tensor4d, rank=8)
        preds = [s.predicted_seconds for s in report.scored if s.feasible]
        assert preds == sorted(preds)

    def test_star_never_beats_best(self, tensor4d):
        """The planner includes the star, so best <= star in prediction."""
        report = plan(tensor4d, rank=8)
        star_rank = report.rank_of(S.star(4))
        assert report.scored[star_rank].predicted_seconds >= (
            report.best.predicted_seconds
        )

    def test_memoization_chosen_for_skewed_tensor(self, tensor4d):
        """On an order-4 skewed tensor memoization must win the prediction."""
        report = plan(tensor4d, rank=16)
        assert report.best.strategy.n_intermediates() > 0

    def test_memory_budget_excludes_candidates(self, tensor4d):
        """Exactly the candidates over the budget are infeasible, and the
        pick is the fastest of the rest.  (Under the index-memory model the
        fastest tree here is also the smallest, so the budget is set
        between footprints rather than just under the unbounded pick's.)"""
        unbounded = plan(tensor4d, rank=8)
        totals = sorted(s.cost.total_memory_bytes for s in unbounded.scored)
        budget = totals[len(totals) // 2]
        tight = plan(tensor4d, rank=8, memory_budget=budget)
        assert any(not s.feasible for s in tight.scored)
        for s in tight.scored:
            assert s.feasible == (s.cost.total_memory_bytes <= budget)
        assert tight.best.predicted_seconds == min(
            s.predicted_seconds for s in tight.scored if s.feasible)

    def test_budget_between_old_and_new_index_model(self, tensor4d):
        """A budget that covered a tree's index blocks and segment plans
        but not the kernel indices its rebuilds read is now infeasible; a
        budget above the kept arrays still plans."""
        from repro.core.dtypes import INDEX_ITEMSIZE

        best = plan(tensor4d, rank=8).best
        strategy, cost = best.strategy, best.cost
        nnz = cost.node_nnz
        blocks_and_plans = sum(
            nnz[n.id] * len(n.modes)
            + (0 if n.is_root else nnz[n.parent] + 2 * nnz[n.id])
            for n in strategy.nodes) * INDEX_ITEMSIZE
        old_total = cost.peak_value_bytes + blocks_and_plans
        assert old_total < cost.total_memory_bytes
        budget = (old_total + cost.total_memory_bytes) // 2
        with pytest.raises(InfeasibleBudgetError):
            _ = plan(tensor4d, rank=8, candidates=[strategy],
                     memory_budget=budget).best
        fits = plan(tensor4d, rank=8, candidates=[strategy],
                    memory_budget=cost.total_memory_bytes).best
        assert fits.strategy.signature() == strategy.signature()

    def test_impossible_budget_raises_on_best(self, tensor4d):
        report = plan(tensor4d, rank=8, memory_budget=1)
        with pytest.raises(RuntimeError):
            _ = report.best

    def test_impossible_budget_fails_cp_als_the_same_way(self, tensor4d):
        smallest = min(s.cost.total_memory_bytes
                       for s in plan(tensor4d, rank=8).scored)
        with pytest.raises(InfeasibleBudgetError) as exc:
            cp_als(tensor4d, 8, strategy="auto", memory_budget=1)
        msg = str(exc.value)
        assert "budget 1 B" in msg and f"{smallest:,} B" in msg
        assert isinstance(exc.value, ValueError)

    def test_counter_released_when_plan_returns(self, tensor4d, monkeypatch):
        """No reference cycle outlives plan(): its distinct counter, which
        holds a column-major copy of the index, is freed on return rather
        than at the next garbage collection."""
        import gc
        import weakref

        from repro.model import overlap

        counters = []
        init = overlap.DistinctCounter.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counters.append(weakref.ref(self))

        monkeypatch.setattr(overlap.DistinctCounter, "__init__",
                            tracking_init)
        enabled = gc.isenabled()
        gc.disable()
        try:
            plan(tensor4d, rank=8)
            assert counters and all(ref() is None for ref in counters)
        finally:
            if enabled:
                gc.enable()

    def test_explicit_candidates(self, tensor4d):
        cands = [S.star(4), S.balanced_binary(4)]
        report = plan(tensor4d, rank=4, candidates=cands)
        assert len(report.scored) == 2

    def test_wrong_order_candidate_rejected(self, tensor4d):
        with pytest.raises(ValueError):
            plan(tensor4d, rank=4, candidates=[S.star(3)])

    def test_empty_candidates_rejected(self, tensor4d):
        with pytest.raises(ValueError):
            plan(tensor4d, rank=4, candidates=[])

    def test_order_one_tensor_rejected(self):
        with pytest.raises(ValueError):
            plan(CooTensor.empty((5,)), rank=2)

    def test_sampled_planning(self, tensor4d):
        report = plan(tensor4d, rank=8, count_method="sampled",
                      sample_size=1000)
        assert report.best.feasible
        assert report.count_method == "sampled"

    def test_summary_renders(self, tensor4d):
        report = plan(tensor4d, rank=8)
        text = report.summary()
        assert "candidates" in text

    def test_rank_of_unknown_strategy(self, tensor4d):
        report = plan(tensor4d, rank=8, candidates=[S.star(4)])
        with pytest.raises(KeyError):
            report.rank_of(S.balanced_binary(4))

    def test_planner_prediction_orders_actual_work(self, tensor4d):
        """Predicted flop ordering equals measured flop ordering (exact counts)."""
        from repro.core.engine import MemoizedMttkrp
        from repro.perf import counting

        rng = np.random.default_rng(3)
        factors = [
            rng.random((s, 8)) for s in tensor4d.shape
        ]
        report = plan(tensor4d, rank=8,
                      candidates=[S.star(4), S.balanced_binary(4)])
        measured = {}
        for scored in report.scored:
            eng = MemoizedMttkrp(tensor4d, scored.strategy, factors)
            for n in eng.mode_order:  # warm-up
                eng.mttkrp(n)
                eng.update_factor(n, factors[n])
            with counting() as c:
                for n in eng.mode_order:
                    eng.mttkrp(n)
                    eng.update_factor(n, factors[n])
            measured[scored.strategy.signature()] = c.flops
            assert c.flops == scored.cost.flops_per_iteration
        sigs = [s.strategy.signature() for s in report.scored]
        assert measured[sigs[0]] <= measured[sigs[1]]


class TestGoldenRanking:
    @pytest.mark.parametrize("case", ["order4", "order8", "order4_sampled"])
    def test_ranking_matches_fixture(self, case):
        """Every candidate's name, signature, counts, byte totals and the
        ``repr`` of its predicted time equal ``fixtures/planner_ranking.json``
        (see ``tests/planner_ranking.py``), in ranked order."""
        from . import planner_ranking

        with open(planner_ranking.FIXTURE) as fh:
            expected = json.load(fh)[case]
        got = planner_ranking.rankings([case])[case]
        assert [c["name"] for c in got] == [c["name"] for c in expected]
        assert got == expected


class TestCalibrate:
    def test_calibration_positive_and_cached(self):
        reset_calibration()
        m1 = calibrate_machine(n_elements=100_000, repeats=1)
        assert m1.alpha_per_flop > 0
        assert m1.beta_per_word > 0
        m2 = calibrate_machine(n_elements=100_000, repeats=1)
        assert m2 is m1  # cached per parameter set
        reset_calibration()

    def test_cache_keyed_on_parameters(self):
        """Different measurement sizes are different calibrations — a
        second call must re-measure, not alias the first result."""
        reset_calibration()
        m1 = calibrate_machine(n_elements=100_000, repeats=1)
        m2 = calibrate_machine(n_elements=50_000, rank=8, repeats=1)
        assert m2 is not m1
        # both entries stay cached independently
        assert calibrate_machine(n_elements=100_000, repeats=1) is m1
        assert calibrate_machine(n_elements=50_000, rank=8, repeats=1) is m2
        reset_calibration()
        assert calibrate_machine(n_elements=100_000, repeats=1) is not m1

    def test_force_recalibrates(self):
        m1 = calibrate_machine(n_elements=100_000, repeats=1)
        m2 = calibrate_machine(n_elements=100_000, repeats=1, force=True)
        assert m2 is not m1
        reset_calibration()


class TestFormatTable:
    def test_renders_rows(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["b", 2_000_000]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_numeric_right_aligned(self):
        text = format_table(["x"], [[1.0], [100.0]])
        rows = text.splitlines()[2:]
        assert rows[0].endswith("1")
