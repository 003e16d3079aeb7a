"""Tests for the DP strategy search (repro.model.search)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core import strategy as S
from repro.core.engine import MemoizedMttkrp
from repro.model.cost import DEFAULT_MACHINE, iteration_flops_words
from repro.model.overlap import DistinctCounter
from repro.model.planner import plan
from repro.model.search import dp_tree, search_candidates
from repro.synth.skewed import skewed_random_tensor

from .helpers import dense_mttkrp, random_coo, random_factors


@pytest.fixture(scope="module")
def tensor6d():
    return skewed_random_tensor((40,) * 6, 4000, 1.2, random_state=0)


@pytest.fixture(scope="module")
def tensor10d():
    return skewed_random_tensor((20,) * 10, 3000, 1.0, random_state=1)


def predicted(strategy, counter, rank):
    """``cost_report(...).predicted_seconds`` without the byte terms."""
    return DEFAULT_MACHINE.seconds(
        *iteration_flops_words(strategy, counter.node_nnz(strategy), rank))


def relabel(spec, order):
    """``spec`` with leaf ``i`` renamed ``order[i]``."""
    if isinstance(spec, int):
        return int(order[spec])
    return tuple(relabel(s, order) for s in spec)


def size_sorted(counter, n):
    return np.argsort([counter.count((m,)) for m in range(n)], kind="stable")


class TestDpTree:
    def test_valid_strategy(self, tensor6d):
        strat = dp_tree(DistinctCounter(tensor6d), 16)
        assert strat.n_modes == 6
        assert sorted(strat.mode_order) == list(range(6))
        for node in strat.nodes:
            assert not node.children or len(node.children) >= 2

    def test_engine_correct_on_dp_tree(self):
        rng = np.random.default_rng(2)
        small = random_coo(rng, (4, 5, 3, 4, 5, 3), 50)
        strat = dp_tree(DistinctCounter(small), 2,
                        mode_order=[5, 0, 3, 1, 4, 2])
        factors = random_factors(rng, small.shape, 2)
        eng = MemoizedMttkrp(small, strat, factors)
        dense = small.to_dense()
        for mode in range(6):
            np.testing.assert_allclose(
                eng.mttkrp(mode),
                dense_mttkrp(dense, factors, mode),
                rtol=1e-10, atol=1e-10,
            )

    def test_explicit_mode_order(self, tensor6d):
        strat = dp_tree(DistinctCounter(tensor6d), 16,
                        mode_order=[5, 4, 3, 2, 1, 0])
        assert strat.n_modes == 6
        assert sorted(strat.mode_order) == list(range(6))

    def test_bad_mode_order(self, tensor6d):
        with pytest.raises(ValueError):
            dp_tree(DistinctCounter(tensor6d), 16,
                    mode_order=[0, 0, 1, 2, 3, 4])

    def test_order_one_rejected(self):
        from repro.core.coo import CooTensor

        with pytest.raises(ValueError):
            dp_tree(DistinctCounter(CooTensor.empty((5,))), 4)

    def test_dp_beats_star(self, tensor6d):
        """Memoization pays on a skewed order-6 tensor."""
        counter = DistinctCounter(tensor6d)
        assert (predicted(dp_tree(counter, 16), counter, 16)
                < predicted(S.star(6), counter, 16))

    def test_star_when_nothing_collapses(self):
        """Every pair projection is as large as the tensor, so no
        intermediate shrinks: the DP keeps one three-way node, the star."""
        t = skewed_random_tensor((5000,) * 3, 500, 0.0, random_state=3)
        counter = DistinctCounter(t)
        assert all(counter.count(p) == t.nnz
                   for p in ((0, 1), (0, 2), (1, 2)))
        assert dp_tree(counter, 8).signature() == S.star(3).signature()


class TestDifferential:
    """The DP against brute force over the trees it claims to cover."""

    @given(order=hst.integers(3, 8), seed=hst.integers(0, 10_000),
           rank=hst.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=15, deadline=None)
    def test_natural_dp_beats_every_contiguous_tree(self, order, seed, rank):
        t = skewed_random_tensor((12,) * order, 400, 1.1, random_state=seed)
        counter = DistinctCounter(t)
        best = predicted(dp_tree(counter, rank), counter, rank)
        for tree in S.enumerate_binary(order) + S.default_candidates(order):
            assert best <= predicted(tree, counter, rank), tree.name

    @given(order=hst.integers(3, 8), seed=hst.integers(0, 10_000),
           rank=hst.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=15, deadline=None)
    def test_sorted_dp_beats_every_relabelled_tree(self, order, seed, rank):
        t = skewed_random_tensor((12,) * order, 400, 1.1, random_state=seed)
        counter = DistinctCounter(t)
        mode_order = size_sorted(counter, order)
        best = predicted(dp_tree(counter, rank, mode_order=mode_order),
                         counter, rank)
        for tree in S.enumerate_binary(order):
            moved = S.from_nested(relabel(tree.to_nested(), mode_order))
            assert best <= predicted(moved, counter, rank), tree.name

    @pytest.mark.parametrize("order", [9, 10, 11, 12])
    def test_high_order_pick_beats_named_families(self, order):
        t = skewed_random_tensor((6,) * order, 300, 1.0, random_state=order)
        report = plan(t, rank=8)
        counter = DistinctCounter(t)
        for tree in S.default_candidates(order):
            assert report.best.predicted_seconds <= predicted(tree, counter, 8)

    def test_budget_fallback_scores_binary_trees(self):
        """A budget that excludes the DP pick while a named family still
        fits: the pick is the fastest fitting tree of the full contiguous
        space, here a binary tree no named family or DP tree matches."""
        t = skewed_random_tensor((30, 40, 20, 25, 35, 28), 2000, 1.1,
                                 random_state=0)
        unbounded = plan(t, 32).best
        full = plan(t, 32, candidates=S.enumerate_binary(6)
                    + search_candidates(t, 32))
        budget, expected = next(
            (b, fits[0]) for b in sorted({s.cost.total_memory_bytes
                                          for s in full.scored})
            if b < unbounded.cost.total_memory_bytes
            for fits in [[s for s in full.scored
                          if s.cost.total_memory_bytes <= b]]
            if fits and fits[0].strategy.name.startswith("binary#"))
        tight = plan(t, 32, memory_budget=budget)
        assert tight.best.strategy.signature() == expected.strategy.signature()
        assert tight.best.predicted_seconds == expected.predicted_seconds
        assert len(tight.scored) > len(plan(t, 32).scored)


class TestSearchCandidates:
    def test_named_families_keep_their_names(self, tensor6d):
        """Named families come first, so a DP tree of the same shape is
        dropped and the family's name survives."""
        cands = search_candidates(tensor6d, 16)
        named = S.default_candidates(6)
        assert [c.name for c in cands[:len(named)]] == [c.name for c in named]
        assert set(c.name for c in cands[len(named):]) <= {"dp", "dp-sorted"}

    def test_order8_candidate_count(self):
        t = skewed_random_tensor((600,) * 7 + (40,), 3000, 1.1,
                                 random_state=1)
        assert len(search_candidates(t, 8)) <= 16

    def test_no_duplicate_signatures(self, tensor10d):
        cands = search_candidates(tensor10d, 4)
        sigs = [c.signature() for c in cands]
        assert len(sigs) == len(set(sigs))

    def test_planner_uses_search_for_high_order(self, tensor10d):
        report = plan(tensor10d, rank=4)
        assert report.best.feasible
        # Memoization must be predicted to win at order 10.
        assert report.best.strategy.n_intermediates() > 0

    def test_signatures_unique_across_orders(self):
        for order in (3, 4, 6, 9):
            t = skewed_random_tensor((6,) * order, 100, 1.0,
                                     random_state=order)
            sigs = [c.signature() for c in search_candidates(t, 8)]
            assert len(sigs) == len(set(sigs))

    def test_order3_degenerate(self):
        """Order 3 leaves nothing to memoize: every family collapses to a
        handful of distinct shapes, all of them valid."""
        t = skewed_random_tensor((10, 12, 9), 300, 1.0, random_state=0)
        cands = search_candidates(t, 8)
        sigs = [c.signature() for c in cands]
        assert len(sigs) == len(set(sigs))
        assert cands
        for c in cands:
            assert c.n_modes == 3
            assert sorted(c.mode_order) == [0, 1, 2]

    @given(order=hst.integers(3, 9), seed=hst.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_leaves_cover_all_modes_exactly_once(self, order, seed):
        t = skewed_random_tensor((5,) * order, 80, 1.0, random_state=seed)
        for cand in search_candidates(t, 8):
            leaf_modes = sorted(
                m for node in cand.nodes if node.is_leaf for m in node.modes
            )
            assert leaf_modes == list(range(order))
