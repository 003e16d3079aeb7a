"""Property-based tests over *random* memoization trees.

The named generators cover structured trees; these tests draw arbitrary
recursive partitions of the mode set (any fan-out, any grouping, any mode
permutation) and assert the engine's core guarantees hold for every one:
agreement with the dense reference, schedule work bounds, and cost-model
equality.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import strategy as S
from repro.core.engine import MemoizedMttkrp
from repro.core.symbolic import SymbolicTree
from repro.model.cost import iteration_flops_words, simulate_peak_value_bytes
from repro.perf import counting

from .helpers import dense_mttkrp, random_coo, random_factors


def random_tree_spec(modes, rng) -> S.NestedSpec:
    """A uniformly-random recursive partition of ``modes``."""
    modes = [int(m) for m in modes]
    if len(modes) == 1:
        return modes[0]
    n_groups = int(rng.integers(2, len(modes) + 1))
    rng.shuffle(modes)
    # Random composition of len(modes) into n_groups positive parts.
    cuts = sorted(rng.choice(
        np.arange(1, len(modes)), size=n_groups - 1, replace=False
    ))
    groups = np.split(np.array(modes), cuts)
    return tuple(
        random_tree_spec([int(x) for x in g], rng) for g in groups
    )


@st.composite
def tree_and_tensor(draw):
    order = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    spec = random_tree_spec(range(order), rng)
    strategy = S.from_nested(spec, name="random")
    shape = tuple(int(d) for d in rng.integers(3, 6, size=order))
    tensor = random_coo(rng, shape, int(rng.integers(5, 60)))
    return strategy, tensor, rng


class TestRandomTrees:
    @given(tree_and_tensor())
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_dense(self, data):
        strategy, tensor, rng = data
        factors = random_factors(rng, tensor.shape, 3)
        engine = MemoizedMttkrp(tensor, strategy, factors)
        dense = tensor.to_dense()
        for mode in range(tensor.ndim):
            np.testing.assert_allclose(
                engine.mttkrp(mode),
                dense_mttkrp(dense, factors, mode),
                rtol=1e-9, atol=1e-9,
            )

    @given(tree_and_tensor())
    @settings(max_examples=30, deadline=None)
    def test_each_node_built_once_per_iteration(self, data):
        strategy, tensor, rng = data
        factors = random_factors(rng, tensor.shape, 2)
        engine = MemoizedMttkrp(tensor, strategy, factors)
        for _ in range(2):
            with counting() as c:
                for n in engine.mode_order:
                    engine.mttkrp(n)
                    engine.update_factor(
                        n, rng.standard_normal((tensor.shape[n], 2))
                    )
        assert c.node_builds == len(strategy.nodes) - 1

    @given(tree_and_tensor())
    @settings(max_examples=30, deadline=None)
    def test_model_matches_counters(self, data):
        strategy, tensor, rng = data
        factors = random_factors(rng, tensor.shape, 2)
        sym = SymbolicTree(tensor, strategy)
        engine = MemoizedMttkrp(tensor, strategy, factors, symbolic=sym)
        for _ in range(2):
            with counting() as c:
                for n in engine.mode_order:
                    engine.mttkrp(n)
                    engine.update_factor(
                        n, rng.standard_normal((tensor.shape[n], 2))
                    )
        flops, words = iteration_flops_words(strategy, sym.node_nnz(), 2)
        assert c.flops == flops
        assert c.words == words

    @given(tree_and_tensor())
    @settings(max_examples=30, deadline=None)
    def test_peak_memory_simulation_exact(self, data):
        strategy, tensor, rng = data
        factors = random_factors(rng, tensor.shape, 2)
        sym = SymbolicTree(tensor, strategy)
        engine = MemoizedMttkrp(tensor, strategy, factors, symbolic=sym)
        peak = 0
        for _ in range(2):
            for n in engine.mode_order:
                engine.mttkrp(n)
                peak = max(peak, engine.live_value_bytes())
                engine.update_factor(
                    n, rng.standard_normal((tensor.shape[n], 2))
                )
        assert peak == simulate_peak_value_bytes(strategy, sym.node_nnz(), 2)

    @given(tree_and_tensor())
    @settings(max_examples=30, deadline=None)
    def test_live_nodes_bounded_by_depth(self, data):
        strategy, tensor, rng = data
        factors = random_factors(rng, tensor.shape, 2)
        engine = MemoizedMttkrp(tensor, strategy, factors)
        for _ in range(2):
            for n in engine.mode_order:
                engine.mttkrp(n)
                assert len(engine.cached_node_ids()) <= strategy.depth()
                engine.update_factor(
                    n, rng.standard_normal((tensor.shape[n], 2))
                )
