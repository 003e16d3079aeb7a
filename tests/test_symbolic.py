"""Tests for the symbolic contraction phase (repro.core.symbolic)."""

import math

import numpy as np
import pytest

from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.rowcodes import lexsort_rows
from repro.core.symbolic import SymbolicTree

from .helpers import random_coo


@pytest.fixture
def tensor():
    return random_coo(np.random.default_rng(0), (5, 6, 4, 7), 60)


class TestStructure:
    def test_root_aliases_tensor_index(self, tensor):
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        root = sym.nodes[sym.strategy.root_id]
        assert root.index is tensor.idx
        assert root.plan is None

    def test_node_indices_unique_and_sorted(self, tensor):
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        for node_sym in sym.nodes:
            idx = node_sym.index
            if idx.shape[0] > 1:
                order = lexsort_rows(idx)
                assert np.array_equal(order, np.arange(idx.shape[0]))
                dup = np.all(idx[1:] == idx[:-1], axis=1)
                assert not dup.any()

    def test_node_nnz_equals_distinct_projections(self, tensor):
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        for node_sym in sym.nodes:
            cols = [list(node_sym.modes).index(m) for m in node_sym.modes]
            mode_cols = list(node_sym.modes)
            expected = np.unique(tensor.idx[:, mode_cols], axis=0).shape[0]
            assert node_sym.nnz == expected, node_sym.modes

    def test_plan_maps_parent_rows_to_node_rows(self, tensor):
        strategy = S.balanced_binary(4)
        sym = SymbolicTree(tensor, strategy)
        for node in strategy.nodes:
            if node.is_root:
                continue
            node_sym = sym.nodes[node.id]
            parent_sym = sym.nodes[node.parent]
            keep_cols = [
                list(parent_sym.modes).index(m) for m in node_sym.modes
            ]
            # Reducing the parent's projected rows through the plan must land
            # each parent row on the matching node row.
            proj = parent_sym.index[:, keep_cols]
            onehots = np.ones((parent_sym.nnz, 1))
            counts = node_sym.plan.reduce(onehots)[:, 0]
            # Each node row's count equals its multiplicity in the parent.
            _, ref_counts = np.unique(proj, axis=0, return_counts=True)
            np.testing.assert_array_equal(counts, ref_counts)

    def test_delta_cols_point_at_delta_modes(self, tensor):
        strategy = S.from_nested(((0, 2), (1, 3)))
        sym = SymbolicTree(tensor, strategy)
        for node in strategy.nodes:
            if node.is_root:
                continue
            node_sym = sym.nodes[node.id]
            parent_modes = strategy.nodes[node.parent].modes
            for d_mode, d_col in zip(
                node_sym.delta_modes, node_sym.delta_parent_cols
            ):
                assert parent_modes[d_col] == d_mode

    def test_leaf_index_single_column(self, tensor):
        sym = SymbolicTree(tensor, S.star(4))
        for mode in range(4):
            leaf = sym.nodes[sym.strategy.leaf_id(mode)]
            assert leaf.index.shape[1] == 1
            used = np.unique(tensor.idx[:, mode])
            np.testing.assert_array_equal(leaf.index[:, 0], used)

    def test_wrong_mode_count_rejected(self, tensor):
        with pytest.raises(ValueError):
            SymbolicTree(tensor, S.star(3))

    def test_empty_tensor(self):
        sym = SymbolicTree(CooTensor.empty((3, 4, 5)), S.star(3))
        for node_sym in sym.nodes:
            assert node_sym.nnz == 0


class TestAccounting:
    def test_index_nbytes_is_sum(self, tensor):
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        assert sym.index_nbytes() == sum(
            sym.node_index_nbytes(n.node_id) for n in sym.nodes
        )

    def test_compression_ratios_at_least_one_for_skewed(self):
        # Tensor with a single repeated (i, j) prefix: huge overlap.
        idx = np.array([[0, 0, k, k % 3] for k in range(9)])
        t = CooTensor(idx, np.ones(9), (2, 2, 9, 3))
        sym = SymbolicTree(t, S.two_way(4, split=2))
        ratios = sym.compression_ratios()
        internal_01 = next(
            nid for nid, node in enumerate(sym.strategy.nodes)
            if node.modes == (0, 1)
        )
        assert ratios[internal_01] == pytest.approx(9.0)

    def test_total_index_storage_bound(self, tensor):
        """Theorem: BDT stores at most N*(ceil(log N)+1) index arrays."""
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        n_index_arrays = sum(len(n.modes) for n in sym.strategy.nodes)
        assert n_index_arrays <= 4 * (math.ceil(math.log2(4)) + 1)

    def test_node_nnz_list_matches(self, tensor):
        sym = SymbolicTree(tensor, S.chain(4, 2))
        assert sym.node_nnz() == [n.nnz for n in sym.nodes]
