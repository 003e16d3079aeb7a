"""Unit tests for repro.core.strategy (memoization trees)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import strategy as S


class TestFromNested:
    def test_star_spec(self):
        t = S.from_nested((0, 1, 2))
        assert t.n_modes == 3
        assert t.root.modes == (0, 1, 2)
        assert len([n for n in t.nodes if n.is_leaf]) == 3

    def test_nested_spec(self):
        t = S.from_nested(((0, 1), (2, 3)))
        assert t.n_modes == 4
        assert t.n_intermediates() == 2

    def test_roundtrip(self):
        spec = ((0, 1), (2, (3, 4)))
        assert S.from_nested(spec).to_nested() == spec

    def test_delta_computed(self):
        t = S.from_nested(((0, 1), 2))
        internal = next(
            n for n in t.nodes if not n.is_root and not n.is_leaf
        )
        assert internal.modes == (0, 1)
        assert internal.delta == (2,)

    def test_single_child_internal_rejected(self):
        with pytest.raises(ValueError):
            S.from_nested(((0,), 1))

    def test_duplicate_mode_rejected(self):
        with pytest.raises(ValueError):
            S.from_nested((0, 0))

    def test_missing_mode_rejected(self):
        # Root must carry 0..N-1; modes {0, 2} skip 1.
        with pytest.raises(ValueError):
            S.from_nested((0, 2))

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            S.from_nested((0, "x"))


class TestGenerators:
    def test_star_contractions(self):
        for n in range(2, 9):
            assert S.star(n).contractions_per_iteration() == n * (n - 1)

    def test_star_no_intermediates(self):
        assert S.star(5).n_intermediates() == 0

    def test_bdt_contraction_bound(self):
        # Theorem: at most N * ceil(log2 N) contractions per iteration.
        for n in range(2, 17):
            bdt = S.balanced_binary(n)
            bound = n * math.ceil(math.log2(n))
            assert bdt.contractions_per_iteration() <= max(bound, 2)

    def test_bdt_depth(self):
        assert S.balanced_binary(8).depth() == 3
        assert S.balanced_binary(5).depth() == 3

    def test_bdt_live_bound(self):
        # Theorem: at most ceil(log2 N) live value matrices.
        for n in range(2, 17):
            assert S.balanced_binary(n).max_live_nodes() <= math.ceil(
                math.log2(n)
            ) + 1

    def test_chain_zero_is_star(self):
        assert S.chain(5, 0) == S.star(5)

    def test_chain_full_depth(self):
        t = S.chain(5, 3)
        assert t.to_nested() == (0, (1, (2, (3, 4))))

    def test_chain_intermediate_counts(self):
        for m in range(0, 4):
            assert S.chain(6, m).n_intermediates() == m

    def test_chain_out_of_range(self):
        with pytest.raises(ValueError):
            S.chain(4, 3)
        with pytest.raises(ValueError):
            S.chain(4, -1)

    def test_two_way_default_split(self):
        t = S.two_way(4)
        assert t.to_nested() == ((0, 1), (2, 3))

    def test_two_way_single_mode_side(self):
        t = S.two_way(3, split=1)
        assert t.to_nested() == (0, (1, 2))

    def test_two_way_bad_split(self):
        with pytest.raises(ValueError):
            S.two_way(4, split=0)
        with pytest.raises(ValueError):
            S.two_way(4, split=4)

    def test_enumerate_binary_catalan_count(self):
        for n in range(2, 7):
            assert len(S.enumerate_binary(n)) == S.catalan(n - 1)

    def test_enumerate_binary_max_trees(self):
        assert len(S.enumerate_binary(6, max_trees=3)) == 3

    def test_enumerate_all_valid(self):
        for t in S.enumerate_binary(5):
            assert t.n_modes == 5
            assert t.contractions_per_iteration() > 0

    def test_minimum_modes(self):
        with pytest.raises(ValueError):
            S.star(1)


class TestStructureQueries:
    def test_mode_order_star_is_natural(self):
        assert S.star(4).mode_order == (0, 1, 2, 3)

    def test_mode_order_is_permutation(self):
        for t in S.enumerate_binary(5)[:10]:
            assert sorted(t.mode_order) == list(range(5))

    def test_leaf_id(self):
        t = S.balanced_binary(4)
        for mode in range(4):
            leaf = t.nodes[t.leaf_id(mode)]
            assert leaf.is_leaf
            assert leaf.modes == (mode,)

    def test_contracted_complement(self):
        t = S.balanced_binary(4)
        for node in t.nodes:
            assert t.contracted(node.id) == frozenset(range(4)) - set(node.modes)

    def test_path_to_root(self):
        t = S.balanced_binary(8)
        path = t.path_to_root(t.leaf_id(0))
        assert path[-1] == t.root_id
        assert len(path) == t.depth() + 1

    def test_invalidated_by_excludes_keepers(self):
        t = S.from_nested(((0, 1), (2, 3)))
        stale = {t.nodes[i].modes for i in t.invalidated_by(0)}
        # Node (0,1) keeps mode 0 sparse -> not invalidated.
        assert (0, 1) not in stale
        assert (2, 3) in stale
        assert (2,) in stale and (3,) in stale

    def test_topological_order_parent_first(self):
        t = S.balanced_binary(8)
        pos = {nid: i for i, nid in enumerate(t.topological_order())}
        for node in t.nodes:
            if node.parent is not None:
                assert pos[node.parent] < pos[node.id]

    def test_equality_and_hash(self):
        a = S.balanced_binary(4)
        b = S.from_nested(((0, 1), (2, 3)), name="renamed")
        assert a == b
        assert hash(a) == hash(b)
        assert a != S.star(4)


class TestCachedStructure:
    """The memoized structure queries equal the definitions they replace."""

    @staticmethod
    def old_path_to_root(t, node_id):
        path = [node_id]
        while t.nodes[path[-1]].parent is not None:
            path.append(t.nodes[path[-1]].parent)
        return path

    @staticmethod
    def old_invalidated_by(t, mode):
        all_modes = frozenset(range(t.n_modes))
        return [n.id for n in t.nodes
                if not n.is_root and mode in all_modes - frozenset(n.modes)]

    @staticmethod
    def old_mode_order(t):
        def walk(nid):
            for c in t.nodes[nid].children:
                yield from walk(c)
            yield nid

        return tuple(t.nodes[i].modes[0] for i in walk(t.root_id)
                     if t.nodes[i].is_leaf)

    def test_every_binary_tree_of_order_six(self):
        trees = S.enumerate_binary(6)
        assert len(trees) == S.catalan(5)
        for t in trees:
            for node in t.nodes:
                assert list(t.path_to_root(node.id)) == \
                    self.old_path_to_root(t, node.id)
                assert t.path_to_root(node.id) is t.path_to_root(node.id)
            for mode in range(-1, t.n_modes + 1):
                assert list(t.invalidated_by(mode)) == \
                    self.old_invalidated_by(t, mode)
            assert t.mode_order == self.old_mode_order(t)
            assert t.signature() == repr(t.to_nested())
            assert t.signature() is t.signature()

    def test_named_generators(self):
        for t in (S.star(5), S.chain(5, 2), S.two_way(5),
                  S.balanced_binary(5)):
            for mode in range(t.n_modes):
                assert list(t.invalidated_by(mode)) == \
                    self.old_invalidated_by(t, mode)
            assert t.mode_order == self.old_mode_order(t)
            assert t.signature() == repr(t.to_nested())


class TestValidation:
    """Each check of a hand-built tree still fires."""

    @staticmethod
    def nodes(*specs):
        return [S.TreeNode(i, *spec) for i, spec in enumerate(specs)]

    @pytest.mark.parametrize("nodes, message", [
        ([], "at least one node"),
        ([((0, 1), None, (1, 2), ()), ((0,), None, (), ()),
          ((1,), 0, (), (0,))], "exactly one root"),
        ([S.TreeNode(0, (0, 1), None, (1, 2), ()),
          S.TreeNode(1, (0,), 0, (), (1,)),
          S.TreeNode(5, (1,), 0, (), (0,))], "node ids"),
        ([((1, 0), None, (1, 2), ()), ((0,), 0, (), (1,)),
          ((1,), 0, (), (0,))], "sorted and unique"),
        ([((0, 1), None, (1, 2), ()), ((0,), 2, (), (1,)),
          ((1,), 0, (), (0,))], "point back"),
        ([((0, 1), None, (1, 2), ()), ((0,), 0, (), (1,)),
          ((0,), 0, (), (1,))], "partition"),
        ([((0,), None, (1,), ()), ((0,), 0, (), ())], ">= 2 children"),
        ([((0, 1), None, (), ())], "exactly one mode"),
        ([((0, 1), None, (1, 2), ()), ((0,), 0, (), ()),
          ((1,), 0, (), (0,))], "inconsistent with parent"),
        ([((0, 1), None, (1, 2), (0,)), ((0,), 0, (), (1,)),
          ((1,), 0, (), (0,))], "root delta"),
        ([((1, 2), None, (1, 2), ()), ((1,), 0, (), (2,)),
          ((2,), 0, (), (1,))], "modes 0..N-1"),
    ])
    def test_invalid_tree_rejected(self, nodes, message):
        if nodes and not isinstance(nodes[0], S.TreeNode):
            nodes = self.nodes(*nodes)
        with pytest.raises(ValueError, match=message):
            S.MemoStrategy(nodes)

    def test_valid_hand_built_tree(self):
        t = S.MemoStrategy(self.nodes(
            ((0, 1), None, (1, 2), ()), ((0,), 0, (), (1,)),
            ((1,), 0, (), (0,)),
        ))
        assert t.signature() == S.star(2).signature()


class TestDefaultCandidates:
    def test_contains_star_and_bdt(self):
        cands = S.default_candidates(5)
        sigs = {c.signature() for c in cands}
        assert S.star(5).signature() in sigs
        assert S.balanced_binary(5).signature() in sigs

    def test_no_duplicates(self):
        cands = S.default_candidates(6)
        sigs = [c.signature() for c in cands]
        assert len(sigs) == len(set(sigs))

    def test_named_families_only(self):
        """No enumerated binary trees: the planner's DP covers them."""
        names = [c.name for c in S.default_candidates(8)]
        assert not any(n.startswith("binary#") for n in names)
        assert len(names) == 14  # two_way[1] is chain[1]

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_all_candidates_valid(self, n):
        for c in S.default_candidates(n):
            assert c.n_modes == n
            assert sorted(c.mode_order) == list(range(n))


class TestResolveStrategy:
    def test_names(self):
        assert S.resolve_strategy("star", 4) == S.star(4)
        assert S.resolve_strategy("bdt", 4) == S.balanced_binary(4)
        assert S.resolve_strategy("balanced", 4) == S.balanced_binary(4)
        assert S.resolve_strategy("two_way", 4) == S.two_way(4)
        assert S.resolve_strategy("chain", 4) == S.chain(4, 2)

    def test_passthrough_checks_modes(self):
        with pytest.raises(ValueError):
            S.resolve_strategy(S.star(3), 4)

    def test_tuple_spec(self):
        assert S.resolve_strategy(((0, 1), (2, 3)), 4) == S.balanced_binary(4)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            S.resolve_strategy("nope", 4)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            S.resolve_strategy(3.14, 4)


def test_catalan_values():
    assert [S.catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
