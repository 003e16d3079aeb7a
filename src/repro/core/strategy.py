"""Memoization strategies: trees over tensor modes.

A *memoization strategy* for an order-``N`` tensor is a rooted tree in which
every node carries a set of modes: the root carries all ``N`` modes, each
internal node's children partition its mode set, and each mode appears as a
singleton leaf.  A node represents the semi-sparse intermediate tensor
obtained by contracting the input tensor with the factor matrices of all
modes *outside* its mode set; the leaf for mode ``n`` is exactly the mode-``n``
MTTKRP result.

The strategy space is the paper's algorithm space.  Its special cases:

* :func:`star` — no memoization: each MTTKRP computed directly from the input
  tensor (``N * (N-1)`` contractions per CP-ALS iteration; the SPLATT-style
  work bound).
* :func:`two_way` — one memoized split (Phan et al.'s factor-of-2 scheme).
* :func:`chain` — ``m`` memoized intermediates along a caterpillar
  (the adaptive family's tunable knob).
* :func:`balanced_binary` — a balanced binary dimension tree
  (``O(N log N)`` contractions per iteration).

The model-driven planner (:mod:`repro.model.planner`) scores these generators
and the model-cheapest trees of a dynamic-programming search
(:mod:`repro.model.search`), and selects by predicted cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .validate import check_positive_int

NestedSpec = int | tuple


@dataclass(frozen=True)
class TreeNode:
    """One node of a memoization tree.

    Attributes
    ----------
    id: position in the strategy's node list.
    modes: sorted tuple of modes this node's tensor keeps *sparse*.
    parent: parent node id, or ``None`` for the root.
    children: child node ids (empty for leaves).
    delta: modes contracted when computing this node from its parent
        (``modes(parent) - modes(self)``); empty for the root.
    """

    id: int
    modes: tuple[int, ...]
    parent: int | None
    children: tuple[int, ...]
    delta: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None


class MemoStrategy:
    """A validated memoization tree over modes ``0 .. n_modes-1``.

    Build with :func:`from_nested` or one of the named generators rather than
    constructing nodes by hand.
    """

    def __init__(self, nodes: Sequence[TreeNode], name: str = "custom"):
        self.nodes: tuple[TreeNode, ...] = tuple(nodes)
        self.name = name
        self.root_id = self._validate().id
        self.n_modes = len(self.nodes[self.root_id].modes)
        self._leaf_of_mode = {
            n.modes[0]: n.id for n in self.nodes if not n.children
        }
        # A depth-first walk meets the leaves in the same order whether it
        # emits parents first or last, so post-order's leaves are these.
        self.mode_order: tuple[int, ...] = tuple(
            self.nodes[i].modes[0] for i in self.topological_order()
            if not self.nodes[i].children
        )
        # The answers of invalidated_by, and memoized ones of path_to_root
        # and signature: the tree is immutable, and the engine asks every
        # sub-iteration and the cost model once per mode of every planner
        # candidate.  A non-root node goes stale with every mode it does not
        # keep.
        nonroot = [n for n in self.nodes if n.parent is not None]
        self._invalidated = {
            m: tuple([n.id for n in nonroot if m not in n.modes])
            for m in range(self.n_modes)
        }
        self._paths: dict[int, tuple[int, ...]] = {}
        self._signature: str | None = None

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> TreeNode:
        """Check the tree's invariants; returns its root."""
        nodes = self.nodes
        if not nodes:
            raise ValueError("strategy must have at least one node")
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise ValueError(f"strategy must have exactly one root, got {len(roots)}")
        if {n.id for n in nodes} != set(range(len(nodes))):
            raise ValueError("node ids must be 0..len(nodes)-1")
        for n in nodes:
            modes = n.modes
            if tuple(sorted(set(modes))) != modes:
                raise ValueError(f"node {n.id} modes must be sorted and unique")
            if n.children:
                child_modes: list[int] = []
                for c in n.children:
                    child = nodes[c]
                    if child.parent != n.id:
                        raise ValueError(
                            f"child {c} does not point back to parent {n.id}"
                        )
                    child_modes.extend(child.modes)
                child_modes.sort()
                if child_modes != list(modes):
                    raise ValueError(
                        f"children of node {n.id} do not partition its modes"
                    )
                if len(n.children) < 2:
                    raise ValueError(
                        f"internal node {n.id} must have >= 2 children"
                    )
            elif len(modes) != 1:
                raise ValueError(
                    f"leaf node {n.id} must carry exactly one mode"
                )
            if n.parent is not None:
                expected_delta = tuple(
                    sorted(set(nodes[n.parent].modes).difference(modes))
                )
                if n.delta != expected_delta:
                    raise ValueError(
                        f"node {n.id} delta {n.delta} inconsistent with parent"
                    )
            elif n.delta:
                raise ValueError("root delta must be empty")
        root = roots[0]
        if root.modes != tuple(range(len(root.modes))):
            raise ValueError("root must carry modes 0..N-1")
        return root

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def root(self) -> TreeNode:
        return self.nodes[self.root_id]

    def leaf_id(self, mode: int) -> int:
        """Node id of the leaf carrying ``mode``."""
        return self._leaf_of_mode[mode]

    def contracted(self, node_id: int) -> frozenset[int]:
        """Modes contracted into node ``node_id`` (its ``mu'`` set)."""
        return frozenset(range(self.n_modes)).difference(
            self.nodes[node_id].modes
        )

    def path_to_root(self, node_id: int) -> tuple[int, ...]:
        """Node ids from ``node_id`` up to and including the root."""
        path = self._paths.get(node_id)
        if path is None:
            parent = self.nodes[node_id].parent
            path = (node_id,) if parent is None else (
                (node_id,) + self.path_to_root(parent)
            )
            self._paths[node_id] = path
        return path

    def invalidated_by(self, mode: int) -> tuple[int, ...]:
        """Node ids whose cached tensors become stale when ``mode`` updates."""
        return self._invalidated.get(mode, ())

    def topological_order(self) -> list[int]:
        """Node ids in a parent-before-children order."""
        order: list[int] = []
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return order

    def rebuild_schedule(self) -> list[tuple[int, tuple[int, ...]]]:
        """Steady-state per-mode rebuild schedule: ``[(mode, node_ids), ...]``.

        Replays the engine's cache behaviour (eager frees on entering a
        sub-iteration, root-path materialization) until the per-mode rebuild
        assignment repeats, and returns that fixed point: for each mode in
        :attr:`mode_order`, the non-root node ids rebuilt during its
        sub-iteration, in build (root-to-leaf) order.  Under the post-order
        mode schedule every non-root node appears exactly once per iteration,
        so this is a partition of the non-root nodes — the structural basis
        for attributing per-node cost to modes.
        """
        live: set[int] = set()
        prev: list[tuple[int, tuple[int, ...]]] | None = None
        # The cache-state transition per iteration is deterministic, so the
        # schedule reaches its cycle within a couple of passes; the bound is
        # a safety net, not a tuning knob.
        for _ in range(4):
            schedule: list[tuple[int, tuple[int, ...]]] = []
            for n in self.mode_order:
                for nid in self.invalidated_by(n):
                    live.discard(nid)
                built: list[int] = []
                for nid in reversed(self.path_to_root(self.leaf_id(n))):
                    if self.nodes[nid].is_root or nid in live:
                        continue
                    live.add(nid)
                    built.append(nid)
                schedule.append((n, tuple(built)))
            if schedule == prev:
                break
            prev = schedule
        assert prev is not None
        return prev

    def depth(self) -> int:
        """Tree height: edges on the longest root-to-leaf path."""
        best = 0
        for n in self.nodes:
            if n.is_leaf:
                best = max(best, len(self.path_to_root(n.id)) - 1)
        return best

    # ------------------------------------------------------------------
    # work/memory accounting (structure-only; the cost model adds nnz)
    # ------------------------------------------------------------------
    def contractions_per_iteration(self) -> int:
        """Total single-mode contractions per CP-ALS iteration.

        With the mode update order of :attr:`mode_order` every non-root node
        is rebuilt exactly once per iteration, performing ``|delta|``
        contractions; the star tree yields ``N*(N-1)`` and a balanced binary
        tree at most ``N * ceil(log2 N)``.
        """
        return sum(len(n.delta) for n in self.nodes if not n.is_root)

    def max_live_nodes(self) -> int:
        """Max simultaneously cached non-root value matrices.

        Equals the tree height: during the sub-iteration for mode ``n`` only
        the nodes on the root-to-``leaf(n)`` path hold values.
        """
        return self.depth()

    def n_intermediates(self) -> int:
        """Number of memoized intermediate (internal, non-root) nodes."""
        return sum(
            1 for n in self.nodes if not n.is_root and not n.is_leaf
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def to_nested(self) -> NestedSpec:
        """Inverse of :func:`from_nested`."""
        return self._nested(self.root_id)

    def _nested(self, nid: int) -> NestedSpec:
        node = self.nodes[nid]
        if node.is_leaf:
            return node.modes[0]
        return tuple([self._nested(c) for c in node.children])

    def signature(self) -> str:
        """Canonical string form of the tree shape (hashable/dedup key)."""
        if self._signature is None:
            self._signature = repr(self.to_nested())
        return self._signature

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MemoStrategy)
            and self.to_nested() == other.to_nested()
        )

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return (
            f"MemoStrategy({self.name!r}, n_modes={self.n_modes}, "
            f"contractions/iter={self.contractions_per_iteration()}, "
            f"spec={self.to_nested()})"
        )


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def from_nested(spec: NestedSpec, name: str = "custom") -> MemoStrategy:
    """Build a strategy from a nested tuple spec.

    An int is a leaf; a tuple is an internal node whose children are its
    elements.  Example for four modes::

        from_nested(((0, 1), (2, 3)))   # one two-way split
        from_nested((0, 1, 2, 3))       # star (no memoization)
    """
    parents: list[int | None] = []
    children: list[tuple[int, ...]] = []
    modes: list[tuple[int, ...]] = []
    _walk_spec(spec, None, parents, children, modes)
    # A parent's modes are sorted, so filtering them keeps the delta sorted.
    # (If they repeat a mode, the root repeats it too, and validation
    # rejects the root before any delta is read.)
    tree_nodes = [
        TreeNode(
            nid,
            modes[nid],
            parent,
            children[nid],
            () if parent is None
            else tuple([m for m in modes[parent] if m not in modes[nid]]),
        )
        for nid, parent in enumerate(parents)
    ]
    return MemoStrategy(tree_nodes, name=name)


def _walk_spec(s: NestedSpec, parent: int | None, parents: list,
               children: list, modes: list) -> int:
    """Number the nodes of ``s`` in pre-order from ``len(parents)`` on,
    appending each node's parent, children and sorted modes; returns the
    id of ``s`` itself.  (A module function, not a closure: a recursive
    closure is a reference cycle that only the garbage collector frees.)"""
    nid = len(parents)
    parents.append(parent)
    children.append(())
    modes.append(())
    if isinstance(s, tuple):
        if len(s) < 2:
            raise ValueError(f"internal spec nodes need >= 2 children: {s!r}")
        kids: list[int] = []
        kept: list[int] = []
        for child in s:
            cid = _walk_spec(child, nid, parents, children, modes)
            kids.append(cid)
            kept += modes[cid]
        kept.sort()
        children[nid] = tuple(kids)
        modes[nid] = tuple(kept)
    elif isinstance(s, int):
        modes[nid] = (s,)
    else:
        raise TypeError(f"spec elements must be int or tuple, got {type(s)}")
    return nid


def star(n_modes: int) -> MemoStrategy:
    """No memoization: every leaf hangs off the root."""
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    return from_nested(tuple(range(n_modes)), name="star")


def two_way(n_modes: int, split: int | None = None) -> MemoStrategy:
    """One memoized split: modes ``[0, split)`` vs ``[split, N)``.

    ``split`` defaults to ``ceil(N/2)``.  Each side that has more than one
    mode becomes a memoized internal node with star children.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    if split is None:
        split = (n_modes + 1) // 2
    if not 1 <= split <= n_modes - 1:
        raise ValueError(f"split must be in [1, {n_modes - 1}], got {split}")
    left: NestedSpec = (
        0 if split == 1 else tuple(range(split))
    )
    right: NestedSpec = (
        split if split == n_modes - 1 else tuple(range(split, n_modes))
    )
    return from_nested((left, right), name=f"two_way[{split}]")


def chain(n_modes: int, n_intermediates: int) -> MemoStrategy:
    """Caterpillar with ``m`` memoized intermediates.

    ``m = 0`` is the star; intermediate ``i`` (1-based) carries modes
    ``{i..N-1}``; the deepest intermediate fans out to the remaining leaves.
    ``m = N-2`` is the full caterpillar.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    m = int(n_intermediates)
    if not 0 <= m <= n_modes - 2:
        raise ValueError(
            f"n_intermediates must be in [0, {n_modes - 2}], got {m}"
        )
    spec: NestedSpec = tuple(range(m, n_modes))
    if m == n_modes - 2:
        # Deepest intermediate has exactly two leaves.
        spec = (n_modes - 2, n_modes - 1)
    for i in range(m - 1, -1, -1):
        spec = (i, spec)
    strategy = from_nested(spec, name=f"chain[{m}]")
    return strategy


def balanced_binary(n_modes: int) -> MemoStrategy:
    """Balanced binary dimension tree over contiguous mode ranges."""
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)

    def build(lo: int, hi: int) -> NestedSpec:
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        return (build(lo, mid), build(mid, hi))

    return from_nested(build(0, n_modes), name="bdt")


def enumerate_binary(n_modes: int, *, max_trees: int | None = None) -> list[MemoStrategy]:
    """All binary trees over contiguous mode ranges (Catalan-many).

    429 trees at ``N = 8``; ``max_trees`` truncates the enumeration.  The
    planner's DP search covers this space, so the planner scores it only as
    a memory-budget fallback; tests use it as the DP's oracle.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def build(lo: int, hi: int) -> tuple[NestedSpec, ...]:
        if hi - lo == 1:
            return (lo,)
        specs: list[NestedSpec] = []
        for mid in range(lo + 1, hi):
            for left in build(lo, mid):
                for right in build(mid, hi):
                    specs.append((left, right))
        return tuple(specs)

    specs = build(0, n_modes)
    if max_trees is not None:
        specs = specs[:max_trees]
    return [
        from_nested(s, name=f"binary#{i}") for i, s in enumerate(specs)
    ]


def catalan(n: int) -> int:
    """The ``n``-th Catalan number (size of :func:`enumerate_binary`'s space
    for ``n_modes = n + 1``)."""
    return math.comb(2 * n, n) // (n + 1)


def default_candidates(n_modes: int) -> list[MemoStrategy]:
    """The named strategy families for an order-``N`` tensor.

    The star (baseline work bound), every chain depth, every two-way split,
    and the balanced binary tree.  Duplicate tree shapes are removed (e.g.
    ``two_way(N, 1)`` coincides with ``chain(N, 1)``).
    """
    candidates: list[MemoStrategy] = [star(n_modes)]
    for m in range(1, n_modes - 1):
        candidates.append(chain(n_modes, m))
    for split in range(1, n_modes):
        candidates.append(two_way(n_modes, split))
    candidates.append(balanced_binary(n_modes))
    return distinct(candidates)


def distinct(strategies: Iterable[MemoStrategy]) -> list[MemoStrategy]:
    """``strategies`` without repeated tree shapes, keeping the first of
    each signature."""
    unique: dict[str, MemoStrategy] = {}
    for s in strategies:
        unique.setdefault(s.signature(), s)
    return list(unique.values())


def resolve_strategy(spec, n_modes: int) -> MemoStrategy:
    """Coerce a user-facing strategy spec to a :class:`MemoStrategy`.

    Accepts a ``MemoStrategy``, a nested tuple, or one of the names
    ``'star'``, ``'bdt'``/``'balanced'``, ``'two_way'``, ``'chain'`` (chain
    uses the maximum memoization depth).
    """
    if isinstance(spec, MemoStrategy):
        if spec.n_modes != n_modes:
            raise ValueError(
                f"strategy is for {spec.n_modes} modes, tensor has {n_modes}"
            )
        return spec
    if isinstance(spec, tuple):
        return from_nested(spec)
    if isinstance(spec, str):
        name = spec.lower()
        if name == "star":
            return star(n_modes)
        if name in ("bdt", "balanced", "balanced_binary"):
            return balanced_binary(n_modes)
        if name == "two_way":
            return two_way(n_modes)
        if name == "chain":
            return chain(n_modes, max(n_modes - 2, 0))
        raise ValueError(f"unknown strategy name: {spec!r}")
    raise TypeError(f"cannot interpret strategy spec of type {type(spec)}")
