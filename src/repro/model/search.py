"""Model-optimal strategy search by interval dynamic programming.

The cost model is edge-additive in exact integers: every non-root node
costs ``contraction_work(parent_nnz, R, |delta|)`` per iteration and every
leaf adds ``nnz * R`` scatter words.  Over the trees whose nodes are
contiguous ranges of one mode order (a node's children split its range into
two or more contiguous parts), the cheapest tree is therefore an interval
DP — the dimension-tree search of Kaya & Uçar.  It needs one distinct count
per range, O(N^2) in all, and covers the star, every chain, every two-way
split, the balanced tree and every contiguous binary tree.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.engine import contraction_work
from ..core.strategy import (MemoStrategy, NestedSpec, default_candidates,
                             distinct, from_nested)
from .cost import DEFAULT_MACHINE, MachineModel
from .overlap import DistinctCounter


def dp_tree(
    counter: DistinctCounter,
    rank: int,
    *,
    machine: MachineModel = DEFAULT_MACHINE,
    mode_order: Sequence[int] | None = None,
    name: str = "dp",
) -> MemoStrategy:
    """The model-cheapest tree over contiguous ranges of ``mode_order``.

    ``mode_order`` defaults to the natural order ``0..N-1``.  Subtree costs
    are exact ``(flops, words)`` pairs compared by ``machine.seconds``; on a
    tie the split with the shorter leading part wins.  The result is a
    :class:`MemoStrategy` over the original mode labels.
    """
    n = counter.tensor.ndim
    if n < 2:
        raise ValueError("dp_tree requires an order >= 2 tensor")
    order = tuple(range(n) if mode_order is None else map(int, mode_order))
    if sorted(order) != list(range(n)):
        raise ValueError("mode_order must permute all modes")
    nnz = {(i, j): counter.count(tuple(sorted(order[i:j])))
           for i in range(n) for j in range(i + 1, n + 1)}
    # below[i, j]: (flops, words) of the subtree on range [i, j) without its
    # own rebuild, which its parent pays; ends[i, j]: where its parts end.
    below = {(i, i + 1): (0, nnz[i, i + 1] * rank) for i in range(n)}
    ends: dict[tuple[int, int], tuple[int, ...]] = {}
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length
            # tail[s]: the cheapest split of [s, j) into children of [i, j),
            # as (flops, words, part ends).  [i, j) itself is no split.
            tail = {j: (0, 0, ())}
            for s in range(j - 1, i - 1, -1):
                options = []
                for e in range(s + 1, j + (s > i)):
                    f, w = contraction_work(nnz[i, j], rank, length - (e - s))
                    options.append((f + below[s, e][0] + tail[e][0],
                                    w + below[s, e][1] + tail[e][1],
                                    (e,) + tail[e][2]))
                tail[s] = min(options, key=lambda c: machine.seconds(*c[:2]))
            below[i, j], ends[i, j] = tail[i][:2], tail[i][2]
    return from_nested(_spec(order, ends, 0, n), name=name)


def _spec(order: tuple[int, ...], ends: dict, i: int, j: int) -> NestedSpec:
    """Nested spec of range ``[i, j)``.  (A module function, not a closure:
    a recursive closure is a reference cycle that would keep the counter
    alive until the garbage collector runs.)"""
    if j - i == 1:
        return order[i]
    starts = (i,) + ends[i, j][:-1]
    return tuple(_spec(order, ends, s, e) for s, e in zip(starts, ends[i, j]))


def search_candidates(
    tensor: CooTensor,
    rank: int,
    *,
    counter: DistinctCounter | None = None,
    machine: MachineModel = DEFAULT_MACHINE,
) -> list[MemoStrategy]:
    """The planner's candidate set: the named families
    (:func:`~repro.core.strategy.default_candidates`), then the DP tree
    under the natural mode order (``dp``) and under the order sorted by
    per-mode distinct count (``dp-sorted``, which can group non-adjacent
    modes).  A DP tree with a named family's shape is dropped, so the
    family keeps its name."""
    counter = counter or DistinctCounter(tensor)
    sizes = [counter.count((m,)) for m in range(tensor.ndim)]
    return distinct(default_candidates(tensor.ndim) + [
        dp_tree(counter, rank, machine=machine),
        dp_tree(counter, rank, machine=machine,
                mode_order=np.argsort(sizes, kind="stable"), name="dp-sorted"),
    ])
