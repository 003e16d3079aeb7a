"""Greedy strategy search for orders beyond exhaustive enumeration.

The contiguous-binary-tree space grows as the Catalan numbers
(`~4^N / N^1.5`), so past order ~8 the planner cannot score every tree.  The
greedy constructor builds one good tree top-down: at each node it picks the
contiguous cut of the (permuted) mode list that minimizes the *estimated
downstream cost* of the two children, using the same distinct-projection
counts the cost model consumes — so the greedy tree plugs into the planner as
one more candidate, scored on equal footing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.strategy import MemoStrategy, from_nested
from .overlap import DistinctCounter


def greedy_tree(
    tensor: CooTensor,
    *,
    counter: DistinctCounter | None = None,
    mode_order: Sequence[int] | None = None,
    name: str = "greedy",
) -> MemoStrategy:
    """Build a memoization tree greedily by best contiguous cut.

    ``mode_order`` permutes the modes before cutting (defaults to sorting by
    per-mode distinct-index count, which groups "collapsible" modes — a
    standard heuristic for maximizing intermediate shrinkage).  The result is
    a valid :class:`MemoStrategy` over the *original* mode labels.
    """
    if tensor.ndim < 2:
        raise ValueError("greedy_tree requires an order >= 2 tensor")
    counter = counter or DistinctCounter(tensor)
    if mode_order is None:
        sizes = [counter.count([m]) for m in range(tensor.ndim)]
        mode_order = list(np.argsort(sizes, kind="stable"))
    else:
        mode_order = list(mode_order)
        if sorted(mode_order) != list(range(tensor.ndim)):
            raise ValueError("mode_order must permute all modes")

    # Memoize subtree cost by mode tuple; the recursion in _subtree_cost is
    # exponential in principle but operates on contiguous slices of
    # mode_order, giving O(N^2) distinct tuples.
    from functools import lru_cache

    order = tuple(mode_order)

    @lru_cache(maxsize=None)
    def cost(lo: int, hi: int, parent_nnz: int) -> float:
        modes = order[lo:hi]
        if len(modes) == 1:
            return float(parent_nnz)
        nnz_here = counter.count(modes)
        best = float("inf")
        for cut in range(lo + 1, hi):
            best = min(best, cost(lo, cut, nnz_here) + cost(cut, hi, nnz_here))
        return float(parent_nnz) + best

    def build(lo: int, hi: int, parent_nnz: int):
        modes = order[lo:hi]
        if len(modes) == 1:
            return int(modes[0])
        nnz_here = counter.count(modes)
        best_cut, best_cost = lo + 1, float("inf")
        for cut in range(lo + 1, hi):
            c = cost(lo, cut, nnz_here) + cost(cut, hi, nnz_here)
            if c < best_cost:
                best_cut, best_cost = cut, c
        return (build(lo, best_cut, nnz_here), build(best_cut, hi, nnz_here))

    spec = build(0, tensor.ndim, tensor.nnz)
    # Each recursive closure is a reference cycle through its own name.
    # Unbroken, the cycles keep ``counter`` (with its column-major copy of
    # the index) alive until the garbage collector next runs.
    del cost, build
    return from_nested(spec, name=name)


def search_candidates(
    tensor: CooTensor,
    *,
    counter: DistinctCounter | None = None,
    exhaustive_limit: int = 8,
) -> list[MemoStrategy]:
    """The planner's candidate set.

    Order <= ``exhaustive_limit``: the full default family (including the
    Catalan enumeration over contiguous mode ranges) *plus* the greedy tree
    under the size-sorted mode order — the only candidate able to group
    non-adjacent modes, which matters when collapsible modes are not
    neighbors in the label order.  Higher orders: the named families plus
    greedy trees under both the size-sorted and natural mode orders.
    """
    from ..core.strategy import default_candidates

    candidates = default_candidates(tensor.ndim,
                                    exhaustive_limit=exhaustive_limit)
    counter = counter or DistinctCounter(tensor)
    candidates.append(greedy_tree(tensor, counter=counter))
    if tensor.ndim > exhaustive_limit:
        candidates.append(
            greedy_tree(
                tensor, counter=counter,
                mode_order=range(tensor.ndim), name="greedy-natural",
            )
        )
    seen: set[str] = set()
    unique = []
    for c in candidates:
        if c.signature() not in seen:
            seen.add(c.signature())
            unique.append(c)
    return unique
