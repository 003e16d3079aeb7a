"""Index-overlap estimation: intermediate nonzero counts without contraction.

A strategy node keeping mode set ``S`` has as many nonzeros as the input
tensor has *distinct* coordinate projections onto ``S``.  The planner needs
these counts for dozens of candidate trees; two facts keep that cheap:

* counts depend only on the mode *set*, so they are shared across every
  candidate containing a node with the same set — one cache serves all; and
* each count is a single distinct-row pass (``exact``) or a Chao-corrected
  sample estimate (``sampled``) for very large tensors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core import rowcodes
from ..core.coo import CooTensor
from ..core.strategy import MemoStrategy
from ..core.validate import check_random_state


class DistinctCounter:
    """Cached distinct-projection counter for one tensor.

    Parameters
    ----------
    tensor: the input tensor.
    method: ``'exact'`` (full distinct-row count) or ``'sampled'``
        (Chao1-corrected estimate on ``sample_size`` rows).
    sample_size: rows drawn for the sampled method.
    random_state: seed for sampling.
    """

    def __init__(self, tensor: CooTensor, *, method: str = "exact",
                 sample_size: int = 100_000, random_state=0):
        if method not in ("exact", "sampled"):
            raise ValueError(f"method must be 'exact' or 'sampled', got {method!r}")
        self.tensor = tensor
        self.method = method
        self.sample_size = int(sample_size)
        self._rng = check_random_state(random_state)
        self._cache: dict[frozenset[int], int] = {}
        # Tuple-keyed hits, for the planner asking once per candidate node:
        # a node's modes tuple is its own key, with no frozenset to build.
        self._by_tuple: dict[tuple, int] = {}
        self._sample_rows: np.ndarray | None = None
        self._column_major: np.ndarray | None = None

    def count(self, modes: Iterable[int]) -> int:
        """(Estimated) number of distinct projections onto ``modes``."""
        if type(modes) is tuple:
            hit = self._by_tuple.get(modes)
            if hit is None:
                hit = self._by_tuple[modes] = self._count(modes)
            return hit
        return self._count(modes)

    def _count(self, modes: Iterable[int]) -> int:
        key = frozenset(int(m) for m in modes)
        if not key:
            return 1 if self.tensor.nnz else 0
        if key == frozenset(range(self.tensor.ndim)):
            return self.tensor.nnz
        if key not in self._cache:
            cols = sorted(key)
            dims = [self.tensor.shape[c] for c in cols]
            if self.method == "exact" or self.tensor.nnz <= self.sample_size:
                if self._column_major is None:
                    # One copy serves every count: a column of it is
                    # contiguous, where a column of the row-major index is
                    # strided and gathering one is most of a count's cost.
                    self._column_major = np.asfortranarray(self.tensor.idx)
                self._cache[key] = rowcodes.count_distinct_columns(
                    [self._column_major[:, c] for c in cols], dims
                )
            else:
                self._cache[key] = self._sampled_count(cols, dims)
        return self._cache[key]

    def _sample(self) -> np.ndarray:
        if self._sample_rows is None:
            self._sample_rows = self._rng.choice(
                self.tensor.nnz, size=self.sample_size, replace=False
            )
        return self._sample_rows

    def _sampled_count(self, cols: Sequence[int], dims: Sequence[int]) -> int:
        """Chao1 species-richness estimate, capped by population bounds."""
        rows = self._sample()
        sub = self.tensor.idx[np.sort(rows)][:, cols]
        _, inverse = rowcodes.group_rows(sub, dims)
        counts = np.bincount(inverse)
        u = counts.shape[0]
        f1 = int((counts == 1).sum())
        f2 = int((counts == 2).sum())
        if f2 > 0:
            estimate = u + f1 * f1 / (2.0 * f2)
        else:
            estimate = u + f1 * (f1 - 1) / 2.0
        # The estimate cannot exceed the nonzero count nor the projected
        # cell count; nor fall below what the sample already saw.
        cap = float(self.tensor.nnz)
        cell_cap = 1.0
        for d in dims:
            cell_cap *= float(d)
            if cell_cap > cap:
                break
        return int(min(max(estimate, u), cap, cell_cap))

    def node_nnz(self, strategy: MemoStrategy) -> list[int]:
        """Per-node intermediate sizes for ``strategy`` (cost-model input)."""
        return [self.count(node.modes) for node in strategy.nodes]

    def cache_size(self) -> int:
        return len(self._cache)
