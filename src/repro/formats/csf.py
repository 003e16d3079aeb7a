"""Compressed Sparse Fiber (CSF) tensors — SPLATT's storage format.

A CSF tensor stores the nonzeros as a forest of prefix trees under a fixed
mode ordering: level ``l`` holds one node per distinct length-``(l+1)``
coordinate prefix, with pointer arrays delimiting each node's children.  The
MTTKRP for the root mode then proceeds bottom-up, performing the reduction at
each level on *fibers* rather than raw nonzeros — the fiber-compression
saving that SPLATT exploits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import rowcodes
from ..core.coo import CooTensor
from ..core.dtypes import INDEX_DTYPE, VALUE_DTYPE
from ..perf import counters as perf


class CsfTensor:
    """One CSF representation of a sparse tensor under a mode ordering.

    Parameters
    ----------
    tensor: canonical COO tensor.
    mode_order: permutation of modes; ``mode_order[0]`` is the root mode
        (the mode whose MTTKRP this CSF serves).
    """

    def __init__(self, tensor: CooTensor, mode_order: Sequence[int]):
        order = tuple(int(m) for m in mode_order)
        if sorted(order) != list(range(tensor.ndim)):
            raise ValueError(
                f"mode_order must permute 0..{tensor.ndim - 1}, got {order}"
            )
        self.shape = tensor.shape
        self.mode_order = order
        ndim = tensor.ndim
        reordered = tensor.idx[:, order]
        perm = rowcodes.lexsort_rows(reordered)
        idxs = np.take(reordered, perm, axis=0)
        self.vals = np.ascontiguousarray(tensor.vals[perm])
        nnz = idxs.shape[0]

        # Node start positions per level: a node begins wherever the
        # length-(l+1) prefix changes.
        starts: list[np.ndarray] = []
        if nnz == 0:
            self.fids = [np.zeros(0, dtype=INDEX_DTYPE) for _ in range(ndim)]
            self.ptrs = [np.zeros(1, dtype=np.intp) for _ in range(ndim - 1)]
            self._leaf_idx = idxs
            self._node_counts = [0] * ndim
            return
        changed = np.zeros(nnz - 1, dtype=bool)
        for l in range(ndim):
            np.logical_or(changed, idxs[1:, l] != idxs[:-1, l], out=changed)
            p = np.concatenate(([0], np.flatnonzero(changed) + 1)).astype(np.intp)
            starts.append(p)
        # Canonical tensors have unique coordinates, so leaf nodes are
        # exactly the nonzeros.
        assert starts[-1].shape[0] == nnz

        #: per-level node index values (the coordinate in mode_order[l]).
        self.fids = [idxs[p, l].astype(INDEX_DTYPE) for l, p in enumerate(starts)]
        #: ptrs[l][j]:ptrs[l][j+1] delimits node j's children at level l+1.
        self.ptrs = [
            np.searchsorted(starts[l + 1], np.append(starts[l], nnz)).astype(np.intp)
            for l in range(ndim - 1)
        ]
        self._leaf_idx = idxs
        self._node_counts = [int(p.shape[0]) for p in starts]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    def node_counts(self) -> list[int]:
        """Nodes per level (fiber-compression profile)."""
        return list(self._node_counts)

    def nbytes(self) -> int:
        total = int(self.vals.nbytes)
        for f in self.fids:
            total += int(f.nbytes)
        for p in self.ptrs:
            total += int(p.nbytes)
        return total

    # ------------------------------------------------------------------
    def mttkrp_root(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """MTTKRP for the root mode ``mode_order[0]``.

        Performs ``N-1`` level reductions bottom-up; each level's multiply
        touches only that level's fibers, not the raw nonzeros.
        """
        ndim = self.ndim
        root_mode = self.mode_order[0]
        rank = factors[0].shape[1]
        out = np.zeros((self.shape[root_mode], rank), dtype=VALUE_DTYPE)
        if self.nnz == 0:
            perf.record(mttkrps=1)
            return out
        leaf_mode = self.mode_order[ndim - 1]
        T = self.vals[:, None] * factors[leaf_mode][self._leaf_idx[:, ndim - 1]]
        flops = self.nnz * rank
        words = self.nnz * rank * 2
        for l in range(ndim - 2, 0, -1):
            T = np.add.reduceat(T, self.ptrs[l][:-1], axis=0)
            mode_l = self.mode_order[l]
            T *= factors[mode_l][self.fids[l]]
            n_l = self._node_counts[l]
            n_child = self._node_counts[l + 1]
            flops += (n_child + n_l) * rank
            words += (n_child + 3 * n_l) * rank
        M_rows = np.add.reduceat(T, self.ptrs[0][:-1], axis=0)
        out[self.fids[0]] = M_rows
        flops += self._node_counts[1] * rank
        words += (self._node_counts[1] + self._node_counts[0]) * rank
        perf.record(
            mttkrps=1,
            contractions=ndim - 1,
            flops=flops,
            words=words,
        )
        return out

    def _expand(self, per_node: np.ndarray, level: int) -> np.ndarray:
        """Replicate level-``level`` node rows to level ``level+1`` nodes."""
        counts = np.diff(self.ptrs[level])
        return np.repeat(per_node, counts, axis=0)

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """MTTKRP for the mode at tree ``level`` — the CSF-1 algorithm.

        One CSF serves every mode: partial products from the levels *above*
        the target flow down (replicated along the tree), partials from the
        levels *below* are reduced up, and their product scatters into the
        output at the target level's node ids.  Work still benefits from
        fiber compression at each level; storage is a single tree instead of
        SPLATT-allmode's N trees.
        """
        ndim = self.ndim
        if not 0 <= level < ndim:
            raise ValueError(f"level must be in [0, {ndim - 1}], got {level}")
        if level == 0:
            return self.mttkrp_root(factors)
        target_mode = self.mode_order[level]
        rank = factors[0].shape[1]
        out = np.zeros((self.shape[target_mode], rank), dtype=VALUE_DTYPE)
        if self.nnz == 0:
            perf.record(mttkrps=1)
            return out

        # Top partial: product of factor rows for levels 0..level-1,
        # expressed per level-(level) node.
        top = factors[self.mode_order[0]][self.fids[0]]
        flops = self._node_counts[0] * rank
        words = 2 * self._node_counts[0] * rank
        for l in range(1, level):
            top = self._expand(top, l - 1)
            top = top * factors[self.mode_order[l]][self.fids[l]]
            flops += self._node_counts[l] * rank
            words += 3 * self._node_counts[l] * rank
        top = self._expand(top, level - 1)  # rows: level-`level` nodes

        # Bottom partial: reduce leaf values up to level `level`, multiplying
        # each intermediate level's factor rows on the way.
        if level == ndim - 1:
            bottom = self.vals[:, None]
        else:
            leaf_mode = self.mode_order[ndim - 1]
            bottom = self.vals[:, None] * (
                factors[leaf_mode][self._leaf_idx[:, ndim - 1]]
            )
            flops += self.nnz * rank
            words += 2 * self.nnz * rank
            for l in range(ndim - 2, level, -1):
                bottom = np.add.reduceat(bottom, self.ptrs[l][:-1], axis=0)
                bottom = bottom * factors[self.mode_order[l]][self.fids[l]]
                flops += (self._node_counts[l + 1] + self._node_counts[l]) * rank
                words += (self._node_counts[l + 1] + 3 * self._node_counts[l]) * rank
            # Collapse the children of each target-level node.
            bottom = np.add.reduceat(bottom, self.ptrs[level][:-1], axis=0)
            flops += self._node_counts[level + 1] * rank
            words += (self._node_counts[level + 1] + self._node_counts[level]) * rank

        contrib = top * bottom  # rows: level-`level` nodes
        np.add.at(out, self.fids[level], contrib)
        flops += 2 * self._node_counts[level] * rank
        words += 3 * self._node_counts[level] * rank
        perf.record(
            mttkrps=1, contractions=ndim - 1, flops=flops, words=words
        )
        return out

    def __repr__(self) -> str:
        return (
            f"CsfTensor(mode_order={self.mode_order}, nnz={self.nnz}, "
            f"node_counts={self._node_counts})"
        )


def default_mode_order(root_mode: int, ndim: int) -> tuple[int, ...]:
    """Root mode first, remaining modes in natural order."""
    return (root_mode,) + tuple(m for m in range(ndim) if m != root_mode)
