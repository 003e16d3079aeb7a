"""Segmented-reduction plans: the numeric engine's scatter-add primitive.

Memoized MTTKRP repeatedly sums groups of ``R``-wide value rows into target
rows given a *static* source-to-target mapping (the mapping is fixed by the
tensor's sparsity pattern and the memoization strategy, while the values
change every sub-iteration).  A :class:`SegmentPlan` pays the sort once, at
symbolic time, and turns every subsequent reduction into one gather plus one
``np.add.reduceat`` — both contiguous, vectorized passes.
"""

from __future__ import annotations

import numpy as np

from .dtypes import INDEX_ITEMSIZE, as_index_array

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


class SegmentPlan:
    """Precomputed plan for summing source rows into target groups.

    Parameters
    ----------
    targets:
        Integer array of length ``m`` mapping each source row to a target
        group id.  Group ids need not be contiguous or sorted; the plan's
        output rows follow ascending group-id order.

    Attributes
    ----------
    n_sources: number of source rows ``m``.
    n_segments: number of distinct target groups ``u``.
    group_ids: the ``u`` distinct target ids, ascending.
    """

    __slots__ = ("n_sources", "n_segments", "group_ids", "_perm", "_starts",
                 "_identity", "_perm_identity")

    def __init__(self, targets: np.ndarray):
        targets = as_index_array(targets)
        if targets.ndim != 1:
            raise ValueError(f"targets must be 1-D, got ndim={targets.ndim}")
        m = targets.shape[0]
        self.n_sources = int(m)
        if m == 0:
            self.group_ids = targets[:0]
            self._perm = np.zeros(0, dtype=np.intp)
            self._starts = np.zeros(0, dtype=np.intp)
            self.n_segments = 0
            self._identity = True
            self._perm_identity = True
            return
        # Sorted-input fast path: memoization-tree nodes keep their rows in
        # lexicographic order, so a child projecting onto a *prefix* of the
        # parent's modes sees non-decreasing targets — the gather permutation
        # is the identity and reduce() can skip the fancy-index pass.
        self._perm_identity = not bool((targets[1:] < targets[:-1]).any())
        if self._perm_identity:
            perm = np.arange(m, dtype=np.intp)
            sorted_targets = targets
        else:
            perm, sorted_targets = _stable_order(targets)
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_targets[1:], sorted_targets[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        self.group_ids = sorted_targets[starts]
        self.n_segments = int(starts.shape[0])
        # Identity fast path: every source row its own segment, already in
        # order.  Then reduce() is a no-op view of the input.
        self._identity = self.n_segments == m and self._perm_identity
        self._perm = perm
        self._starts = starts

    @property
    def perm(self) -> np.ndarray:
        """Source permutation bringing rows into segment order."""
        return self._perm

    @property
    def starts(self) -> np.ndarray:
        """Segment start offsets into the permuted source order."""
        return self._starts

    @property
    def is_identity(self) -> bool:
        """True when every source row is its own segment, already in order."""
        return self._identity

    @property
    def has_identity_perm(self) -> bool:
        """True when the sources are already in segment order (no gather)."""
        return self._perm_identity

    def reduce(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sum source ``values`` (``m x R`` or ``m``) into segment rows.

        Returns a ``u x R`` (or length-``u``) array whose ``k``-th row is the
        sum of the source rows mapped to ``group_ids[k]``.
        """
        values = np.asarray(values)
        if values.shape[0] != self.n_sources:
            raise ValueError(
                f"values has {values.shape[0]} rows, plan expects {self.n_sources}"
            )
        if self.n_sources == 0:
            shape = (0,) + values.shape[1:]
            return np.zeros(shape, dtype=values.dtype) if out is None else out
        if self._identity:
            if out is not None:
                out[...] = values
                return out
            return values.copy()
        gathered = values if self._perm_identity else values[self._perm]
        result = np.add.reduceat(gathered, self._starts, axis=0)
        if out is not None:
            out[...] = result
            return out
        return result

    def scatter_into(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Reduce ``values`` and add the segment sums into ``out[group_ids]``.

        ``out`` must be writable with first dimension covering
        ``group_ids.max()``.  Rows of ``out`` not named by any group id are
        left untouched.  Returns ``out``.
        """
        if self.n_sources == 0:
            return out
        reduced = self.reduce(values)
        out[self.group_ids] += reduced
        return out

    def index_nbytes(self) -> int:
        """Bytes held by the plan's index structures (for the memory model)."""
        return int(
            self._perm.nbytes + self._starts.nbytes
            + self.group_ids.shape[0] * INDEX_ITEMSIZE
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SegmentPlan(n_sources={self.n_sources}, "
            f"n_segments={self.n_segments}, identity={self._identity})"
        )


def _stable_order(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, targets[perm])`` where ``perm`` is the stable argsort.

    The key ``targets[i] * m + i`` orders like the pair ``(targets[i], i)``
    and no two keys are equal, so one sort of any kind puts the keys in the
    stable order; the key's quotient and remainder by ``m`` are the sorted
    target and the source row.  A stable argsort is kept for targets whose
    keys would overflow int64.
    """
    m = targets.shape[0]
    lo, hi = int(targets.min()), int(targets.max())
    if lo * m < _INT64_MIN or (hi + 1) * m - 1 > _INT64_MAX:
        perm = np.argsort(targets, kind="stable")
        return perm, targets[perm]
    keys = targets * m
    keys += np.arange(m, dtype=keys.dtype)
    keys.sort()
    sorted_targets, perm = np.divmod(keys, m)
    return perm.astype(np.intp, copy=False), sorted_targets


def segment_sum(values: np.ndarray, targets: np.ndarray, n_targets: int) -> np.ndarray:
    """One-shot dense segmented sum: rows of ``values`` into ``n_targets`` bins.

    Unlike :class:`SegmentPlan` the output has exactly ``n_targets`` rows
    (empty bins are zero).  Used where the mapping is not reused and the
    target space is dense, e.g. scattering leaf values into a factor-shaped
    MTTKRP output.
    """
    values = np.asarray(values)
    targets = np.asarray(targets)
    if values.ndim == 1:
        return np.bincount(targets, weights=values, minlength=n_targets).astype(
            values.dtype, copy=False
        )
    out = np.zeros((n_targets,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, targets, values)
    return out
