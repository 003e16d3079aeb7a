"""Coordinate-format (COO) sparse tensors.

``CooTensor`` is the library's canonical input representation: an ``nnz x N``
coordinate block plus an ``nnz`` value vector, kept in *canonical form*
(lexicographically sorted coordinates, duplicates summed, explicit zeros
allowed).  Canonical form makes structural equality, matricization, and the
symbolic contraction phase deterministic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import rowcodes
from .dtypes import (INDEX_DTYPE, INDEX_ITEMSIZE, VALUE_DTYPE, VALUE_ITEMSIZE,
                     as_index_array, as_value_array)
from .partition import contiguous_chunks
from .segreduce import SegmentPlan
from .validate import (check_finite_values, check_index_columns,
                       check_indices_in_bounds, check_mode, check_shape)


class _BoundedShape(tuple):
    """Mode sizes every coordinate has already been checked against, so
    :class:`CooTensor` skips its own bounds scan."""


class CooTensor:
    """An order-``N`` sparse tensor in coordinate format.

    Parameters
    ----------
    idx:
        ``nnz x N`` integer coordinate array.
    vals:
        length-``nnz`` value vector; NaN or infinite entries raise
        ``ValueError``.
    shape:
        mode sizes.
    canonical:
        if True, the caller guarantees ``idx`` is lexicographically sorted
        with no duplicate rows; validation of that claim is skipped.
    copy:
        copy the input arrays (default) rather than aliasing them.
    """

    __slots__ = ("idx", "vals", "shape", "_norm_cache")

    def __init__(self, idx, vals, shape, *, canonical: bool = False,
                 copy: bool = True):
        bounded = isinstance(shape, _BoundedShape)
        shape = check_shape(shape)
        idx = as_index_array(idx, copy=copy)
        vals = as_value_array(vals, copy=copy)
        if idx.ndim == 1:
            idx = idx.reshape(-1, len(shape)) if idx.size else idx.reshape(0, len(shape))
        if vals.ndim != 1:
            raise ValueError(f"vals must be 1-D, got ndim={vals.ndim}")
        if idx.shape[0] != vals.shape[0]:
            raise ValueError(
                f"idx has {idx.shape[0]} rows but vals has {vals.shape[0]} entries"
            )
        if bounded:
            check_index_columns(idx, shape)
        else:
            check_indices_in_bounds(idx, shape)
        check_finite_values(vals, idx)
        self.shape = shape
        if canonical:
            self.idx, self.vals = idx, vals
        else:
            self.idx, self.vals = _canonicalize(idx, vals, shape)
        self._norm_cache: float | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_bounded(cls, idx, vals, shape) -> "CooTensor":
        """Canonicalize ``idx`` and ``vals`` without copying them or
        rescanning the coordinates: the caller has checked every column
        against ``shape`` (:func:`repro.io.frostt.read_tns` takes each
        column's minimum and maximum anyway)."""
        return cls(idx, vals, _BoundedShape(shape), copy=False)

    @classmethod
    def empty(cls, shape) -> "CooTensor":
        """An all-zero tensor of the given shape."""
        shape = check_shape(shape)
        return cls(
            np.zeros((0, len(shape)), dtype=INDEX_DTYPE),
            np.zeros(0, dtype=VALUE_DTYPE),
            shape,
            canonical=True,
            copy=False,
        )

    @classmethod
    def from_dense(cls, array, *, tol: float = 0.0) -> "CooTensor":
        """Build from a dense ndarray, keeping entries with ``|x| > tol``."""
        array = np.asarray(array, dtype=VALUE_DTYPE)
        mask = np.abs(array) > tol
        idx = np.argwhere(mask).astype(INDEX_DTYPE)
        vals = array[mask].astype(VALUE_DTYPE)
        return cls(idx, vals, array.shape, canonical=True, copy=False)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Tensor order (number of modes)."""
        return len(self.shape)

    order = ndim

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.vals.shape[0])

    @property
    def density(self) -> float:
        """nnz divided by the number of cells (may underflow to 0.0)."""
        total = 1.0
        for s in self.shape:
            total *= float(s)
        return self.nnz / total

    def nbytes(self) -> int:
        """Memory held by the coordinate and value arrays."""
        return int(self.idx.nbytes + self.vals.nbytes)

    def __repr__(self) -> str:
        return (
            f"CooTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (small tensors only)."""
        total = 1
        for s in self.shape:
            total *= s
        if total > 50_000_000:
            raise MemoryError(
                f"refusing to densify a tensor with {total} cells"
            )
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        if self.nnz:
            np.add.at(out, tuple(self.idx.T), self.vals)
        return out

    def matricize(self, mode: int):
        """Mode-``n`` matricization as a ``scipy.sparse.csr_matrix``.

        Row ``i`` collects the mode-``n`` slice ``i``; columns enumerate the
        remaining modes in increasing mode order, row-major.
        """
        from scipy import sparse

        mode = check_mode(mode, self.ndim)
        rest = [m for m in range(self.ndim) if m != mode]
        rest_dims = [self.shape[m] for m in rest]
        ncols = 1
        for d in rest_dims:
            ncols *= d
        if not rowcodes.fits_int64(rest_dims):
            raise OverflowError("matricized column space exceeds int64")
        cols = rowcodes.encode_rows(self.idx[:, rest], rest_dims)
        rows = self.idx[:, mode]
        mat = sparse.coo_matrix(
            (self.vals, (rows, cols)), shape=(self.shape[mode], ncols)
        )
        return mat.tocsr()

    # ------------------------------------------------------------------
    # numeric queries
    # ------------------------------------------------------------------
    def norm(self) -> float:
        """Frobenius norm; cached (entries are immutable by convention)."""
        if self._norm_cache is None:
            self._norm_cache = float(np.sqrt(np.dot(self.vals, self.vals)))
        return self._norm_cache

    def values_at(self, coords: np.ndarray) -> np.ndarray:
        """Stored values at each coordinate row of ``coords`` (0 if absent)."""
        coords = as_index_array(coords)
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ValueError("coords must be q x N")
        check_indices_in_bounds(coords, self.shape)
        if self.nnz == 0 or coords.shape[0] == 0:
            return np.zeros(coords.shape[0], dtype=VALUE_DTYPE)
        if rowcodes.fits_int64(self.shape):
            keys = rowcodes.encode_rows(self.idx, self.shape)
            queries = rowcodes.encode_rows(coords, self.shape)
            pos = np.searchsorted(keys, queries)
            pos = np.minimum(pos, keys.shape[0] - 1)
            hit = keys[pos] == queries
            out = np.zeros(coords.shape[0], dtype=VALUE_DTYPE)
            out[hit] = self.vals[pos[hit]]
            return out
        # Rare huge-key-space fallback: dictionary lookup.
        table = {tuple(row): v for row, v in zip(self.idx.tolist(), self.vals)}
        return np.array(
            [table.get(tuple(row), 0.0) for row in coords.tolist()],
            dtype=VALUE_DTYPE,
        )

    def slice_nnz(self, mode: int) -> np.ndarray:
        """Per-slice nonzero counts along ``mode`` (length ``shape[mode]``)."""
        mode = check_mode(mode, self.ndim)
        return np.bincount(self.idx[:, mode], minlength=self.shape[mode]).astype(
            INDEX_DTYPE
        )

    def mode_plan(self, mode: int) -> SegmentPlan:
        """Segment plan grouping nonzeros by their mode-``n`` index."""
        mode = check_mode(mode, self.ndim)
        return SegmentPlan(self.idx[:, mode])

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def permute_modes(self, perm: Sequence[int]) -> "CooTensor":
        """Reorder modes; returns a new canonical tensor."""
        perm = list(perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"perm must be a permutation of 0..{self.ndim - 1}")
        new_shape = tuple(self.shape[p] for p in perm)
        return CooTensor(self.idx[:, perm], self.vals, new_shape, copy=False)

    def remove_empty_slices(self) -> tuple["CooTensor", list[np.ndarray]]:
        """Compact each mode to its used indices.

        Returns ``(compacted, maps)`` where ``maps[n]`` lists, for each new
        index along mode ``n``, the original index it came from.  Empty-slice
        removal is the standard preprocessing step before building
        memoization structures (leaf index arrays become dense ranges).
        """
        maps: list[np.ndarray] = []
        new_idx = self.idx.copy()
        new_shape = []
        for n in range(self.ndim):
            used, inverse = np.unique(self.idx[:, n], return_inverse=True)
            maps.append(used.astype(INDEX_DTYPE))
            if self.nnz:
                new_idx[:, n] = inverse
            new_shape.append(max(int(used.shape[0]), 1))
        compacted = CooTensor(
            new_idx, self.vals, tuple(new_shape), canonical=True, copy=False
        )
        return compacted, maps

    def scale(self, alpha: float) -> "CooTensor":
        """Return ``alpha * self`` (same sparsity pattern)."""
        return CooTensor(
            self.idx, self.vals * float(alpha), self.shape,
            canonical=True, copy=False,
        )

    def split_nonzeros(self, n_parts: int) -> list["CooTensor"]:
        """Partition nonzeros into ``n_parts`` contiguous chunks.

        The chunks sum (as tensors) to ``self`` — the distributive-TTV
        property that underlies nonzero-parallel MTTKRP.
        """
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        parts = []
        for lo, hi in contiguous_chunks(self.nnz, n_parts):
            parts.append(
                CooTensor(
                    self.idx[lo:hi], self.vals[lo:hi], self.shape,
                    canonical=True, copy=True,
                )
            )
        return parts

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def allclose(self, other: "CooTensor", *, rtol: float = 1e-12,
                 atol: float = 1e-12) -> bool:
        """Numeric equality as tensors (patterns may differ by zeros)."""
        if not isinstance(other, CooTensor) or self.shape != other.shape:
            return False
        diff = self - other
        scale = max(self.norm(), other.norm(), 1.0)
        if diff.nnz == 0:
            return True
        return bool(np.abs(diff.vals).max() <= atol + rtol * scale)

    def __add__(self, other: "CooTensor") -> "CooTensor":
        if not isinstance(other, CooTensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        idx = np.concatenate([self.idx, other.idx], axis=0)
        vals = np.concatenate([self.vals, other.vals])
        return CooTensor(idx, vals, self.shape, copy=False)

    def __sub__(self, other: "CooTensor") -> "CooTensor":
        if not isinstance(other, CooTensor):
            return NotImplemented
        return self + other.scale(-1.0)


def _canonicalize(idx: np.ndarray, vals: np.ndarray, shape) -> tuple:
    """Sort lexicographically and merge duplicate coordinates (summing)."""
    m = idx.shape[0]
    if m == 0:
        return idx, vals
    order, starts = rowcodes.stable_groups(idx, shape)
    if starts.shape[0] == m:
        # No duplicates: the stable order carries rows and values.
        if order is None:
            return idx, vals
        return np.take(idx, order, axis=0), np.take(vals, order)
    # Duplicates are summed by ``bincount`` over each row's group id, in
    # input order, so the sums do not depend on the sort.
    group = np.zeros(m, dtype=np.intp)
    group[starts[1:]] = 1
    np.cumsum(group, out=group)
    if order is not None:
        inverse = np.empty_like(group)
        inverse[order] = group
        group = inverse
        starts = np.take(order, starts)
    summed = np.bincount(group, weights=vals, minlength=starts.shape[0])
    return (
        np.take(idx, starts, axis=0),
        summed.astype(VALUE_DTYPE, copy=False),
    )


def coo_nbytes(nnz: int, ndim: int) -> int:
    """Memory footprint of an ``nnz`` x ``ndim`` COO block (model helper)."""
    return nnz * (ndim * INDEX_ITEMSIZE + VALUE_ITEMSIZE)
