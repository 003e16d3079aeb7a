"""Uniform random sparse tensors."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import INDEX_DTYPE, VALUE_DTYPE
from ..core.rowcodes import fits_int64, group_rows
from ..core.validate import check_positive_int, check_random_state, check_shape

#: value samplers by name.
VALUE_DISTRIBUTIONS = ("uniform", "normal", "count")


def sample_values(rng: np.random.Generator, size: int, distribution: str) -> np.ndarray:
    """Draw nonzero values: uniform(0,1], standard normal, or 1+Poisson(2)."""
    if distribution == "uniform":
        # shift off zero so no sampled entry silently disappears.
        return (1.0 - rng.random(size)).astype(VALUE_DTYPE)
    if distribution == "normal":
        v = rng.standard_normal(size).astype(VALUE_DTYPE)
        v[v == 0.0] = 1.0
        return v
    if distribution == "count":
        return (1.0 + rng.poisson(2.0, size)).astype(VALUE_DTYPE)
    raise ValueError(
        f"unknown value distribution {distribution!r}; "
        f"choose from {VALUE_DISTRIBUTIONS}"
    )


def sample_unique_indices(
    shape: Sequence[int],
    nnz: int,
    rng: np.random.Generator,
    mode_sampler: Callable[[int, int], np.ndarray] | None = None,
    *,
    max_rounds: int = 64,
) -> np.ndarray:
    """Sample exactly ``nnz`` distinct coordinate rows.

    ``mode_sampler(mode, size)`` draws ``size`` indices for one mode
    (uniform by default).  Sampling proceeds in oversampled rounds with
    deduplication until the target is met; raises if the tensor cannot hold
    ``nnz`` distinct cells.
    """
    shape = check_shape(shape)
    check_positive_int(nnz, "nnz", minimum=0)
    total_cells = 1.0
    for s in shape:
        total_cells *= float(s)
    if nnz > total_cells:
        raise ValueError(
            f"cannot place {nnz} distinct nonzeros in {total_cells:.0f} cells"
        )
    if mode_sampler is None:
        def mode_sampler(mode: int, size: int) -> np.ndarray:
            return rng.integers(0, shape[mode], size=size, dtype=INDEX_DTYPE)

    collected: np.ndarray | None = None
    need = nnz
    for _ in range(max_rounds):
        if need <= 0:
            break
        draw = max(int(need * 1.25) + 16, 64)
        block = np.empty((draw, len(shape)), dtype=INDEX_DTYPE)
        for m in range(len(shape)):
            block[:, m] = np.minimum(mode_sampler(m, draw), shape[m] - 1)
        if collected is not None:
            block = np.concatenate([collected, block], axis=0)
        unique_rows, _ = group_rows(block, shape)
        collected = unique_rows
        need = nnz - collected.shape[0]
    if collected is None or collected.shape[0] < nnz:
        # Dense fallback for tiny/dense shapes where rejection stalls.
        if fits_int64(shape) and total_cells <= 50_000_000:
            all_codes = rng.permutation(int(total_cells))[:nnz]
            out = np.empty((nnz, len(shape)), dtype=INDEX_DTYPE)
            rem = all_codes.astype(INDEX_DTYPE)
            for m in range(len(shape) - 1, -1, -1):
                out[:, m] = rem % shape[m]
                rem //= shape[m]
            order = np.lexsort(out.T[::-1])
            return np.take(out, order, axis=0)
        raise RuntimeError("failed to sample enough distinct coordinates")
    if collected.shape[0] > nnz:
        keep = np.sort(rng.choice(collected.shape[0], size=nnz, replace=False))
        collected = np.take(collected, keep, axis=0)
    return collected


def uniform_random_tensor(
    shape: Sequence[int],
    nnz: int,
    *,
    random_state=None,
    value_distribution: str = "uniform",
) -> CooTensor:
    """A sparse tensor with ``nnz`` uniformly placed nonzeros."""
    rng = check_random_state(random_state)
    idx = sample_unique_indices(shape, nnz, rng)
    vals = sample_values(rng, idx.shape[0], value_distribution)
    return CooTensor(idx, vals, shape, canonical=False, copy=False)
