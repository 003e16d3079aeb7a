"""Input-validation helpers shared by public entry points.

All validators raise ``ValueError``/``TypeError`` with messages that name the
offending argument, so that errors surfacing from deep inside CP-ALS point
back at the user-facing parameter.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def check_positive_int(value, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_shape(shape, name: str = "shape") -> tuple[int, ...]:
    """Validate a tensor shape: a non-empty sequence of positive ints."""
    try:
        shape = tuple(int(s) for s in shape)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a sequence of integers") from exc
    if len(shape) == 0:
        raise ValueError(f"{name} must have at least one mode")
    for i, s in enumerate(shape):
        if s < 1:
            raise ValueError(f"{name}[{i}] must be >= 1, got {s}")
    return shape


def check_mode(mode, ndim: int, name: str = "mode") -> int:
    """Validate a mode index against ``ndim``; negative modes wrap."""
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(mode).__name__}")
    mode = int(mode)
    if mode < 0:
        mode += ndim
    if not 0 <= mode < ndim:
        raise ValueError(f"{name} out of range for an order-{ndim} tensor: {mode}")
    return mode


def check_index_columns(idx: np.ndarray, shape: Sequence[int]) -> None:
    """Validate that a coordinate array is ``nnz x N`` for an order-``N``
    ``shape``."""
    if idx.ndim != 2:
        raise ValueError(f"coordinate array must be 2-D, got ndim={idx.ndim}")
    if idx.shape[1] != len(shape):
        raise ValueError(
            f"coordinate array has {idx.shape[1]} columns but shape has "
            f"{len(shape)} modes"
        )


def check_max_in_bounds(maxima: Iterable[int], shape: Sequence[int]) -> None:
    """Validate each mode's largest coordinate ``maxima[mode]`` against
    ``shape`` (an iterable, so the maxima may be computed lazily)."""
    for mode, hi in enumerate(maxima):
        hi = int(hi)
        if hi >= shape[mode]:
            raise ValueError(
                f"index {hi} out of bounds for mode {mode} of size "
                f"{shape[mode]}"
            )


def check_indices_in_bounds(idx: np.ndarray, shape: Sequence[int]) -> None:
    """Validate an ``nnz x N`` coordinate array against ``shape``."""
    check_index_columns(idx, shape)
    if idx.shape[0] == 0:
        return
    # One column at a time: a reduction over axis 0 of a C-ordered block
    # is several times slower than the same reductions column by column.
    columns = [idx[:, j] for j in range(idx.shape[1])]
    for mode, col in enumerate(columns):
        if col.min() < 0:
            raise ValueError(f"negative index in mode {mode}")
    check_max_in_bounds((col.max() for col in columns), shape)


def check_finite_values(vals: np.ndarray, idx: np.ndarray) -> None:
    """Reject NaN or infinite entries of ``vals`` (``idx`` locates them)."""
    finite = np.isfinite(vals)
    if finite.all():
        return
    bad = np.flatnonzero(~finite)
    first = int(bad[0])
    raise ValueError(
        f"vals has {bad.size} non-finite entries (NaN or inf); the first, "
        f"{vals[first]}, is at index {tuple(int(i) for i in idx[first])}"
    )


def check_factor_matrices(
    factors: Sequence[np.ndarray], shape: Sequence[int], rank: int | None = None
) -> int:
    """Validate a list of factor matrices against a tensor shape.

    Returns the common rank (number of columns).
    """
    if len(factors) != len(shape):
        raise ValueError(
            f"expected {len(shape)} factor matrices, got {len(factors)}"
        )
    ranks = set()
    for n, (U, dim) in enumerate(zip(factors, shape)):
        U = np.asarray(U)
        if U.ndim != 2:
            raise ValueError(f"factors[{n}] must be 2-D, got ndim={U.ndim}")
        if U.shape[0] != dim:
            raise ValueError(
                f"factors[{n}] has {U.shape[0]} rows but mode {n} has size {dim}"
            )
        ranks.add(U.shape[1])
    if len(ranks) != 1:
        raise ValueError(f"factor matrices have inconsistent ranks: {sorted(ranks)}")
    found = ranks.pop()
    if rank is not None and found != rank:
        raise ValueError(f"factor matrices have rank {found}, expected {rank}")
    return found


def check_random_state(random_state) -> np.random.Generator:
    """Coerce ``random_state`` (None, seed, or Generator) to a Generator."""
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(random_state)
    if isinstance(random_state, np.random.Generator):
        return random_state
    raise TypeError(
        "random_state must be None, an int seed, or a numpy Generator; got "
        f"{type(random_state).__name__}"
    )
