"""Column normalization and norm helpers for factor matrices."""

from __future__ import annotations

import numpy as np


def column_norms(U: np.ndarray, order: float | str = 2) -> np.ndarray:
    """Per-column norms of ``U``; ``order`` is 2 (default), 1, or 'max'."""
    if order == 2:
        return np.sqrt(np.einsum("ir,ir->r", U, U))
    if order == 1:
        return np.abs(U).sum(axis=0)
    if order == "max":
        return np.abs(U).max(axis=0) if U.shape[0] else np.zeros(U.shape[1])
    raise ValueError(f"unsupported norm order: {order!r}")


def normalize_columns(
    U: np.ndarray, order: float | str = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize columns of ``U``; returns ``(U_normalized, norms)``.

    Zero columns are left as-is with a reported norm of 0.  The CP-ALS
    driver does not reinitialize such a component: it sets its weight to
    1 and leaves the column zero.
    """
    norms = column_norms(U, order)
    safe = np.where(norms > 0, norms, 1.0)
    return U / safe, norms
