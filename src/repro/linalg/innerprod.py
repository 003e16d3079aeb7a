"""Inner products between sparse tensors and Kruskal (CP) models.

The CP-ALS convergence check needs ``<X, [[lambda; U1..UN]]>`` every
iteration.  Computing it from scratch costs an MTTKRP; instead we use the
standard trick of reusing the *last* MTTKRP of the iteration, which reduces
the inner product to an ``R``-length dot with the just-updated factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .khatri_rao import khatri_rao_rows

if TYPE_CHECKING:
    from ..core.coo import CooTensor


def sparse_kruskal_innerprod(
    tensor: CooTensor,
    weights: np.ndarray,
    factors: Sequence[np.ndarray],
) -> float:
    """Exact ``<X, [[lambda; U1..UN]]>`` evaluated over X's nonzeros."""
    if len(factors) != tensor.ndim:
        raise ValueError(
            f"expected {tensor.ndim} factors, got {len(factors)}"
        )
    if tensor.nnz == 0:
        return 0.0
    rows = [tensor.idx[:, n] for n in range(tensor.ndim)]
    prod = khatri_rao_rows(list(factors), rows)  # nnz x R
    per_component = tensor.vals @ prod  # length R
    return float(per_component @ np.asarray(weights))


def innerprod_from_mttkrp(
    M_last: np.ndarray, U_last: np.ndarray, weights: np.ndarray
) -> float:
    """``<X, model>`` from the final-mode MTTKRP ``M_last`` of an iteration.

    ``<X, [[lambda; U..]]> = sum_r lambda_r <M^(N)(:, r), U^(N)(:, r)>`` —
    valid whenever ``M_last`` was computed with the *current* values of all
    other factors, which is exactly the state at the end of a CP-ALS
    iteration's last sub-iteration.
    """
    per_component = np.einsum("ir,ir->r", M_last, U_last)
    return float(per_component @ np.asarray(weights))
