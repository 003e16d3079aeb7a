"""Shared test helpers: dense reference implementations.

The references here are deliberately naive (dense, loop-based) and
independent of the library's sparse kernels, so agreement tests are
meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.core.coo import CooTensor
from repro.core.cpals import initialize_factors
from repro.core.kruskal import KruskalTensor
from repro.linalg import (GramCache, innerprod_from_mttkrp, normalize_columns,
                          solve_normal_equations)


def dense_mttkrp(dense: np.ndarray, factors, mode: int) -> np.ndarray:
    """Reference MTTKRP on a dense array via successive tensordots."""
    ndim = dense.ndim
    rank = factors[0].shape[1]
    out = np.zeros((dense.shape[mode], rank))
    for r in range(rank):
        t = dense
        # Contract every other mode with its factor column; contracting the
        # highest mode first keeps axis numbering stable.
        for m in sorted((m for m in range(ndim) if m != mode), reverse=True):
            t = np.tensordot(t, factors[m][:, r], axes=([m], [0]))
        out[:, r] = t
    return out


def random_coo(rng, shape, nnz) -> CooTensor:
    """Small random tensor with possibly duplicate coordinate draws."""
    idx = np.column_stack(
        [rng.integers(0, s, size=nnz) for s in shape]
    )
    vals = rng.standard_normal(nnz)
    return CooTensor(idx, vals, shape)


def random_factors(rng, shape, rank):
    return [rng.standard_normal((s, rank)) for s in shape]


def reference_cp_als(tensor: CooTensor, rank: int, engine, n_iter: int,
                     random_state):
    """Full-row CP-ALS: every solve, normalization and fit sees all rows.

    The plain loop ``cp_als`` optimizes, with the same linalg helpers and
    random init, no observers and no convergence test.  Returns
    ``(fits, ktensor)``.
    """
    engine.set_factors(initialize_factors(tensor, rank, "random",
                                          random_state))
    grams = GramCache(engine.factors)
    weights = np.ones(rank)
    norm_x = tensor.norm()
    fits = []
    for iteration in range(n_iter):
        for n in engine.mode_order:
            M = engine.mttkrp(n)
            U = solve_normal_equations(M, grams.combined(skip=n))
            U, norms = normalize_columns(
                U, order=2 if iteration == 0 else "max"
            )
            weights = np.where(norms > 0, norms, 1.0)
            engine.update_factor(n, U)
            grams.update(n, U)
        norm_model_sq = float(weights @ grams.combined() @ weights)
        inner = innerprod_from_mttkrp(M, engine.factors[n], weights)
        if norm_x == 0.0:
            fits.append(1.0 if norm_model_sq == 0.0 else float("-inf"))
        else:
            err_sq = max(norm_x**2 + norm_model_sq - 2.0 * inner, 0.0)
            fits.append(1.0 - float(np.sqrt(err_sq)) / norm_x)
    return fits, KruskalTensor(weights, engine.factors).normalize()
