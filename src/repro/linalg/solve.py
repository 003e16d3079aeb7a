"""Normal-equation solves for the CP-ALS factor update.

The update is ``U^(n) = M^(n) H^(n)+`` where ``H^(n)`` is an ``R x R``
Hadamard product of Gram matrices — symmetric positive *semi*-definite, and
frequently ill-conditioned near convergence.  We solve via Cholesky when the
matrix is comfortably positive definite and fall back to a truncated
eigendecomposition pseudoinverse otherwise (matching the reference CP-ALS
behaviour of Tensor Toolbox).

The fallback used to be completely silent; it now reports itself to the
perf counters (``pinv_fallbacks`` / ``truncated_eigenvalues``), the
numerical-health collector (:mod:`repro.obs.health`), and the structured
event log — attributed to the in-flight (iteration, mode) solve site when
a run context has one.  The observability imports stay off the happy
path: the Cholesky branch touches nothing beyond NumPy/SciPy.
"""

from __future__ import annotations

import contextvars

import numpy as np
from scipy import linalg as sla

from ..perf import counters as _perf

#: Relative eigenvalue cutoff for the pseudoinverse fallback.
PINV_RCOND = 1e-12

#: the in-flight (iteration, mode) a normal-equation solve belongs to —
#: set by the cp_als loop so the fallback telemetry can name its trigger
#: site; (None, None) outside a run.
_site: contextvars.ContextVar[tuple[int | None, int | None]] = \
    contextvars.ContextVar("repro_solve_site", default=(None, None))


def set_solve_site(iteration: int | None, mode: int | None) -> None:
    """Mark the (iteration, mode) the next normal-equation solve serves."""
    _site.set((iteration, mode))


def solve_normal_equations(M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solve ``U H = M`` for ``U`` with SPD-aware fallbacks.

    Parameters
    ----------
    M : ``I x R`` MTTKRP result.
    H : ``R x R`` symmetric PSD coefficient matrix.

    Each row of ``U`` depends on the same row of ``M`` alone, bitwise:
    solving on a subset of rows gives exactly those rows of the full
    solve, and a zero row of ``M`` gives a zero row of ``U``.  The CP-ALS
    driver relies on this to skip the rows of empty slices.
    """
    H = np.asarray(H)
    M = np.asarray(M)
    if H.shape[0] != H.shape[1] or H.shape[0] != M.shape[1]:
        raise ValueError(f"incompatible shapes M{M.shape} H{H.shape}")
    try:
        c, low = sla.cho_factor(H, check_finite=False)
        return sla.cho_solve((c, low), M.T, check_finite=False).T
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError):
        pinv, n_truncated = psd_pinv_diagnosed(H)
        _note_pinv_fallback(H.shape[0], n_truncated)
        # One vector-matrix product per row.  A single GEMM over all rows
        # is not row-separable: OpenBLAS sends a one-row product to GEMV
        # and gives edge rows their own kernels, and both round differently.
        return np.matmul(M[:, None, :], pinv)[:, 0, :]


def psd_pinv(H: np.ndarray, rcond: float = PINV_RCOND) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix via ``eigh``."""
    return psd_pinv_diagnosed(H, rcond)[0]


def psd_pinv_diagnosed(H: np.ndarray,
                       rcond: float = PINV_RCOND
                       ) -> tuple[np.ndarray, int]:
    """:func:`psd_pinv` plus the number of truncated eigenvalues.

    The count is how many eigenvalues fell at or below the relative
    ``rcond`` cutoff and were zeroed in the inverse — the rank deficiency
    the solve proceeded through.
    """
    w, V = np.linalg.eigh((H + H.T) * 0.5)
    cutoff = rcond * max(float(w[-1]), 0.0)
    keep = w > cutoff
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return (V * inv_w) @ V.T, int(w.size - np.count_nonzero(keep))


def _note_pinv_fallback(rank: int, n_truncated: int) -> None:
    """Telemetry for one Cholesky→pinv fallback.

    Counts always land in the active perf counters (a no-op without a
    :func:`repro.perf.counters.counting` block); when the health
    collector or event log is on, the fallback is additionally
    attributed to the in-flight (iteration, mode) site the cp_als loop
    registered with :func:`set_solve_site`.  Lazy imports keep the
    linalg layer observability-free until a fallback actually fires.
    """
    _perf.record(pinv_fallbacks=1, truncated_eigenvalues=n_truncated)
    from ..obs import events as _events
    from ..obs import switch as _switch

    iteration, mode = _site.get()
    if _switch.is_on("health"):
        _switch.get("health").record_fallback(
            n_truncated, mode=mode, iteration=iteration
        )
    if _switch.is_on("events"):
        message = (
            f"normal-equation solve fell back to pseudoinverse "
            f"({n_truncated}/{rank} eigenvalues truncated)"
        )
        if mode is not None:
            message += f" in mode {mode}"
        if iteration is not None:
            message += f" at iteration {iteration}"
        fields: dict = {
            "message": message,
            "metric": "pinv_fallback",
            "n_truncated": n_truncated,
        }
        if iteration is not None:
            fields["iteration"] = iteration
        if mode is not None:
            fields["mode"] = mode
        _events.emit("warning", **fields)
