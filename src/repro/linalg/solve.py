"""Normal-equation solves for the CP-ALS factor update.

The update is ``U^(n) = M^(n) H^(n)+`` where ``H^(n)`` is an ``R x R``
Hadamard product of Gram matrices — symmetric positive *semi*-definite, and
frequently ill-conditioned near convergence.  We solve via Cholesky when the
matrix is comfortably positive definite and fall back to a truncated
eigendecomposition pseudoinverse otherwise (matching the reference CP-ALS
behaviour of Tensor Toolbox).

The Cholesky branch calls LAPACK ``dpotrf`` / ``dpotrs`` through SciPy's
own f2py wrapper module, ``scipy/linalg/_flapack``, loaded by file location
so that ``scipy/linalg/__init__.py`` — and the array-API, ``numpy.f2py`` and
``numpy.testing`` imports it drags in — never runs on a decomposition.  The
calls are the ones ``cho_factor`` / ``cho_solve(check_finite=False)`` make,
so the factors are the same bits.  Where the extension cannot be loaded,
or an input is not float64, ``scipy.linalg`` serves the solve as before.

The fallback reports itself to the perf counters (``pinv_fallbacks`` /
``truncated_eigenvalues``), the numerical-health collector
(:mod:`repro.obs.health`) and the structured event log, attributed to the
(iteration, mode) solve site the cp_als loop registered with
:func:`set_solve_site`.  The observability imports stay off the happy
path: the Cholesky branch touches nothing beyond NumPy and LAPACK.
"""

from __future__ import annotations

import contextvars
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

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
        return _cholesky_solve(M, H)
    except (np.linalg.LinAlgError, ValueError):
        pinv, n_truncated = psd_pinv_diagnosed(H)
        _note_pinv_fallback(H.shape[0], n_truncated)
        # One vector-matrix product per row.  A single GEMM over all rows
        # is not row-separable: OpenBLAS sends a one-row product to GEMV
        # and gives edge rows their own kernels, and both round differently.
        return np.matmul(M[:, None, :], pinv)[:, 0, :]


def _load_flapack():
    """SciPy's ``_flapack`` extension, without ``scipy.linalg``, or None.

    The module is loaded under its own name, so a later ``import
    scipy.linalg`` finds the same initialised extension.  The loader's
    ``sys.modules`` entry is dropped again: a submodule whose package was
    never imported would confuse that later import.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    for root in scipy_spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            try:
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                return None
            finally:
                sys.modules.pop(name, None)
            has_both = hasattr(module, "dpotrf") and hasattr(module, "dpotrs")
            return module if has_both else None
    return None


_flapack = _load_flapack()


def _cholesky_solve(M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``cho_solve(cho_factor(H), M.T).T``, unchecked, as SciPy computes it.

    Raises ``LinAlgError`` when ``H`` is not positive definite and
    ``ValueError`` when LAPACK rejects an argument, as SciPy does.
    """
    if (_flapack is None or H.dtype != np.float64 or M.dtype != np.float64
            or H.ndim != 2 or M.ndim != 2 or H.size == 0):
        from scipy import linalg as sla

        c, low = sla.cho_factor(H, check_finite=False)
        return sla.cho_solve((c, low), M.T, check_finite=False).T
    c, info = _flapack.dpotrf(H, lower=0, overwrite_a=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if M.size == 0:
        return np.empty_like(M)
    x, info = _flapack.dpotrs(c, M.T, lower=0, overwrite_b=0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x.T


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
