"""Optional numba backend: the pipeline fused into one parallel loop.

Importing this module requires numba; :mod:`repro.kernels` imports it inside
a ``try`` and registers the backend as unavailable when the import fails, so
the rest of the library never depends on it.

The fused loop does per segment what the numpy backend does in passes:
gather the delta-mode factor rows, multiply them with the source value, and
accumulate into the output row — one trip through memory, ``prange`` over
segments (disjoint output rows, no atomics).  Within a segment it sums from
``0.0`` left to right.  ``np.add.reduceat`` computes ``x0 + (((x1 + x2) +
x3) ...)`` below 9 rows and sums pairwise from 9, so the two differ from 3
rows up; the association of the factor product differs from the numpy
backend too.  Outputs agree to ``AGREEMENT_RTOL`` rather than bitwise.
"""

from __future__ import annotations

import numba  # noqa: F401  (import failure => backend unavailable)
import numpy as np
from numba import njit, prange
from numba.typed import List as NumbaList

from ..core.dtypes import VALUE_DTYPE
from .backends import KernelBackend, RebuildContext
from .registry import register_kernel


@njit(parallel=True, cache=False)
def _fused_rebuild(gather, factor_list, source_vals, starts, rows, out):
    """gather: (k, m) intp; factor_list: typed list of (I_d, R) float64;
    source_vals: (m,) permuted parent/root values; starts: (u,) intp run
    starts; rows: (u,) intp output row per run; out: (u, R) float64."""
    n_delta = gather.shape[0]
    m = gather.shape[1]
    n_seg = starts.shape[0]
    rank = out.shape[1]
    for s in prange(n_seg):
        lo = starts[s]
        hi = starts[s + 1] if s + 1 < n_seg else m
        row = rows[s]
        for r in range(rank):
            out[row, r] = 0.0
        for i in range(lo, hi):
            v = source_vals[i]
            for r in range(rank):
                acc = v
                for j in range(n_delta):
                    acc *= factor_list[j][gather[j, i], r]
                out[row, r] += acc


@njit(parallel=True, cache=False)
def _gather_rows(matrix, perm, out):
    """out[i] = matrix[perm[i]] — permuted (m, R) gather for parent values."""
    for i in prange(perm.shape[0]):
        out[i] = matrix[perm[i]]


class NumbaKernel(KernelBackend):
    """Fused gather–Hadamard–reduce in one ``prange`` loop per node."""

    name = "numba"
    supports_chunks = False  # prange parallelizes inside the node already

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        ki = ctx.kernel_index()
        out = np.empty((ki.n_segments, ctx.rank), dtype=VALUE_DTYPE)
        if not ki.n_sources:
            return out
        factor_list = NumbaList()
        for d_mode in ki.delta_modes:
            factor_list.append(ctx.factors[d_mode])
        starts, rows = ki.runs()
        if ctx.parent_vals is None:
            source_vals = np.ascontiguousarray(
                ki.root_values(ctx.root_vals), dtype=VALUE_DTYPE
            )
            _fused_rebuild(
                ki.stacked_gather(), factor_list, source_vals, starts, rows,
                out,
            )
        else:
            # Fold the (m, R) parent into the product by treating it as one
            # more "factor" gathered with the permutation itself.
            factor_list.append(np.ascontiguousarray(ctx.parent_vals))
            perm = (ki.perm if ki.perm is not None
                    else np.arange(ki.n_sources, dtype=np.intp))
            gather = np.vstack((ki.stacked_gather(), perm[None, :]))
            ones = np.ones(ki.n_sources, dtype=VALUE_DTYPE)
            _fused_rebuild(np.ascontiguousarray(gather), factor_list, ones,
                           starts, rows, out)
        return out


def _warmup() -> None:  # pragma: no cover - requires numba
    """Compile the jitted kernels on a toy problem (call once, optional)."""
    gather = np.zeros((1, 2), dtype=np.intp)
    factors = NumbaList()
    factors.append(np.ones((1, 2), dtype=VALUE_DTYPE))
    out = np.empty((1, 2), dtype=VALUE_DTYPE)
    _fused_rebuild(gather, factors, np.ones(2, dtype=VALUE_DTYPE),
                   np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), out)


register_kernel("numba", NumbaKernel)
