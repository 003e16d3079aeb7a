"""Canonical dtypes and numeric constants used across the library.

Every COO coordinate array is ``INDEX_DTYPE`` and every value array is
``VALUE_DTYPE``; keeping a single definition avoids silent mixed-dtype
promotions in the hot kernels (gathers, segment reductions) where an
unexpected upcast doubles memory traffic.

The index arrays the symbolic pass keeps for the run (kernel gather
columns, parent-row maps, segment starts, row orders, leaf output rows)
are the exception: each is stored in the narrowest dtype its range fits,
by one rule (:func:`index_dtype`), which the memory model applies too.
"""

from __future__ import annotations

import numpy as np

#: dtype of all nonzero coordinate arrays.
INDEX_DTYPE = np.int64

#: dtype of all nonzero value / factor-matrix arrays.
VALUE_DTYPE = np.float64

#: Bytes per index element (used by the memory model).
INDEX_ITEMSIZE = np.dtype(INDEX_DTYPE).itemsize

#: Bytes per value element (used by the memory model).
VALUE_ITEMSIZE = np.dtype(VALUE_DTYPE).itemsize

#: Largest mode size whose coordinates are kept as ``uint16``.
MAX_UINT16_ROWS = 1 << 16

#: Largest extent whose indices fit ``int32`` (values up to ``2**31 - 1``).
MAX_INT32_EXTENT = 1 << 31

#: Default absolute tolerance when deciding a computed entry is zero.
ZERO_TOL = 0.0

#: Default relative tolerance for floating-point agreement tests between
#: independent MTTKRP implementations.
AGREEMENT_RTOL = 1e-10


def index_dtype(extent: int, *, coordinate: bool = False) -> np.dtype:
    """The dtype a kept index array with values in ``range(extent)`` is
    stored in.

    Mode coordinates (``coordinate=True``, ``extent`` the mode's size) are
    ``uint16`` when the mode has at most 65,536 rows; positions (rows of a
    node, sources of a rebuild) start at ``int32``.  Anything that does not
    fit ``int32`` is ``int64``.  ``np.take`` and fancy indexing accept every
    one of these, so narrowing changes no value and no result.
    """
    extent = int(extent)
    if coordinate and extent <= MAX_UINT16_ROWS:
        return np.dtype(np.uint16)
    if extent <= MAX_INT32_EXTENT:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def as_index_array(a, *, copy: bool = False) -> np.ndarray:
    """Return ``a`` as a C-contiguous ``INDEX_DTYPE`` ndarray.

    ``copy=False`` copies only when dtype/layout conversion requires it.
    """
    if copy:
        return np.array(a, dtype=INDEX_DTYPE, copy=True, order="C")
    return np.ascontiguousarray(a, dtype=INDEX_DTYPE)


def as_value_array(a, *, copy: bool = False) -> np.ndarray:
    """Return ``a`` as a C-contiguous ``VALUE_DTYPE`` ndarray.

    ``copy=False`` copies only when dtype/layout conversion requires it.
    """
    if copy:
        return np.array(a, dtype=VALUE_DTYPE, copy=True, order="C")
    return np.ascontiguousarray(a, dtype=VALUE_DTYPE)
