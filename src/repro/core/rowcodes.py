"""Row-encoding utilities: map multi-column integer rows to scalar keys.

Grouping identical coordinate tuples is the backbone of tensor
canonicalization, the symbolic contraction phase and the planner's distinct
counts.  Every grouping and count here is one sort of mixed-radix ``int64``
keys followed by a pass that marks where neighbouring keys differ.  When the
product of the mode sizes fits in ``int64`` each row is one key; otherwise
consecutive columns are packed into the few keys that each fit, and the rows
are ``lexsort``-ed over those.  A key compares like the columns it packs, so
either way the groups come out in lexicographic row order.

:func:`stable_groups` also returns the *stable* order of the rows, the
order a segmented sum reads them in.  It gets both from one sort: the key
``key * m + position`` orders like the pair ``(key, position)`` and no two
are equal, so any sort of it is stable, and its quotient and remainder by
``m`` are the sorted key and the source row (as in ALTO's one linearized
key per nonzero).

The sort never goes through ``np.unique``: without ``return_*`` flags it
hashes, and on ``axis=0`` it sorts a void dtype, both far slower than a sort
of ``int64`` keys.
"""

from __future__ import annotations

import numpy as np

from .dtypes import INDEX_DTYPE

#: Largest mixed-radix product for which scalar encoding is safe.
_MAX_CODE = np.iinfo(np.int64).max


def fits_int64(dims) -> bool:
    """True if the mixed-radix encoding of ``dims`` fits in a signed int64."""
    prod = 1
    for d in dims:
        prod *= int(d)
        if prod > _MAX_CODE:
            return False
    return True


def encode_rows(idx: np.ndarray, dims) -> np.ndarray:
    """Encode each row of ``idx`` (``m x k``) as a scalar int64 key.

    The encoding is the mixed-radix number with digit ``idx[:, j]`` and radix
    ``dims[j]`` — row-major, so scalar-key order equals lexicographic row
    order.  Raises ``OverflowError`` when the key space exceeds int64; callers
    should check :func:`fits_int64` first or catch and fall back to
    :func:`lexsort_rows`.
    """
    dims = [int(d) for d in dims]
    if idx.shape[1] != len(dims):
        raise ValueError(
            f"idx has {idx.shape[1]} columns but dims has {len(dims)} entries"
        )
    if not fits_int64(dims):
        raise OverflowError("mixed-radix key space exceeds int64")
    if idx.shape[1] == 0:
        return np.zeros(idx.shape[0], dtype=INDEX_DTYPE)
    return _encode(_columns(idx), dims)


def _columns(idx: np.ndarray) -> list[np.ndarray]:
    return [idx[:, j] for j in range(idx.shape[1])]


def _encode(columns, dims) -> np.ndarray:
    """Mixed-radix key of each row; the caller guarantees it fits."""
    codes = columns[0].astype(INDEX_DTYPE, copy=True)
    for col, d in zip(columns[1:], dims[1:]):
        codes *= d
        codes += col
    return codes


def _row_keys(idx: np.ndarray, dims) -> list[np.ndarray]:
    """Keys of consecutive column groups of ``idx``, most significant first.

    Each group is as wide as fits in int64, so a key space that fits gives
    one key, and ``[327] * 8`` gives two.
    """
    return _column_keys(_columns(idx), dims)


def _column_keys(columns, dims) -> list[np.ndarray]:
    """:func:`_row_keys` of the matrix whose columns are ``columns``."""
    dims = [int(d) for d in dims]
    keys = []
    start, prod = 0, 1
    for j, d in enumerate(dims):
        if j > start and prod * d > _MAX_CODE:
            keys.append(_encode(columns[start:j], dims[start:j]))
            start, prod = j, 1
        prod *= d
    keys.append(_encode(columns[start:], dims[start:]))
    return keys


def _run_starts(sorted_keys: list[np.ndarray]) -> np.ndarray:
    """Mask of the sorted positions that start a run of equal rows."""
    starts = np.empty(sorted_keys[0].shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[0][1:], sorted_keys[0][:-1], out=starts[1:])
    for key in sorted_keys[1:]:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def lexsort_rows(idx: np.ndarray) -> np.ndarray:
    """Return the permutation sorting rows of ``idx`` lexicographically."""
    if idx.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    if idx.shape[1] == 0:
        return np.arange(idx.shape[0], dtype=np.intp)
    # np.lexsort keys: last key is primary, so reverse the column order.
    return np.lexsort(idx.T[::-1])


def group_rows(idx: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """Group identical rows of ``idx``.

    Returns ``(unique_rows, inverse)`` where ``unique_rows`` is ``u x k`` in
    lexicographic order and ``inverse`` maps each input row to its group id,
    exactly like ``np.unique(idx, axis=0, return_inverse=True)``.  Neither
    depends on how the sort orders equal rows, so an unstable sort is exact.
    """
    m, k = idx.shape
    if m == 0:
        return idx[:0].copy(), np.zeros(0, dtype=np.intp)
    if k == 0:
        return idx[:1].copy(), np.zeros(m, dtype=np.intp)
    keys = _row_keys(idx, dims)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    starts = _run_starts([key[order] for key in keys])
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return np.take(idx, order[starts], axis=0), inverse


def stable_groups(idx: np.ndarray, dims) -> tuple[np.ndarray | None,
                                                  np.ndarray]:
    """Sort the rows of ``idx`` stably and find the runs of equal rows.

    Returns ``(order, starts)``: ``order`` lists the source rows in
    lexicographic row order, equal rows in source order (``None`` when the
    rows already are in that order), and ``starts`` the sorted positions
    where a run of equal rows begins.  The unique rows are
    ``idx[order[starts]]``; ``order`` and ``starts`` are the ``perm`` and
    ``starts`` of ``SegmentPlan(group_rows(idx, dims)[1])``, one sort
    instead of two.
    """
    m, k = idx.shape
    if m == 0:
        return None, np.zeros(0, dtype=np.intp)
    if k == 0:
        return None, np.zeros(1, dtype=np.intp)
    return stable_groups_columns(_columns(idx), dims)


def stable_groups_columns(columns, dims) -> tuple[np.ndarray | None,
                                                 np.ndarray]:
    """:func:`stable_groups` of the matrix whose (one or more, equally
    long) columns are ``columns``."""
    m = columns[0].shape[0]
    if m == 0:
        return None, np.zeros(0, dtype=np.intp)
    keys = _column_keys(columns, dims)
    if _rows_sorted(keys):
        order, sorted_keys = None, keys
    elif len(keys) == 1:
        order, sorted_key = stable_sort(keys[0], _space(dims), m)
        sorted_keys = [sorted_key]
    else:
        order = np.lexsort(keys[::-1])
        sorted_keys = [np.take(key, order) for key in keys]
    return order, np.flatnonzero(_run_starts(sorted_keys))


def _space(dims) -> int:
    """Size of the key space of ``dims``, ``prod(dims)``."""
    space = 1
    for d in dims:
        space *= int(d)
    return space


def _rows_sorted(keys: list[np.ndarray]) -> bool:
    """True if the rows whose keys (most significant first) are ``keys``
    are in lexicographic order."""
    first = keys[0]
    if (first[1:] < first[:-1]).any():
        return False
    tied = first[1:] == first[:-1]
    for key in keys[1:]:
        if (tied & (key[1:] < key[:-1])).any():
            return False
        tied &= key[1:] == key[:-1]
    return True


def stable_sort(key: np.ndarray, space: int,
                m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, key[order])`` for the stable argsort ``order`` of ``key``
    (``m`` values in ``[0, space)``, overwritten), from one sort of ``key *
    m + position``; a stable argsort when that would overflow int64.  The
    sorted keys may come in a narrower unsigned dtype."""
    if space * m - 1 > _MAX_CODE:
        order = np.argsort(key, kind="stable")
        return order, np.take(key, order)
    packed = _narrowed(key, space * m)
    packed *= m
    packed += np.arange(m, dtype=packed.dtype)
    packed.sort()
    sorted_key = packed // m
    packed -= sorted_key * m
    return packed.astype(np.intp, copy=False), sorted_key


def count_distinct_rows(idx: np.ndarray, dims) -> int:
    """Number of distinct rows of ``idx`` (cheaper than :func:`group_rows`)."""
    m, k = idx.shape
    if m == 0:
        return 0
    if k == 0:
        return 1
    return count_distinct_columns(_columns(idx), dims)


def _narrowed(key: np.ndarray, space: int) -> np.ndarray:
    """``key`` (values in ``[0, space)``) in the narrowest unsigned dtype
    of 16 or 32 bits that holds them, else unchanged: a narrower array
    sorts faster, and the cast keeps every value."""
    if space <= 1 << 16:
        return key.astype(np.uint16)
    if space <= 1 << 32:
        return key.astype(np.uint32)
    return key


def count_distinct_columns(columns, dims) -> int:
    """Number of distinct rows of the matrix whose (one or more) columns
    are ``columns``.

    The same count as :func:`count_distinct_rows`, without gathering the
    columns into one matrix: contiguous columns (views of a column-major
    index) encode at streaming speed.
    """
    if columns[0].shape[0] == 0:
        return 0
    keys = _column_keys(columns, dims)
    if len(keys) == 1:
        key = keys[0]
        # A canonical tensor's rows are in lexicographic order, so the key
        # of its leading modes arrives sorted.
        if (key[1:] < key[:-1]).any():
            key = np.sort(_narrowed(key, _space(dims)))
        sorted_keys = [key]
    else:
        order = np.lexsort(keys[::-1])
        sorted_keys = [key[order] for key in keys]
    return int(np.count_nonzero(_run_starts(sorted_keys)))
