"""FROSTT ``.tns`` text format: read/write sparse tensors.

The FROSTT interchange format is one nonzero per line — ``N`` 1-based
coordinates followed by the value — with ``#`` (or ``%``) comment lines.
``.gz`` paths are transparently (de)compressed.  Coordinates are read as
64-bit integers: a coordinate that is not one (``2.5``, ``1e20``) is an
error that names its line.
"""

from __future__ import annotations

import gzip
import io
import os
from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import INDEX_DTYPE, VALUE_DTYPE
from ..core.validate import (check_index_columns, check_max_in_bounds,
                             check_shape)


def _open(path, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _has_percent(path) -> bool:
    """True if the file (decompressed) contains a ``%`` byte anywhere.

    Streams fixed-size binary blocks, so it never holds the whole text.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        while block := fh.read(1 << 20):
            if b"%" in block:
                return True
    return False


def _first_row_fields(path) -> int | None:
    """Field count of the first data line (``None`` if there is none)."""
    with _open(path, "r") as fh:
        for line in fh:
            fields = line.split("#", 1)[0].split()
            if fields:
                return len(fields)
    return None


def _load(path, comments, dtype, ndmin: int) -> np.ndarray | None:
    """``np.loadtxt`` of the whole file; None when it rejects the text."""
    import warnings

    with _open(path, "r") as fh:
        try:
            with warnings.catch_warnings():
                # An all-comment file is a legitimate empty tensor.
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(fh, comments=comments, ndmin=ndmin,
                                  dtype=dtype)
        except ValueError:
            return None


def _line_of_row(path, comments, row: int) -> int:
    """1-based line number of the ``row``-th (0-based) data line."""
    with _open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            for marker in comments:
                line = line.split(marker, 1)[0]
            if line.strip():
                if row == 0:
                    return lineno
                row -= 1
    raise AssertionError("row beyond the end of the file")


def _read_rows(path) -> tuple[np.ndarray, np.ndarray] | None:
    """The 1-based coordinates (``nnz x N`` int64) and values of a ``.tns``
    file; None if it has no data lines.

    Fast path: one ``np.loadtxt`` over the whole file with a structured
    dtype, ``N`` int64 coordinates and a float64 value per line, so the
    coordinates are parsed as integers (exact beyond 2**53) in the same C
    pass.  Files containing a ``%`` (found by a streaming byte scan) and
    files the integer parse rejects are parsed as floats instead: a list of
    comment markers sends every line through a Python callback, a single
    one keeps the parse in C.  A coordinate that is not a 64-bit integer
    is an error on either path.  On a shape mismatch (ragged rows) we
    re-parse line by line to raise an error that names the offending line.
    """
    comments = ["#", "%"] if _has_percent(path) else "#"
    width = None if comments != "#" else _first_row_fields(path)
    if width is not None and width >= 2:
        data = _load(path, comments, np.dtype([
            ("idx", INDEX_DTYPE, (width - 1,)), ("val", VALUE_DTYPE)]), 1)
        if data is not None:
            return data["idx"], data["val"]
    data = _load(path, comments, np.float64, 2)
    if data is None:
        data = _parse_lines(path)
    if data is None or not data.size:
        return None
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need >= 1 coordinate column + a value")
    coords = data[:, :-1]
    with np.errstate(invalid="ignore"):
        # NaN and inf have a NaN remainder
        bad = (np.mod(coords, 1.0) != 0) | (np.abs(coords) >= 2.0**63)
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{path}:{_line_of_row(path, comments, row)}: coordinate "
            f"{float(coords[row, col])!r} is not a 64-bit integer")
    return coords.astype(INDEX_DTYPE), data[:, -1]


def _parse_lines(path) -> np.ndarray | None:
    """Line-by-line float parse, for the diagnostics ``np.loadtxt`` lacks:
    a ragged or unparsable line raises an error that names it."""
    ncols: int | None = None
    rows: list[list[float]] = []
    with _open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if ncols is None:
                ncols = len(parts)
            elif len(parts) != ncols:
                raise ValueError(
                    f"{path}:{lineno}: expected {ncols} fields, got "
                    f"{len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        return None
    return np.asarray(rows, dtype=np.float64)


def read_tns(path, *, shape: Sequence[int] | None = None) -> CooTensor:
    """Read a ``.tns``/``.tns.gz`` file.

    ``shape`` overrides the inferred mode sizes (which default to the
    per-mode maximum coordinate).
    """
    rows = _read_rows(path)
    if rows is None:
        if shape is None:
            raise ValueError(f"{path}: empty tensor file and no shape given")
        return CooTensor.empty(shape)
    idx = rows[0] - 1  # 1-based on disk
    vals = rows[1].astype(VALUE_DTYPE)
    columns = [idx[:, j] for j in range(idx.shape[1])]
    if any(col.min() < 0 for col in columns):
        raise ValueError(f"{path}: coordinates must be 1-based positive")
    maxima = [int(col.max()) for col in columns]
    if shape is None:
        shape = tuple(hi + 1 for hi in maxima)
    else:
        shape = check_shape(shape)
        check_index_columns(idx, shape)
        check_max_in_bounds(maxima, shape)
    # every coordinate is now known to be in bounds: no second scan
    return CooTensor._from_bounded(idx, vals, shape)


def write_tns(tensor: CooTensor, path) -> None:
    """Write a tensor in FROSTT format (1-based coordinates)."""
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with _open(path, "w") as fh:
        fh.write(f"# shape: {' '.join(map(str, tensor.shape))}\n")
        buf = io.StringIO()
        one_based = tensor.idx + 1
        for row, val in zip(one_based, tensor.vals.tolist()):
            buf.write(" ".join(map(str, row.tolist())))
            # repr of a Python float round-trips exactly.
            buf.write(f" {val!r}\n")
        fh.write(buf.getvalue())
