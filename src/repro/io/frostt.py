"""FROSTT ``.tns`` text format: read/write sparse tensors.

The FROSTT interchange format is one nonzero per line — ``N`` 1-based
coordinates followed by the value — with ``#`` (or ``%``) comment lines.
``.gz`` paths are transparently (de)compressed.
"""

from __future__ import annotations

import gzip
import io
import os
from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import INDEX_DTYPE, VALUE_DTYPE


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


def _read_rows(path) -> np.ndarray | None:
    """Parse the numeric rows of a ``.tns`` file; None if there are none.

    Fast path: one ``np.loadtxt`` over the whole file.  ``#`` is its only
    comment marker unless the file contains a ``%`` (found by a streaming
    byte scan): a list of markers sends every line through a Python
    callback, a single one keeps the parse in C.  On a shape mismatch
    (ragged rows) we re-parse line by line to raise an error that names
    the offending line.
    """
    import warnings

    comments = ["#", "%"] if _has_percent(path) else "#"
    with _open(path, "r") as fh:
        try:
            with warnings.catch_warnings():
                # An all-comment file is a legitimate empty tensor.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, comments=comments, ndmin=2,
                                  dtype=np.float64)
        except ValueError:
            data = None
    if data is not None:
        return data if data.size else None
    # Slow path, for diagnostics only.
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
    data = _read_rows(path)
    if data is None:
        if shape is None:
            raise ValueError(f"{path}: empty tensor file and no shape given")
        return CooTensor.empty(shape)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need >= 1 coordinate column + a value")
    idx = data[:, :-1].astype(INDEX_DTYPE) - 1  # 1-based on disk
    vals = data[:, -1].astype(VALUE_DTYPE)
    if (idx < 0).any():
        raise ValueError(f"{path}: coordinates must be 1-based positive")
    if shape is None:
        shape = tuple(int(m) + 1 for m in idx.max(axis=0))
    return CooTensor(idx, vals, shape, copy=False)


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
