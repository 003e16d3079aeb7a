"""Workloads of the end-to-end benchmark and the generator of their inputs.

The generator uses numpy alone, never ``repro``: a change under test must
not be able to alter its own inputs.  Each input is written once as a FROSTT
``.tns`` file (what the job process reads) plus an ``.npz`` copy of the same
coordinates and values (what the runner's correctness check reads), keyed by
workload, seed, :data:`GENERATOR_VERSION` and the generation parameters.
Generation time is never measured.

This module also holds the correctness check's fit recomputation, which is
likewise written against numpy alone.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

#: Bump when a change to the generator alters the tensors it produces; it is
#: part of every cache key and every result file.
GENERATOR_VERSION = 1

#: Shrink factor for ``--smoke``: nonzeros scale by it, iterations are cut.
SMOKE_NNZ_SCALE = 0.01


@dataclass(frozen=True)
class Workload:
    """One input tensor and the decomposition job run on it.

    ``restarts`` = 0 runs one ``cp_als``; K > 0 runs ``cp_als_restarts``
    with K models.  ``ref_fit`` is the final fit on seed 0, which every
    seed-0 run must reproduce within :data:`REF_FIT_TOL`.  Why each
    workload is in the benchmark is recorded in ``BENCHMARK.json``.
    """

    name: str
    shape: tuple[int, ...]
    nnz: int
    zipf: tuple[float, ...]
    values: str
    rank: int
    iters: int
    restarts: int = 0
    ref_fit: float | None = None

    def smoke(self) -> "Workload":
        """The same job at about 1% of the nonzeros, without a reference.
        Five iterations are the fewest that hold an untraced steady
        iteration between two traced ones."""
        return replace(
            self,
            nnz=max(int(self.nnz * SMOKE_NNZ_SCALE), 200),
            iters=min(self.iters, 5),
            restarts=min(self.restarts, 2),
            ref_fit=None,
        )


#: Seed-0 final fits may differ across BLAS builds in the last digits only.
REF_FIT_TOL = 1e-6

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="als4d",
        shape=(800, 800, 800, 800), nnz=400_000, zipf=(1.1,) * 4,
        values="uniform", rank=16, iters=25, ref_fit=0.033680444860957004,
    ),
    Workload(
        name="nell3d_r64",
        shape=(3650, 2650, 32100), nnz=70_000, zipf=(1.1, 1.1, 1.3),
        values="uniform", rank=64, iters=24, ref_fit=0.17110340445403904,
    ),
    Workload(
        name="plan8d",
        shape=(327,) * 8, nnz=150_000, zipf=(1.1,) * 8,
        values="count", rank=8, iters=24, ref_fit=0.0002674997030283066,
    ),
    Workload(
        name="restarts4d_r8",
        shape=(212, 7071, 2263, 354), nnz=200_000, zipf=(0.4, 1.1, 1.3, 0.5),
        values="uniform", rank=8, iters=12, restarts=6,
        ref_fit=0.00786345705138558,
    ),
)}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
def _rng(workload: Workload, seed: int) -> np.random.Generator:
    # crc32, not hash(): str hashes are salted per process.
    return np.random.default_rng(
        [GENERATOR_VERSION, zlib.crc32(workload.name.encode()), int(seed)]
    )


def _zipf_ranks(rng: np.random.Generator, dim: int, exponent: float,
                size: int) -> np.ndarray:
    """``size`` draws of 0-based popularity ranks from Zipf(exponent)."""
    weights = np.arange(1, dim + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size)), dim - 1)


def _unique_rows(idx: np.ndarray) -> np.ndarray:
    order = np.lexsort(idx.T[::-1])
    srt = idx[order]
    keep = np.ones(len(srt), dtype=bool)
    keep[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    return srt[keep]


def generate(workload: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (0-based, ``nnz x N`` int64) and values of one input.

    Rows are distinct and in random order, so the program's canonicalize
    step does its full sort.  Values are exact in decimal (multiples of
    1/64, or small counts), so the ``.tns`` text round-trips bit for bit.
    """
    rng = _rng(workload, seed)
    # Random relabelling: popular indices are not clustered at 0.
    relabel = [rng.permutation(dim) for dim in workload.shape]
    rows = np.empty((0, len(workload.shape)), dtype=np.int64)
    while len(rows) < workload.nnz:
        draw = int((workload.nnz - len(rows)) * 1.25) + 64
        cols = [rel[_zipf_ranks(rng, dim, a, draw)]
                for rel, dim, a in zip(relabel, workload.shape, workload.zipf)]
        rows = _unique_rows(np.concatenate([rows, np.stack(cols, axis=1)]))
    idx = rows[rng.choice(len(rows), size=workload.nnz, replace=False)]
    if workload.values == "count":
        vals = rng.geometric(0.5, size=workload.nnz).astype(np.float64)
    else:
        vals = rng.integers(1, 65, size=workload.nnz) / 64.0
    return idx, vals


def write_tns(path: str, idx: np.ndarray, vals: np.ndarray) -> None:
    """FROSTT text: 1-based coordinates then the value, one nonzero a line."""
    table = np.column_stack([idx + 1, vals])
    fmt = " ".join(["%d"] * idx.shape[1] + ["%.17g"])
    with open(path, "w") as fh:
        np.savetxt(fh, table, fmt=fmt)


def materialize(workload: Workload, seed: int, cache_dir: str) -> dict:
    """Generate (once) and return the paths of one workload input.

    Returns ``{"tns": path, "npz": path, "generated_s": seconds or 0.0}``.
    Files are written under a temporary name and renamed into place, so an
    interrupted run never leaves a truncated input behind.
    """
    import time

    params = repr((workload.shape, workload.nnz, workload.zipf,
                   workload.values)).encode()
    tag = (f"{workload.name}-s{int(seed)}-g{GENERATOR_VERSION}"
           f"-{zlib.crc32(params):08x}")
    folder = os.path.join(cache_dir, tag)
    paths = {"tns": os.path.join(folder, "tensor.tns"),
             "npz": os.path.join(folder, "tensor.npz"), "generated_s": 0.0}
    if os.path.exists(paths["tns"]) and os.path.exists(paths["npz"]):
        return paths
    t0 = time.perf_counter()
    os.makedirs(folder, exist_ok=True)
    idx, vals = generate(workload, seed)
    tmp_npz = paths["npz"] + ".tmp.npz"
    np.savez(tmp_npz, idx=idx, vals=vals)
    tmp_tns = paths["tns"] + ".tmp"
    write_tns(tmp_tns, idx, vals)
    os.replace(tmp_npz, paths["npz"])
    os.replace(tmp_tns, paths["tns"])
    paths["generated_s"] = time.perf_counter() - t0
    return paths


def load_input(npz_path: str) -> tuple[np.ndarray, np.ndarray]:
    with np.load(npz_path) as data:
        return data["idx"], data["vals"]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
def load_model(path: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Weights and factors of a saved model, read with plain ``np.load``."""
    with np.load(path) as data:
        weights = np.asarray(data["weights"], dtype=np.float64)
        factors = []
        while f"factor_{len(factors)}" in data:
            factors.append(np.asarray(data[f"factor_{len(factors)}"],
                                      dtype=np.float64))
    if not factors:
        raise ValueError(f"{path}: no factor_<n> arrays")
    return weights, factors


def recompute_fit(idx: np.ndarray, vals: np.ndarray, weights: np.ndarray,
                  factors: list[np.ndarray], chunk: int = 65536) -> float:
    """``1 - ||X - M|| / ||X||`` for sparse ``X`` and Kruskal model ``M``.

    ``||M||^2 = w^T (*_n U_n^T U_n) w``; ``<X, M>`` is summed over the
    nonzeros in chunks, so memory stays bounded at any nnz.
    """
    if len(factors) != idx.shape[1]:
        raise ValueError(f"model has {len(factors)} factors for an order-"
                         f"{idx.shape[1]} tensor")
    if any(int(idx[:, n].max(initial=-1)) >= U.shape[0]
           for n, U in enumerate(factors)):
        raise ValueError("model has fewer rows than the tensor's indices")
    hadamard = np.ones((len(weights), len(weights)))
    for U in factors:
        hadamard *= U.T @ U
    norm_model_sq = float(weights @ hadamard @ weights)
    inner = 0.0
    for lo in range(0, len(vals), chunk):
        rows = weights * factors[0][idx[lo:lo + chunk, 0]]
        for n in range(1, len(factors)):
            rows *= factors[n][idx[lo:lo + chunk, n]]
        inner += float(vals[lo:lo + chunk] @ rows.sum(axis=1))
    norm_x = float(np.sqrt(vals @ vals))
    err_sq = max(norm_x ** 2 + norm_model_sq - 2.0 * inner, 0.0)
    return 1.0 - float(np.sqrt(err_sq)) / norm_x
