"""HiCOO: hierarchical blocked COO storage for sparse tensors.

HiCOO (Li et al., the same research line as the target paper) tiles the
coordinate space into ``B x ... x B`` blocks and stores, per nonzero, only
its *offset within the block* in a narrow integer type; block coordinates are
stored once per block.  For tensors whose nonzeros cluster (the skewed
real-world regime) this cuts index memory by nearly the ratio of coordinate
width to offset width, mode-agnostically — one representation serves every
mode's MTTKRP, unlike CSF-per-mode.

This implementation keeps the format faithful (block scheduling + 8/16-bit
element offsets) while the MTTKRP kernel stays vectorized: blocks are
processed in bulk by reconstructing absolute coordinates on the fly
(block base * B + offset), so the kernel is a constant factor over plain COO
rather than a cache-blocked C loop — the *storage* comparison is the point
here, and it is exact.
"""

from __future__ import annotations

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import INDEX_DTYPE, VALUE_DTYPE
from ..core.rowcodes import stable_groups
from ..core.validate import check_mode, check_positive_int
from ..perf import counters as perf


def _offset_dtype(block_size: int):
    if block_size <= 256:
        return np.uint8
    if block_size <= 65536:
        return np.uint16
    return np.uint32


class HicooTensor:
    """A sparse tensor in HiCOO (blocked COO) format.

    Parameters
    ----------
    tensor: canonical COO tensor to convert.
    block_size: tile edge length ``B`` (power of two recommended; default
        128 so offsets fit in one byte).
    """

    def __init__(self, tensor: CooTensor, block_size: int = 128):
        check_positive_int(block_size, "block_size")
        self.shape = tensor.shape
        self.block_size = int(block_size)
        ndim = tensor.ndim
        B = self.block_size

        block_coords = tensor.idx // B
        offsets = (tensor.idx - block_coords * B).astype(
            _offset_dtype(B), copy=False
        )
        block_dims = [(-(-s // B)) for s in tensor.shape]
        order, starts = stable_groups(block_coords, block_dims)
        first = starts if order is None else np.take(order, starts)

        #: per-block coordinates (n_blocks x N), block-major order.
        self.block_index = np.take(block_coords, first, axis=0)
        #: per-nonzero within-block offsets, grouped by block.
        self.offsets = (offsets if order is None
                        else np.take(offsets, order, axis=0))
        #: nonzero values, grouped by block.
        self.vals = np.ascontiguousarray(
            tensor.vals if order is None else np.take(tensor.vals, order),
            dtype=VALUE_DTYPE,
        )
        #: block boundary pointers into offsets/vals (n_blocks + 1).
        self.block_ptr = np.append(starts, tensor.nnz).astype(np.intp)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    @property
    def n_blocks(self) -> int:
        return int(self.block_index.shape[0])

    def index_nbytes(self) -> int:
        """Bytes of index structures (block coords + offsets + pointers)."""
        return int(
            self.block_index.nbytes + self.offsets.nbytes
            + self.block_ptr.nbytes
        )

    def nbytes(self) -> int:
        return self.index_nbytes() + int(self.vals.nbytes)

    def compression_vs_coo(self) -> float:
        """COO index bytes / HiCOO index bytes (higher = better)."""
        coo_index = self.nnz * self.ndim * 8
        return coo_index / max(self.index_nbytes(), 1)

    # ------------------------------------------------------------------
    def absolute_coords(self) -> np.ndarray:
        """Reconstruct the full ``nnz x N`` coordinate block."""
        if self.nnz == 0:
            return np.zeros((0, self.ndim), dtype=INDEX_DTYPE)
        expanded = np.repeat(
            self.block_index, np.diff(self.block_ptr), axis=0
        )
        return expanded * self.block_size + self.offsets.astype(INDEX_DTYPE)

    def to_coo(self) -> CooTensor:
        """Convert back to canonical COO (exact round trip)."""
        return CooTensor(
            self.absolute_coords(), self.vals, self.shape, copy=False
        )

    def mttkrp(self, factors, mode: int) -> np.ndarray:
        """Mode-``n`` MTTKRP directly from the blocked representation."""
        mode = check_mode(mode, self.ndim)
        rank = factors[0].shape[1]
        out = np.zeros((self.shape[mode], rank), dtype=VALUE_DTYPE)
        if self.nnz == 0:
            perf.record(mttkrps=1)
            return out
        coords = self.absolute_coords()
        prod: np.ndarray | None = None
        for m in range(self.ndim):
            if m == mode:
                continue
            rows = factors[m][coords[:, m]]
            if prod is None:
                prod = rows.copy()
            else:
                prod *= rows
        assert prod is not None
        prod *= self.vals[:, None]
        np.add.at(out, coords[:, mode], prod)
        n_other = self.ndim - 1
        perf.record(
            mttkrps=1, contractions=n_other,
            flops=self.nnz * rank * (n_other + 1),
            words=self.nnz * rank * (n_other + 2),
        )
        return out

    def block_density(self) -> float:
        """Mean nonzeros per occupied block (clustering indicator)."""
        if self.n_blocks == 0:
            return 0.0
        return self.nnz / self.n_blocks

    def __repr__(self) -> str:
        return (
            f"HicooTensor(shape={self.shape}, nnz={self.nnz}, "
            f"blocks={self.n_blocks}, B={self.block_size}, "
            f"index_bytes={self.index_nbytes()})"
        )
