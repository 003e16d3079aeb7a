"""Cache-blocked execution: segment-aligned blocks and the block size.

The fused gather → Hadamard → segmented-sum pipeline streams ``(nnz, R)``
scratch; for large nodes those temporaries spill every cache level and each
numpy pass pays full memory bandwidth.  Processing sources in segment-aligned
blocks keeps the running product cache-resident between passes, which is
where the multi-pass numpy formulation recovers most of what a truly fused
loop would win.

Blocks always end on segment boundaries, so per-block ``np.add.reduceat``
results are bitwise identical to the unblocked reduction.

The block size is the ``REPRO_KERNEL_BLOCK`` environment variable (``0``
disables blocking) or else a cache-capacity heuristic
(:func:`default_block_rows`).
"""

from __future__ import annotations

import os

import numpy as np

from ..core.dtypes import VALUE_DTYPE

#: scratch working set targeted by the heuristic (≈ per-core L2 capacity).
_TARGET_WORKING_SET = 2 * 1024 * 1024


def default_block_rows(rank: int) -> int:
    """Heuristic block size: two ``(rows, R)`` scratch buffers plus the
    output stream should fit the target working set."""
    rows = _TARGET_WORKING_SET // (max(rank, 1) * np.dtype(VALUE_DTYPE).itemsize * 3)
    return int(min(max(rows, 1024), 1 << 18))


def resolve_block_rows(rank: int) -> int:
    """The block size the numpy kernel should use for ``rank`` (0 = unblocked)."""
    env = os.environ.get("REPRO_KERNEL_BLOCK")
    if env is not None and env.strip():
        return max(0, int(env))
    return default_block_rows(rank)


def segment_blocks(starts: np.ndarray, n_sources: int, block_rows: int):
    """Yield ``(src_lo, src_hi, seg_lo, seg_hi, local_starts)`` blocks.

    Each block covers whole segments and at most ``block_rows`` source rows
    (more only when a single segment alone exceeds ``block_rows``).
    ``block_rows <= 0`` yields the whole range as one block.
    ``local_starts`` are the block's ``reduceat`` offsets relative to
    ``src_lo``.
    """
    n_segments = starts.shape[0]
    if n_segments == 0:
        return
    if block_rows <= 0:
        lo = int(starts[0])
        yield lo, n_sources, 0, n_segments, starts - lo
        return
    seg = 0
    while seg < n_segments:
        lo = int(starts[seg])
        nxt = int(np.searchsorted(starts, lo + block_rows, side="right")) - 1
        if nxt <= seg:
            nxt = seg + 1  # one oversized segment: take it whole
        hi = int(starts[nxt]) if nxt < n_segments else n_sources
        yield lo, hi, seg, nxt, starts[seg:nxt] - lo
        seg = nxt
