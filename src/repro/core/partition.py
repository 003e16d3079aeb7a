"""Contiguous near-equal splits of an index range.

Nonzero chunks, segment-aligned rebuild chunks and the bandwidth probe's
per-thread slices all cut ``range(n)`` the same way; this is that cut.
"""

from __future__ import annotations

import numpy as np

from .validate import check_positive_int


def contiguous_chunks(n: int, k: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``k`` near-equal contiguous half-open ranges.

    Ranges may be empty when ``k > n``; their count is always exactly ``k``.
    """
    check_positive_int(k, "k")
    if n < 0:
        raise ValueError("n must be >= 0")
    bounds = np.linspace(0, n, k + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(k)]
