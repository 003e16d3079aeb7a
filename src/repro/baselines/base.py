"""Common backend interface for MTTKRP implementations.

Every MTTKRP provider — the memoized engine and each baseline — satisfies the
same small protocol (``set_factors`` / ``update_factor`` / ``mttkrp`` /
``mttkrp_rows`` / ``mode_order`` / ``factors``) so the CP-ALS driver and
the benchmark harness can swap them freely.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import VALUE_DTYPE
from ..core.validate import check_factor_matrices, check_mode


class MttkrpBackend:
    """Base class holding a tensor plus the current factor matrices."""

    #: human-readable backend name (overridden by subclasses).
    name = "abstract"

    def __init__(self, tensor: CooTensor):
        self.tensor = tensor
        self._factors: list[np.ndarray] | None = None
        self._rank: int | None = None

    @property
    def mode_order(self) -> tuple[int, ...]:
        """Baselines update modes in natural order."""
        return tuple(range(self.tensor.ndim))

    @property
    def factors(self) -> list[np.ndarray]:
        if self._factors is None:
            raise RuntimeError("factors have not been set")
        return self._factors

    @property
    def rank(self) -> int:
        if self._rank is None:
            raise RuntimeError("factors have not been set")
        return self._rank

    def set_factors(self, factors: Sequence[np.ndarray]) -> None:
        self._rank = check_factor_matrices(factors, self.tensor.shape)
        self._factors = [
            np.ascontiguousarray(U, dtype=VALUE_DTYPE) for U in factors
        ]

    def update_factor(self, mode: int, U: np.ndarray) -> None:
        mode = check_mode(mode, self.tensor.ndim)
        U = np.ascontiguousarray(U, dtype=VALUE_DTYPE)
        if U.shape != (self.tensor.shape[mode], self.rank):
            raise ValueError(
                f"factor for mode {mode} must be "
                f"{(self.tensor.shape[mode], self.rank)}, got {U.shape}"
            )
        self.factors[mode] = U

    def mttkrp(self, mode: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def mttkrp_rows(self, mode: int, rows: np.ndarray) -> np.ndarray:
        """The mode-``mode`` MTTKRP on ``rows`` alone (the mode's nonempty
        rows, ascending): the full result's rows, gathered."""
        return np.take(self.mttkrp(mode), rows, axis=0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nnz={self.tensor.nnz}, rank={self._rank})"
