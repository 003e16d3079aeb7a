"""Higher-level algorithms built on the memoized MTTKRP engine."""

from .restarts import (RankSelection, RestartReport, cp_als_restarts,
                       select_rank)

__all__ = [
    "RankSelection",
    "RestartReport",
    "cp_als_restarts",
    "select_rank",
]
