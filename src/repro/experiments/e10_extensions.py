"""E10 — restart amortization on the memoized engine (beyond the paper).

**E10b** measures the wall time of ``k`` CP-ALS restarts with a shared
symbolic tree against rebuilding the tree per restart.  The id keeps its
``b`` suffix so its committed artifact ``e10b.json`` stays comparable
across revisions.
"""

from __future__ import annotations

import time

from ..core.cpals import cp_als
from ..core.engine import MemoizedMttkrp
from ..core.strategy import balanced_binary
from ..core.symbolic import SymbolicTree
from .common import (DEFAULT_RANK, DEFAULT_SCALE, ExperimentResult,
                     load_scaled)

EXP_ID = "E10"


def run_restart_amortization(
    scale: float = DEFAULT_SCALE, rank: int = DEFAULT_RANK,
    name: str = "flickr", n_restarts: int = 4, n_iter: int = 3,
) -> ExperimentResult:
    """E10b: shared vs rebuilt symbolic trees across restarts."""
    tensor = load_scaled(name, scale)
    strategy = balanced_binary(tensor.ndim)

    t0 = time.perf_counter()
    shared = SymbolicTree(tensor, strategy)
    for seed in range(n_restarts):
        engine = MemoizedMttkrp(tensor, strategy, symbolic=shared)
        cp_als(tensor, rank, engine_factory=lambda t, e=engine: e,
               n_iter_max=n_iter, tol=0.0, random_state=seed)
    t_shared = time.perf_counter() - t0

    t0 = time.perf_counter()
    for seed in range(n_restarts):
        cp_als(tensor, rank, strategy=strategy, n_iter_max=n_iter, tol=0.0,
               random_state=seed)
    t_rebuilt = time.perf_counter() - t0

    saving = t_rebuilt / t_shared
    rows = [[name, n_restarts, n_iter, round(t_rebuilt, 3),
             round(t_shared, 3), round(saving, 2)]]
    return ExperimentResult(
        exp_id="E10b",
        title="Symbolic-tree sharing across CP-ALS restarts (seconds)",
        headers=["dataset", "restarts", "iters/run", "rebuilt", "shared",
                 "speedup"],
        rows=rows,
        expected_shape=(
            "Sharing the symbolic tree across restarts removes the "
            "preprocessing from all but the first run; the saving grows as "
            "runs get shorter (rank/restart searches)."
        ),
        observations={"restart_speedup": saving},
    )


def run(scale: float = DEFAULT_SCALE,
        rank: int = DEFAULT_RANK) -> ExperimentResult:
    return run_restart_amortization(scale, rank)
