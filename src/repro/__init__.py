"""repro — model-driven sparse CP decomposition for higher-order tensors.

A from-scratch reproduction of the AdaTM system (Li, Choi, Perros, Sun,
Vuduc; IPDPS 2017): memoized MTTKRP over a strategy tree, an analytic
performance model, and a planner that adaptively selects the memoization
algorithm per tensor.

Quickstart::

    import repro

    X = repro.synth.lowrank_tensor((50, 40, 30, 20), rank=5, nnz=20_000,
                                   random_state=0).tensor
    result = repro.cp_als(X, rank=5, strategy="auto", random_state=0)
    print(result.fit, result.strategy_name)
"""

import importlib

from .core import (CooTensor, CPResult, KruskalTensor, MemoizedMttkrp,
                   MemoStrategy, balanced_binary, chain, cp_als,
                   default_candidates, from_nested, star, two_way)
from .model import CostReport, MachineModel, PlannerReport, plan

__version__ = "1.0.0"


def __getattr__(name: str):
    """Import a subpackage on first access (PEP 562): ``import repro``
    loads only what the re-exported names need."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "algos",
    "baselines",
    "core",
    "formats",
    "io",
    "kernels",
    "linalg",
    "model",
    "parallel",
    "perf",
    "synth",
    "CooTensor",
    "CPResult",
    "KruskalTensor",
    "MemoizedMttkrp",
    "MemoStrategy",
    "balanced_binary",
    "chain",
    "cp_als",
    "default_candidates",
    "from_nested",
    "star",
    "two_way",
    "CostReport",
    "MachineModel",
    "PlannerReport",
    "plan",
    "__version__",
]
