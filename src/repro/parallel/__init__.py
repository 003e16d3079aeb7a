"""Shared-memory multicore runtime: the thread pool and the parallel
memoized engine."""

from .engine import ParallelMemoizedMttkrp
from .pool import WorkerPool, default_workers, resolve_worker_count

__all__ = [
    "ParallelMemoizedMttkrp",
    "WorkerPool",
    "default_workers",
    "resolve_worker_count",
]
