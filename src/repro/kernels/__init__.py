"""Fused MTTKRP kernel layer: cached gather indices, reusable workspaces,
blocked execution, and a pluggable backend registry.

The memoized engine's numeric phase is the same three-step pipeline for
every node rebuild — gather factor rows, Hadamard-multiply with the parent
values, segment-sum — and everything about it except the floating-point
values is static.  This package caches the static part
(:class:`NodeKernelIndex`), reuses the scratch (:class:`WorkspaceArena`),
blocks the passes to cache capacity (:mod:`~repro.kernels.blocking`), and
makes the executor pluggable (:func:`get_kernel`; select with the
``REPRO_KERNEL`` environment variable or the engines' ``kernel=`` argument).

Backends: ``numpy`` (default; bitwise identical to the original engine),
``reference`` (the original engine's numeric path, for benchmarking and
differential tests), and ``numba`` (fused ``prange`` loop, auto-detected).
"""

from .backends import KernelBackend, NumpyKernel, RebuildContext, ReferenceKernel
from .blocking import default_block_rows, resolve_block_rows, segment_blocks
from .indices import (MAX_CLASS_ROWS, NodeKernelIndex, length_class_sum,
                      make_node_index)
from .registry import (DEFAULT_KERNEL, available_kernels, get_kernel,
                       register_kernel, register_unavailable,
                       unavailable_kernels)
from .workspace import WorkspaceArena

register_kernel(NumpyKernel.name, NumpyKernel)
register_kernel(ReferenceKernel.name, ReferenceKernel)

try:  # optional fused backend — self-registers on import
    from . import numba_backend  # noqa: F401
except Exception as _numba_err:  # pragma: no cover - depends on environment
    register_unavailable("numba", f"numba import failed: {_numba_err}")

__all__ = [
    "DEFAULT_KERNEL",
    "KernelBackend",
    "MAX_CLASS_ROWS",
    "NodeKernelIndex",
    "NumpyKernel",
    "RebuildContext",
    "ReferenceKernel",
    "WorkspaceArena",
    "available_kernels",
    "default_block_rows",
    "get_kernel",
    "length_class_sum",
    "make_node_index",
    "register_kernel",
    "register_unavailable",
    "resolve_block_rows",
    "segment_blocks",
    "unavailable_kernels",
]
