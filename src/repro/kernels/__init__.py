"""Fused MTTKRP kernel layer: cached gather indices, reusable workspaces,
blocked execution, and two interchangeable backends.

The memoized engine's numeric phase is the same three-step pipeline for
every node rebuild — gather factor rows, Hadamard-multiply with the parent
values, segment-sum — and everything about it except the floating-point
values is static.  This package caches the static part
(:class:`NodeKernelIndex`), reuses the scratch (:class:`WorkspaceArena`),
blocks the passes to cache capacity (:mod:`~repro.kernels.blocking`), and
names the executor (:func:`get_kernel`; select with the ``REPRO_KERNEL``
environment variable or the engines' ``kernel=`` argument).

Backends: ``numpy`` (default; bitwise identical to the original engine) and
``reference`` (the original engine's numeric path, for benchmarking and
differential tests).
"""

from .backends import KernelBackend, NumpyKernel, RebuildContext, ReferenceKernel
from .blocking import default_block_rows, resolve_block_rows, segment_blocks
from .indices import (MAX_CLASS_ROWS, NodeKernelIndex, length_class_sum,
                      make_node_index)
from .registry import DEFAULT_KERNEL, available_kernels, get_kernel
from .workspace import WorkspaceArena

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
    "resolve_block_rows",
    "segment_blocks",
]
