"""The kernel backends by name.

Engines resolve a backend from an explicit argument, the ``REPRO_KERNEL``
environment variable, or the default (``numpy``).  An unknown name is a
``ValueError`` that lists the available backends.
"""

from __future__ import annotations

import os

from ..obs.metrics import registry as _metrics
from .backends import KernelBackend, NumpyKernel, ReferenceKernel

DEFAULT_KERNEL = "numpy"

#: one shared instance per name, default first.
_BACKENDS: dict[str, KernelBackend] = {
    backend.name: backend() for backend in (NumpyKernel, ReferenceKernel)
}


def available_kernels() -> list[str]:
    """Names of the backends, default first."""
    return list(_BACKENDS)


def get_kernel(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend: instance pass-through, name, ``REPRO_KERNEL``,
    or the default."""
    if isinstance(spec, KernelBackend):
        return spec
    name = (spec or os.environ.get("REPRO_KERNEL") or DEFAULT_KERNEL)
    name = name.strip().lower() or DEFAULT_KERNEL
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{available_kernels()}"
        )
    _metrics.incr(f"kernel.resolved.{name}")
    return _BACKENDS[name]
