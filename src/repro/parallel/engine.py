"""Parallel memoized engine: chunked node rebuilds on a thread pool.

Parallelizes the memoized MTTKRP's numeric phase.  Each node rebuild is
split into contiguous groups of the node's cached blocks
(:meth:`~repro.kernels.indices.NodeKernelIndex.blocks_for`).  Every block
writes its own slice of the node's stored rows, so workers produce
disjoint output ranges: gathers, Hadamard products, and the segmented sums
all run concurrently with no write conflicts and no reduction pass.

Workers execute through the kernel backend's ``rebuild_chunk`` — the same
precomputed flat gather indices and per-thread workspace buffers as the
sequential engine, so no per-chunk index arithmetic happens on the hot
path.  Backends without chunk support (``numba``, which parallelizes
inside the node already, and the whole-node ``reference`` path) fall back
to the numpy chunk kernel.
"""

from __future__ import annotations

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import VALUE_DTYPE
from ..core.engine import MemoizedMttkrp
from ..core.validate import check_positive_int
from ..kernels import get_kernel, resolve_block_rows
from ..obs import switch as _switch
from ..obs import trace as _trace
from .pool import WorkerPool


class ParallelMemoizedMttkrp(MemoizedMttkrp):
    """Drop-in replacement for :class:`MemoizedMttkrp` using worker threads.

    Single-worker pools degrade gracefully to near-sequential behaviour
    (one chunk per node), so speedup measurements can use the same class at
    every worker count.  Usable as a context manager; pools created by the
    engine are closed on exit.
    """

    name = "parallel-memoized"

    #: node rebuilds with fewer parent rows than this run sequentially —
    #: below it, thread dispatch costs more than the kernel itself.
    min_chunk_rows = 16_384

    def __init__(self, tensor: CooTensor, strategy, factors=None, *,
                 n_workers: int | None = None, pool: WorkerPool | None = None,
                 symbolic=None, min_chunk_rows: int | None = None,
                 kernel=None):
        if min_chunk_rows is not None:
            self.min_chunk_rows = check_positive_int(
                min_chunk_rows, "min_chunk_rows"
            )
        self._own_pool = pool is None
        self.pool = pool or WorkerPool(n_workers)
        super().__init__(tensor, strategy, factors, symbolic=symbolic,
                         kernel=kernel)
        self._chunk_kernel = (
            self._kernel if self._kernel.supports_chunks else get_kernel("numpy")
        )

    def close(self) -> None:
        if self._own_pool:
            self.pool.close()
        if _switch.is_on("mem"):
            # Pool engines are commonly short-lived context managers; drop
            # their entries so the tracker's live total reflects reality.
            _switch.get("mem").release_engine(id(self))

    def __enter__(self) -> "ParallelMemoizedMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _compute_node(self, node_id: int) -> np.ndarray:
        ki = self.symbolic.kernel_index(node_id)
        n_chunks = min(
            self.pool.n_workers,
            max(1, ki.n_sources // self.min_chunk_rows),
        )
        chunks = (block_groups(ki.blocks_for(resolve_block_rows(self.rank)),
                               ki.n_sources, n_chunks)
                  if n_chunks > 1 else [])
        if len(chunks) <= 1:
            return super()._compute_node(node_id)

        ctx = self._rebuild_context(node_id)
        kernel = self._chunk_kernel
        out = np.empty((ki.n_segments, self.rank), dtype=VALUE_DTYPE)

        def chunk(blocks, traced):
            if traced:
                with _trace.span("kernel_chunk", backend=kernel.name,
                                 node=node_id):
                    kernel.rebuild_chunk(ctx, blocks, out)
            else:
                kernel.rebuild_chunk(ctx, blocks, out)

        def build(traced):
            self.pool.run([
                (lambda b=b: chunk(b, traced)) for b in chunks
            ])
            return out

        self._rebuild(ctx, build, chunks=len(chunks))
        if _switch.is_on("trace"):
            # Chunked rebuilds grow per-worker arena buffers; refresh the
            # workspace gauge here so the peak is visible even between
            # mttkrp span boundaries.
            self._publish_memory_gauges()
        return out


def block_groups(blocks: list, n_sources: int, n_groups: int) -> list[list]:
    """Split ``blocks`` (ascending, covering ``n_sources`` sources) into at
    most ``n_groups`` contiguous non-empty groups of about equal source
    counts: a block joins the group its first source falls in."""
    groups: list[list] = [[] for _ in range(n_groups)]
    for block in blocks:
        groups[block[0] * n_groups // n_sources].append(block)
    return [g for g in groups if g]
