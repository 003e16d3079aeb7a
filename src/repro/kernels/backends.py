"""Kernel backends: interchangeable implementations of one node rebuild.

A backend turns a :class:`RebuildContext` (static indices + current numeric
state) into the node's ``(n_segments, R)`` value matrix, its rows in the
node's stored order (``NodeKernelIndex.row_order``).  All backends
compute the *same* values — the engine's perf counters and the cost model
are backend-independent — they differ only in how the gather → Hadamard →
segmented-sum pipeline is executed:

``numpy``
    The default.  Pre-permuted flat gather indices (no per-rebuild
    permutation pass), ``np.take`` into reused workspace buffers (no large
    allocations), in-place Hadamard, cache-sized segment-aligned blocks, and
    position-major length-class sums for segments of at most eight rows,
    every block writing one contiguous slice of the output (see
    :mod:`repro.kernels.indices`).  Bitwise identical to ``reference``.

``reference``
    The original engine's numeric path on lexicographic rows, kept as the
    plain-numpy baseline and bitwise oracle for differential testing.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..core.dtypes import VALUE_DTYPE
from ..obs import switch as _switch
from ..obs import trace as _trace
from .blocking import resolve_block_rows
from .indices import length_class_sum, lexicographic
from .workspace import WorkspaceArena


class RebuildContext:
    """Everything a backend may need to rebuild one node.

    ``sym``/``parent_sym`` are :class:`~repro.core.symbolic.NodeSymbolic`
    blocks; exactly one of ``parent_vals`` (a ``(m, R)`` cached node value
    matrix) and ``root_vals`` (the tensor's ``(m,)`` nonzero values) is set.
    """

    __slots__ = ("symbolic", "node_id", "sym", "parent_sym", "factors",
                 "parent_vals", "root_vals", "rank", "arena")

    def __init__(self, symbolic, node_id, sym, parent_sym, factors,
                 parent_vals, root_vals, rank, arena: WorkspaceArena):
        self.symbolic = symbolic
        self.node_id = node_id
        self.sym = sym
        self.parent_sym = parent_sym
        self.factors = factors
        self.parent_vals = parent_vals
        self.root_vals = root_vals
        self.rank = rank
        self.arena = arena

    def kernel_index(self):
        """The node's cached :class:`~repro.kernels.indices.NodeKernelIndex`."""
        return self.symbolic.kernel_index(self.node_id)


class KernelBackend:
    """Interface: :meth:`rebuild` a whole node."""

    #: registry name (overridden by implementations).
    name = "abstract"

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        raise NotImplementedError

    def traced_rebuild(self, ctx: RebuildContext) -> np.ndarray:
        """:meth:`rebuild` inside a ``kernel`` span attributing the pass to
        this backend (separating kernel time from the engine's accounting)."""
        if not _switch.is_on("trace"):
            return self.rebuild(ctx)
        with _trace.span("kernel", backend=self.name, node=ctx.node_id):
            return self.rebuild(ctx)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyKernel(KernelBackend):
    """Blocked gather → in-place Hadamard → segmented sum on cached indices.

    Segments longer than eight rows are summed by ``reduceat``; shorter
    ones by their length class (:func:`~repro.kernels.indices
    .length_class_sum`), bitwise identical either way.  Each block writes
    one contiguous slice of stored rows.
    """

    name = "numpy"

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        ki = ctx.kernel_index()
        out = np.empty((ki.n_segments, ctx.rank), dtype=VALUE_DTYPE)
        if ki.n_sources:
            block_rows = resolve_block_rows(ctx.rank)
            self._run_blocks(ctx, ki, ki.blocks_for(block_rows), out)
        return out

    def rebuild_chunk(self, ctx: RebuildContext, blocks, out: np.ndarray) -> None:
        """Run some of the node's cached ``blocks``
        (:meth:`~repro.kernels.indices.NodeKernelIndex.blocks_for`) into
        ``out`` (the full ``(n_segments, R)`` array).  Every block writes
        its own slice of stored rows, so concurrent chunks never overlap."""
        self._run_blocks(ctx, ctx.kernel_index(), blocks, out)

    def _run_blocks(self, ctx: RebuildContext, ki, blocks, out) -> None:
        factors = ctx.factors
        arena = ctx.arena
        rank = ctx.rank
        parent_vals = ctx.parent_vals
        root_vals = (None if parent_vals is not None
                     else ki.root_values(ctx.root_vals))
        perm = ki.perm
        d0 = ki.delta_modes[0]
        g0 = ki.gather[0]
        rest = tuple(zip(ki.delta_modes[1:], ki.gather[1:]))
        for lo, hi, width, rows, lstarts in blocks:
            n = hi - lo
            # Identity plans and one-row segments map source row k to one
            # output row: gather straight into the output, no reduction.
            direct = ki.identity or width == 1
            prod = out[rows] if direct else arena.request("prod", n, rank)
            np.take(factors[d0], g0[lo:hi], axis=0, out=prod, mode="clip")
            for d_mode, g in rest:
                scratch = arena.request("scratch", n, rank)
                np.take(factors[d_mode], g[lo:hi], axis=0, out=scratch,
                        mode="clip")
                np.multiply(prod, scratch, out=prod)
            if root_vals is not None:
                np.multiply(prod, root_vals[lo:hi, None], out=prod)
            elif perm is None:
                np.multiply(prod, parent_vals[lo:hi], out=prod)
            else:
                scratch = arena.request("scratch", n, rank)
                np.take(parent_vals, perm[lo:hi], axis=0, out=scratch,
                        mode="clip")
                np.multiply(prod, scratch, out=prod)
            if direct:
                continue
            if width:
                length_class_sum(prod, width, out[rows])
            else:
                np.add.reduceat(prod, lstarts, axis=0, out=out[rows])


class ReferenceKernel(KernelBackend):
    """The seed engine's numeric path (baseline + differential testing):
    per-rebuild strided column reads, a fresh allocation per pass, and the
    segment permutation applied to the ``(m, R)`` products, all on
    lexicographic rows.  The parent's values are brought into
    lexicographic order on the way in and the result into the node's
    stored order on the way out.

    The symbolic pass keeps neither the parent's index block nor the
    node's :class:`~repro.core.segreduce.SegmentPlan`; this backend
    recomputes both from the tensor on a node's first rebuild and keeps
    them as long as the symbolic tree lives."""

    name = "reference"

    def __init__(self):
        self._static = weakref.WeakKeyDictionary()

    def _parent_index_and_plan(self, ctx: RebuildContext):
        per_tree = self._static.setdefault(ctx.symbolic, {})
        static = per_tree.get(ctx.node_id)
        if static is None:
            static = (ctx.parent_sym.index, ctx.sym.plan)
            per_tree[ctx.node_id] = static
        return static

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        sym, parent_sym = ctx.sym, ctx.parent_sym
        parent_index, plan = self._parent_index_and_plan(ctx)
        factors = ctx.factors
        prod: np.ndarray | None = None
        for d_mode, d_col in zip(sym.delta_modes, sym.delta_parent_cols):
            rows = factors[d_mode][parent_index[:, d_col]]
            if prod is None:
                prod = rows.copy()
            else:
                prod *= rows
        assert prod is not None, "strategy validation guarantees non-empty delta"
        if ctx.parent_vals is None:
            prod *= ctx.root_vals[:, None]
        else:
            prod *= lexicographic(ctx.parent_vals,
                                  ctx.symbolic.row_order(parent_sym.node_id))
        result = plan.reduce(prod)
        row_order = ctx.symbolic.row_order(ctx.node_id)
        return result if row_order is None else result[row_order]
