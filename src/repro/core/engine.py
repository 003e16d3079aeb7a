"""The memoized MTTKRP engine: numeric phase over a symbolic tree.

Given a tensor, a memoization strategy, and current factor matrices, the
engine produces MTTKRP results per mode while caching intermediate
semi-sparse tensors and invalidating exactly those that depend on an updated
factor.  All numeric work is three vectorized passes per node rebuild:
factor-row gather, Hadamard product, segmented sum.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..kernels import RebuildContext, WorkspaceArena, get_kernel
from ..kernels.indices import lexicographic
from ..obs import events as _events
from ..obs import switch as _switch
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics
from ..perf import counters as perf
from .coo import CooTensor
from .dtypes import VALUE_DTYPE
from .semisparse import SemiSparseTensor
from .strategy import MemoStrategy, resolve_strategy
from .symbolic import SymbolicTree
from .validate import check_factor_matrices, check_mode


def contraction_work(parent_nnz: int, rank: int, n_delta: int) -> tuple[int, int]:
    """(flops, words) convention for rebuilding a node from its parent.

    flops: ``parent_nnz * R * (n_delta + 1)`` — ``n_delta`` Hadamard
    multiplies per element-row plus one add into the segment reduction.
    words: gathered factor rows (``parent_nnz * R`` per delta mode), the
    parent value read, and the node value write.
    """
    flops = parent_nnz * rank * (n_delta + 1)
    words = parent_nnz * rank * (n_delta + 2)
    return flops, words


class MemoizedMttkrp:
    """Stateful MTTKRP provider for one tensor + strategy.

    Parameters
    ----------
    tensor:
        input sparse tensor.
    strategy:
        a :class:`MemoStrategy`, nested-tuple spec, or strategy name.
    factors:
        optional initial factor matrices (may also be installed later with
        :meth:`set_factors`).
    symbolic:
        a prebuilt :class:`SymbolicTree` to reuse (skips the symbolic phase).
    kernel:
        kernel backend executing node rebuilds: a name from
        :func:`repro.kernels.available_kernels`, a
        :class:`~repro.kernels.KernelBackend` instance, or ``None`` to
        resolve from the ``REPRO_KERNEL`` environment variable (default
        ``"numpy"``).  Backends differ only in execution; every backend
        produces the same values and identical perf counters.
    """

    def __init__(self, tensor: CooTensor, strategy, factors=None, *,
                 symbolic: SymbolicTree | None = None, kernel=None):
        self.tensor = tensor
        self.strategy: MemoStrategy = resolve_strategy(strategy, tensor.ndim)
        if symbolic is not None:
            if symbolic.strategy is not self.strategy and (
                symbolic.strategy.signature() != self.strategy.signature()
            ):
                raise ValueError("prebuilt symbolic tree uses a different strategy")
            if symbolic.tensor is not tensor:
                raise ValueError("prebuilt symbolic tree is for a different tensor")
            self.symbolic = symbolic
        else:
            with _trace.span("symbolic_build", strategy=self.strategy.name,
                             nnz=tensor.nnz):
                self.symbolic = SymbolicTree(tensor, self.strategy)
        self._values: list[np.ndarray | None] = [None] * len(self.strategy.nodes)
        self._factors: list[np.ndarray] | None = None
        self._rank: int | None = None
        self._kernel = get_kernel(kernel)
        self._arena = WorkspaceArena()
        if factors is not None:
            self.set_factors(factors)

    @property
    def kernel(self):
        """The kernel backend executing this engine's node rebuilds."""
        return self._kernel

    @property
    def mode_order(self) -> tuple[int, ...]:
        """Mode update order under which each node rebuilds once/iteration."""
        return self.strategy.mode_order

    # ------------------------------------------------------------------
    # factor management
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        if self._rank is None:
            raise RuntimeError("factors have not been set")
        return self._rank

    @property
    def factors(self) -> list[np.ndarray]:
        if self._factors is None:
            raise RuntimeError("factors have not been set")
        return self._factors

    def set_factors(self, factors: Sequence[np.ndarray]) -> None:
        """Install a full set of factor matrices; drops every cached node."""
        rank = check_factor_matrices(factors, self.tensor.shape)
        self._factors = [
            np.ascontiguousarray(U, dtype=VALUE_DTYPE) for U in factors
        ]
        self._rank = rank
        self.invalidate_all()

    def update_factor(self, mode: int, U: np.ndarray) -> None:
        """Replace one factor; invalidates nodes contracted with ``mode``."""
        mode = check_mode(mode, self.tensor.ndim)
        U = np.ascontiguousarray(U, dtype=VALUE_DTYPE)
        if U.shape != (self.tensor.shape[mode], self.rank):
            raise ValueError(
                f"factor for mode {mode} must be "
                f"{(self.tensor.shape[mode], self.rank)}, got {U.shape}"
            )
        self.factors[mode] = U
        tracker = _switch.get("mem") if _switch.is_on("mem") else None
        for nid in self.strategy.invalidated_by(mode):
            if tracker is not None and self._values[nid] is not None:
                tracker.on_free(id(self), nid)
            self._values[nid] = None

    def invalidate_all(self) -> None:
        tracker = _switch.get("mem") if _switch.is_on("mem") else None
        for nid in range(len(self._values)):
            if tracker is not None and self._values[nid] is not None:
                tracker.on_free(id(self), nid)
            self._values[nid] = None

    # ------------------------------------------------------------------
    # numeric phase
    # ------------------------------------------------------------------
    def mttkrp(self, mode: int) -> np.ndarray:
        """The mode-``n`` MTTKRP ``M^(n)`` (shape ``I_n x R``).

        Entering mode ``n``'s sub-iteration eagerly frees every cached node
        contracted with ``n``: those values are doomed (the imminent factor
        update invalidates them) and freeing first is what bounds live value
        matrices by the tree height.
        """
        mode = check_mode(mode, self.tensor.ndim)
        with _trace.span("mttkrp", mode=mode):
            tracker = _switch.get("mem") if _switch.is_on("mem") else None
            for nid in self.strategy.invalidated_by(mode):
                if tracker is not None and self._values[nid] is not None:
                    tracker.on_free(id(self), nid)
                self._values[nid] = None
            leaf_id = self.strategy.leaf_id(mode)
            self._ensure_node(leaf_id)
            vals = self._values[leaf_id]
            assert vals is not None
            out = np.zeros(
                (self.tensor.shape[mode], self.rank), dtype=VALUE_DTYPE
            )
            out[self.symbolic.leaf_rows(leaf_id)] = vals
            perf.record(mttkrps=1, words=vals.size)
            if _switch.is_on("trace"):
                self._publish_memory_gauges()
            return out

    def node_tensor(self, node_id: int) -> SemiSparseTensor:
        """Materialize a node's semi-sparse tensor (computing if needed),
        its value rows in the lexicographic order of its index."""
        self._ensure_node(node_id)
        sym = self.symbolic.nodes[node_id]
        if self.strategy.nodes[node_id].is_root:
            vals = np.broadcast_to(
                self.tensor.vals[:, None], (self.tensor.nnz, self.rank)
            )
        else:
            vals = self._values[node_id]
            assert vals is not None
            vals = lexicographic(vals, self.symbolic.row_order(node_id))
        return SemiSparseTensor(
            sym.modes,
            sym.index,
            vals,
            tuple(self.tensor.shape[m] for m in sym.modes),
        )

    def cached_node_ids(self) -> list[int]:
        """Ids of non-root nodes currently holding a value matrix."""
        return [
            nid
            for nid, v in enumerate(self._values)
            if v is not None and not self.strategy.nodes[nid].is_root
        ]

    def live_value_bytes(self) -> int:
        """Bytes held by cached value matrices right now."""
        return sum(
            v.nbytes for v in self._values if v is not None
        )

    def _ensure_node(self, node_id: int) -> None:
        node = self.strategy.nodes[node_id]
        if node.is_root or self._values[node_id] is not None:
            return
        assert node.parent is not None
        self._ensure_node(node.parent)
        value = self._compute_node(node_id)
        self._values[node_id] = value
        if _switch.is_on("mem"):
            _switch.get("mem").on_store(id(self), node_id, value.nbytes)

    def _rebuild_context(self, node_id: int) -> RebuildContext:
        """Assemble the static + numeric state a kernel backend consumes."""
        node = self.strategy.nodes[node_id]
        sym = self.symbolic.nodes[node_id]
        parent = self.strategy.nodes[node.parent]  # type: ignore[index]
        parent_sym = self.symbolic.nodes[node.parent]  # type: ignore[index]
        if parent.is_root:
            parent_vals, root_vals = None, self.tensor.vals
        else:
            parent_vals = self._values[parent.id]
            assert parent_vals is not None
            root_vals = None
        return RebuildContext(
            symbolic=self.symbolic,
            node_id=node_id,
            sym=sym,
            parent_sym=parent_sym,
            factors=self.factors,
            parent_vals=parent_vals,
            root_vals=root_vals,
            rank=self.rank,
            arena=self._arena,
        )

    def _compute_node(self, node_id: int) -> np.ndarray:
        ctx = self._rebuild_context(node_id)
        return self._rebuild(ctx, lambda traced: (
            self._kernel.traced_rebuild(ctx) if traced
            else self._kernel.rebuild(ctx)
        ))

    def _rebuild(self, ctx: RebuildContext, build, **attrs) -> np.ndarray:
        """Run ``build(traced)`` as node ``ctx.node_id``'s rebuild.

        Timed only when someone listens: under a ``node_rebuild`` span
        while tracing, with a plain clock while events are on; the
        ``node_rebuild`` event and ``attrs`` (extra span/event fields)
        follow the measurement.  Records the rebuild's work in the perf
        counters.
        """
        node_id, nnz = ctx.node_id, ctx.sym.nnz
        if _switch.is_on("trace"):
            with _trace.span("node_rebuild", node=node_id, nnz=nnz,
                             parent_nnz=ctx.parent_sym.nnz, **attrs) as rec:
                result = build(True)
            _events.emit("node_rebuild", node=node_id, nnz=nnz,
                         seconds=rec.duration, **attrs)
        elif _switch.is_on("events"):
            t0 = time.perf_counter()
            result = build(False)
            _events.emit("node_rebuild", node=node_id, nnz=nnz,
                         seconds=time.perf_counter() - t0, **attrs)
        else:
            result = build(False)
        flops, words = contraction_work(
            ctx.parent_sym.nnz, self.rank, len(ctx.sym.delta_modes)
        )
        perf.record(
            flops=flops,
            words=words,
            contractions=len(ctx.sym.delta_modes),
            node_builds=1,
        )
        return result

    def workspace_nbytes(self) -> int:
        """Bytes currently held by the kernel workspace arena."""
        return self._arena.nbytes()

    def factor_bytes(self) -> int:
        """Bytes of the installed dense factor matrices (0 before install)."""
        if self._factors is None:
            return 0
        return sum(U.nbytes for U in self._factors)

    def _publish_memory_gauges(self) -> None:
        """Push this engine's memory view into the metrics registry.

        Called at span boundaries while tracing is on, so ``repro trace`` /
        ``repro report`` show live/workspace/factor bytes even when the
        full :class:`repro.obs.memory.MemTracker` is not enabled.
        """
        live = self.live_value_bytes()
        _metrics.set_gauge("mem.live_value_bytes", live)
        _metrics.set_max_gauge("mem.live_value_bytes_peak", live)
        _metrics.set_gauge("mem.workspace_bytes", self.workspace_nbytes())
        _metrics.set_gauge("mem.factor_bytes", self.factor_bytes())

    def __repr__(self) -> str:
        return (
            f"MemoizedMttkrp(strategy={self.strategy.name!r}, "
            f"nnz={self.tensor.nnz}, rank={self._rank}, "
            f"kernel={self._kernel.name!r})"
        )
