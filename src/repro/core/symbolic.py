"""Symbolic contraction phase: per-node kernel indices and node sizes.

The sparsity pattern of every memoized intermediate is determined entirely by
the input tensor and the strategy tree — it never changes across CP-ALS
(sub-)iterations or restarts.  The symbolic phase therefore groups each
node's unique coordinate rows once and turns the grouping into the node's
:class:`~repro.kernels.indices.NodeKernelIndex`, after which every numeric
rebuild is a gather + Hadamard + segmented-sum with no sorting or hashing.

Only what the rebuilds read stays: the kernel indices, the leaves' output
rows and the root's coordinates (the tensor's own).  Every array kept but
the root's coordinates is stored in the narrowest dtype its range fits
(:func:`~repro.core.dtypes.index_dtype`): mode coordinates in ``uint16``
up to 65,536 rows, positions in ``int32``.  Grouping a node is
one stable sort of its rows' keys (:func:`~repro.core.rowcodes.stable_groups`),
whose order and run starts are the kernel index's source order and segment
starts; no :class:`~repro.core.segreduce.SegmentPlan` is built.  An interior
node's unique rows, kept one column per mode, are released once its last
child has its index; the rows and the plan are recomputed from the tensor
on request (:class:`NodeSymbolic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rowcodes
from ..kernels.indices import NodeKernelIndex, make_node_index
from .coo import CooTensor
from .dtypes import VALUE_ITEMSIZE, index_dtype
from .segreduce import SegmentPlan
from .strategy import MemoStrategy


def _group(tensor: CooTensor, idx: np.ndarray, modes) -> tuple:
    """``rowcodes.group_rows`` of ``idx``, whose columns are ``modes``."""
    return rowcodes.group_rows(idx, [tensor.shape[m] for m in modes])


def _narrow(column: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``column`` cast to ``dtype``; a strided view of the tensor's own
    coordinates when they already are ``dtype``."""
    return column if column.dtype == dtype else column.astype(dtype)


def _index_block(tensor: CooTensor, modes: tuple[int, ...]) -> np.ndarray:
    """Unique coordinate rows of ``tensor`` over ``modes``, lexicographic
    (the tensor's own index for all modes: canonical COO is sorted)."""
    if modes == tuple(range(tensor.ndim)):
        return tensor.idx
    return _group(tensor, tensor.idx[:, list(modes)], modes)[0]


@dataclass
class NodeSymbolic:
    """Static structure of one strategy node's intermediate tensor."""

    node_id: int
    modes: tuple[int, ...]
    #: number of distinct coordinate rows over ``modes``.
    nnz: int
    #: for each delta mode, its column position in the *parent's* index block.
    delta_parent_cols: tuple[int, ...]
    #: the delta modes themselves (aligned with ``delta_parent_cols``).
    delta_modes: tuple[int, ...]
    #: the parent's modes (``None`` for the root).
    parent_modes: tuple[int, ...] | None
    tensor: CooTensor = field(repr=False)

    @property
    def index(self) -> np.ndarray:
        """Unique coordinate rows over ``modes`` (lexicographic order):
        the tensor's index for the root, recomputed on each access for
        other nodes."""
        return _index_block(self.tensor, self.modes)

    @property
    def plan(self) -> SegmentPlan | None:
        """The plan summing parent rows into this node's rows, recomputed
        on each access (``None`` for the root)."""
        if self.parent_modes is None:
            return None
        keep = [self.parent_modes.index(m) for m in self.modes]
        parent = _index_block(self.tensor, self.parent_modes)
        return SegmentPlan(_group(self.tensor, parent[:, keep], self.modes)[1])


class SymbolicTree:
    """Symbolic structures for every node of ``strategy`` applied to ``tensor``.

    Parameters
    ----------
    tensor:
        input tensor in canonical COO form.
    strategy:
        memoization tree over the tensor's modes.
    """

    def __init__(self, tensor: CooTensor, strategy: MemoStrategy):
        if strategy.n_modes != tensor.ndim:
            raise ValueError(
                f"strategy covers {strategy.n_modes} modes, tensor has "
                f"{tensor.ndim}"
            )
        self.tensor = tensor
        self.strategy = strategy
        self.nodes: list[NodeSymbolic] = [None] * len(strategy.nodes)  # type: ignore[list-item]
        self._kernel_indices: dict[int, NodeKernelIndex] = {}
        self._leaf_rows: dict[int, np.ndarray] = {}
        self._build()

    def _build(self) -> None:
        """Group each node from its parent's index columns and build its
        kernel index at once, in parent-before-children order; a parent's
        columns are released after its last child."""
        strat, tensor = self.strategy, self.tensor
        root = strat.root
        self.nodes[root.id] = NodeSymbolic(
            node_id=root.id, modes=root.modes, nnz=tensor.nnz,
            delta_parent_cols=(), delta_modes=(), parent_modes=None,
            tensor=tensor,
        )
        # a node's unique rows over its modes, lexicographic, one array
        # per mode in the mode's coordinate dtype: narrowed once here, so
        # every gather column and leaf row taken from them is born narrow
        blocks = {root.id: [
            _narrow(tensor.idx[:, j], index_dtype(n, coordinate=True))
            for j, n in enumerate(tensor.shape)]}
        for nid in strat.topological_order():
            node = strat.nodes[nid]
            if node.is_root:
                continue
            parent = strat.nodes[node.parent]  # type: ignore[index]
            parent_cols = blocks[parent.id]
            columns = [parent_cols[parent.modes.index(m)] for m in node.modes]
            delta_cols = tuple(parent.modes.index(m) for m in node.delta)
            order, starts = rowcodes.stable_groups_columns(
                columns, [tensor.shape[m] for m in node.modes])
            n_sources = columns[0].shape[0]
            identity = order is None and starts.shape[0] == n_sources
            ki = make_node_index(
                nid, node.delta, [parent_cols[c] for c in delta_cols],
                order, starts, n_sources, identity,
                parent_is_root=parent.is_root,
                parent_row_order=self.row_order(parent.id),
            )
            self._kernel_indices[nid] = ki
            self.nodes[nid] = NodeSymbolic(
                node_id=nid, modes=node.modes, nnz=int(starts.shape[0]),
                delta_parent_cols=delta_cols, delta_modes=node.delta,
                parent_modes=parent.modes, tensor=tensor,
            )
            # the parent row behind each of the node's unique rows
            first = (None if identity else
                     starts if order is None else np.take(order, starts))
            del order, starts
            if node.children:
                blocks[nid] = (columns if first is None else
                               [np.take(col, first) for col in columns])
            else:
                if ki.row_order is not None:
                    first = (ki.row_order if first is None
                             else np.take(first, ki.row_order))
                column = columns[0]
                self._leaf_rows[nid] = (column.copy() if first is None
                                        else np.take(column, first))
            if nid == parent.children[-1]:
                del blocks[parent.id]

    # ------------------------------------------------------------------
    # kernel indices
    # ------------------------------------------------------------------
    def kernel_index(self, node_id: int) -> NodeKernelIndex | None:
        """The node's flat gather/reduction indices (``None`` for the root).

        Built by the symbolic pass and shared by every engine, restart and
        parallel worker using this tree.  Like the node sizes, they depend
        only on the sparsity pattern and the strategy.
        """
        return self._kernel_indices.get(node_id)

    def row_order(self, node_id: int) -> np.ndarray | None:
        """The lexicographic row behind each of the node's stored value
        rows, or ``None`` when they are stored lexicographically (always
        for the root)."""
        ki = self.kernel_index(node_id)
        return None if ki is None else ki.row_order

    def leaf_rows(self, node_id: int) -> np.ndarray:
        """A leaf's mode index for each stored value row: where the MTTKRP
        scatters the leaf's values."""
        return self._leaf_rows[node_id]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def node_nnz(self) -> list[int]:
        """Per-node intermediate nonzero counts (cost-model input)."""
        return [sym.nnz for sym in self.nodes]

    def node_index_nbytes(self, node_id: int) -> int:
        """Bytes of the index arrays the node keeps for the run: the root's
        coordinates, else its kernel index
        (:meth:`~repro.kernels.indices.NodeKernelIndex.nbytes`) plus a
        leaf's output rows and :meth:`root_value_nbytes`."""
        ki = self.kernel_index(node_id)
        if ki is None:
            return int(self.tensor.idx.nbytes)
        rows = self._leaf_rows.get(node_id)
        return (ki.nbytes() + (0 if rows is None else int(rows.nbytes))
                + self.root_value_nbytes(node_id))

    def root_value_nbytes(self, node_id: int) -> int:
        """Bytes of the root values a root child with a parent-row map
        keeps in gather order (0 for any other node): gathered at the first
        rebuild, counted from the start."""
        ki = self.kernel_index(node_id)
        strat = self.strategy
        if (ki is None or ki.perm is None
                or strat.nodes[node_id].parent != strat.root.id):
            return 0
        return ki.n_sources * VALUE_ITEMSIZE

    def index_nbytes(self) -> int:
        """Total bytes of the persistent index arrays (what
        :func:`repro.model.cost.symbolic_index_bytes` models)."""
        return sum(self.node_index_nbytes(sym.node_id) for sym in self.nodes)

    def compression_ratios(self) -> dict[int, float]:
        """Per non-root node: parent nnz / node nnz (index-overlap factor).

        Ratios above 1 quantify how much contraction shrinks the
        intermediates — the effect that makes memoization pay beyond the pure
        operation-count argument.
        """
        out: dict[int, float] = {}
        for sym in self.nodes:
            node = self.strategy.nodes[sym.node_id]
            if node.is_root:
                continue
            parent_nnz = self.nodes[node.parent].nnz  # type: ignore[index]
            out[sym.node_id] = parent_nnz / max(sym.nnz, 1)
        return out

    def __repr__(self) -> str:
        return (
            f"SymbolicTree(strategy={self.strategy.name!r}, "
            f"root_nnz={self.tensor.nnz}, "
            f"index_bytes={self.index_nbytes()})"
        )
