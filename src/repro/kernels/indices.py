"""Static per-node gather indices: the cached half of every node rebuild.

A node rebuild gathers factor rows addressed by columns of the *parent's*
index block, multiplies them with the parent values, permutes the products
into segment order, and segment-sums.  Everything about that except the
floating-point values is fixed by the sparsity pattern and the strategy —
yet the baseline engine re-derives it on every rebuild: the column slice
``parent.index[:, d_col]`` is a strided read, and the segment permutation is
applied as a separate ``(nnz, R)`` fancy-gather pass over the products.

:class:`NodeKernelIndex` precomputes, once per node:

* one **flat, contiguous, pre-permuted** gather array per delta mode
  (the parent's lexicographic index column taken in source order), so the
  factor gather lands directly in reduction order and the per-rebuild
  permutation pass disappears entirely;
* the **parent-row map** (``None`` when the sources read the parent's
  stored rows contiguously) for gathering parent/root values;
* the ``reduceat`` segment starts;
* a :class:`LengthClassLayout` when some segments have at most
  :data:`MAX_CLASS_ROWS` rows and reordering adds no pass (see
  :func:`make_node_index`), with the **row order** it gives the node.

**Row order.**  A node with a layout stores its value rows in layout order,
the order its rebuild writes them: every block writes one contiguous slice
of the output and nothing is scattered.  ``row_order`` records the
lexicographic row (the row of the node's symbolic index) behind each stored
row, or is ``None`` when the rows are stored lexicographically.  A child
reads its parent's rows through ``parent_pos[perm]``, where ``parent_pos``
inverts the parent's row order — composed once, when the child's index is
built.  An identity child (one source per segment, in order) inherits its
parent's row order and writes its products straight into its output.

**Length classes.**  ``np.add.reduceat`` makes one inner-loop call per
(segment, column), which dominates nodes whose segments are mostly one to a
few rows long.  The layout orders the sources as: every segment longer than
:data:`MAX_CLASS_ROWS` rows first, in segment order (summed by ``reduceat``
as before), then for each length ``L = 1..8`` the sources of all length-``L``
segments, summed for all those segments at once.  Below 9 rows ``reduceat``
computes ``x0 + (((x1 + x2) + x3) ...)``; :func:`length_class_sum` uses
exactly that order, so every output is bitwise identical.  The order is
folded into the parent-row map and the gather arrays.

**Position-major tiles.**  Inside a class region the segments come in tiles
of :data:`CLASS_TILE_SOURCES` sources (``k = CLASS_TILE_SOURCES // L``
segments).  A tile stores the ``j``-th source of all its ``k`` segments
together, so the class sum adds contiguous ``(k, R)`` planes.  The tiles
are the class regions' blocks; ``REPRO_KERNEL_BLOCK`` sizes only the
``reduceat`` blocks of region 0 and of nodes without a layout.

These arrays are cached on the :class:`~repro.core.symbolic.SymbolicTree`,
so engines, restarts, and parallel workers sharing a tree share them too.
"""

from __future__ import annotations

import numpy as np

from .blocking import segment_blocks

#: longest segment summed by a length class; ``np.add.reduceat`` switches
#: from sequential to 8-way pairwise summation at one row more.
MAX_CLASS_ROWS = 8

#: sources per position-major tile of a length class.  Measured, not
#: derived from the rank: 4096-source tiles ran as fast as rank-sized
#: blocks at R = 8..64, 1024-source tiles lost about half of the gain.
CLASS_TILE_SOURCES = 4096


class LengthClassLayout:
    """Where each region of the reordered sources lands in the output.

    Region 0 holds the segments longer than :data:`MAX_CLASS_ROWS` rows;
    region ``L`` (1..8) holds the length-``L`` segments.  Region ``r`` owns
    the stored rows ``seg_bounds[r]:seg_bounds[r + 1]`` and the sources
    ``src_bounds[r]:src_bounds[r + 1]``.  ``long_starts`` are region 0's
    ``reduceat`` offsets; class regions come in tiles of ``tile`` sources
    (:meth:`tiles`).
    """

    __slots__ = ("long_starts", "seg_bounds", "src_bounds", "tile")

    def __init__(self, long_starts: np.ndarray, seg_bounds: tuple[int, ...],
                 src_bounds: tuple[int, ...], tile: int):
        self.long_starts = long_starts
        self.seg_bounds = seg_bounds
        self.src_bounds = src_bounds
        self.tile = tile

    def tiles(self, width: int):
        """Yield ``(src_lo, row_lo, k)`` for each tile of class ``width``:
        its ``k * width`` sources start at ``src_lo`` and sum into the
        stored rows ``row_lo:row_lo + k``; source ``j`` of the tile's
        ``i``-th segment sits at ``src_lo + j * k + i``."""
        row0, row_end = self.seg_bounds[width], self.seg_bounds[width + 1]
        src0 = self.src_bounds[width]
        step = max(1, self.tile // width)
        for s in range(0, row_end - row0, step):
            yield src0 + s * width, row0 + s, min(step, row_end - row0 - s)

    def nbytes(self) -> int:
        return int(self.long_starts.nbytes)


def _position_major(segs: np.ndarray, tile: int) -> np.ndarray:
    """Flatten one class's ``(count, L)`` source matrix (a row per
    segment) into tiles of ``tile // L`` segments, each stored source
    position by source position."""
    width = segs.shape[1]
    step = max(1, tile // width)
    full = segs.shape[0] - segs.shape[0] % step
    return np.concatenate((
        segs[:full].reshape(-1, step, width).transpose(0, 2, 1).ravel(),
        segs[full:].T.ravel(),
    ))


def length_class_layout(starts: np.ndarray, n_sources: int,
                        tile: int = CLASS_TILE_SOURCES):
    """``(order, row_order, layout)`` for a segment structure, or ``None``
    when no segment has at most :data:`MAX_CLASS_ROWS` rows.

    ``order`` lists the segment-order source positions in layout order and
    ``row_order`` the segment behind each stored row.  O(n): one stable
    (radix) sort of the segments by class, no pass over sources per class.
    """
    if starts.shape[0] == 0:
        return None
    lens = np.diff(starts, append=n_sources)
    cls = np.where(lens > MAX_CLASS_ROWS, 0, lens).astype(np.uint8)
    counts = np.bincount(cls, minlength=MAX_CLASS_ROWS + 1)
    if counts[0] == starts.shape[0]:
        return None
    row_order = np.argsort(cls, kind="stable")
    seg_bounds = np.cumsum(np.r_[0, counts])
    long_segs = row_order[:counts[0]]
    long_lens = lens[long_segs]
    long_starts = np.cumsum(long_lens) - long_lens
    parts = [np.repeat(starts[long_segs] - long_starts, long_lens)
             + np.arange(long_lens.sum())]
    for c in range(1, MAX_CLASS_ROWS + 1):
        if counts[c]:
            segs = row_order[seg_bounds[c]:seg_bounds[c + 1]]
            parts.append(_position_major(
                starts[segs][:, None] + np.arange(c), tile))
    order = np.concatenate(parts)
    sizes = counts * np.arange(MAX_CLASS_ROWS + 1)
    sizes[0] = long_lens.sum()
    layout = LengthClassLayout(
        long_starts=long_starts.astype(np.intp, copy=False),
        seg_bounds=tuple(int(b) for b in seg_bounds),
        src_bounds=tuple(int(b) for b in np.cumsum(np.r_[0, sizes])),
        tile=int(tile),
    )
    return (order.astype(np.intp, copy=False),
            row_order.astype(np.intp, copy=False), layout)


def length_class_sum(block: np.ndarray, width: int, out: np.ndarray) -> None:
    """Sum the ``width`` planes of a position-major tile into ``out``.

    ``block`` is ``(width * k, R)``: ``k`` rows of source position 0, then
    ``k`` of position 1, and so on; ``out`` is ``(k, R)`` and
    ``2 <= width <= MAX_CLASS_ROWS`` (one-row runs need no sum).  The order
    is ``np.add.reduceat``'s below 9 rows — ``x0 + (((x1 + x2) + x3)
    ...)`` — so the result is bitwise equal to ``reduceat`` over each
    segment's sources.
    """
    planes = block.reshape(width, out.shape[0], -1)
    if width == 2:
        np.add(planes[0], planes[1], out=out)
        return
    np.add(planes[1], planes[2], out=out)
    for j in range(3, width):
        np.add(out, planes[j], out=out)
    np.add(planes[0], out, out=out)


def lexicographic(values: np.ndarray, row_order: np.ndarray | None) -> np.ndarray:
    """A node's value rows in lexicographic order, given its ``row_order``
    (``values`` itself when they already are)."""
    if row_order is None:
        return values
    lex = np.empty_like(values)
    lex[row_order] = values
    return lex


class NodeKernelIndex:
    """Precomputed flat gather/reduction indices for one non-root node."""

    __slots__ = (
        "node_id", "delta_modes", "n_sources", "n_segments", "gather",
        "perm", "starts", "identity", "layout", "row_order", "_blocks",
        "_stacked", "_runs", "_root_vals",
    )

    def __init__(self, node_id: int, delta_modes: tuple[int, ...],
                 gather: tuple[np.ndarray, ...], perm: np.ndarray | None,
                 starts: np.ndarray, n_sources: int, identity: bool,
                 layout: LengthClassLayout | None = None,
                 row_order: np.ndarray | None = None):
        self.node_id = node_id
        self.delta_modes = delta_modes
        self.gather = gather
        #: the parent's stored row read by each source, in gather order
        #: (``None``: source ``k`` reads stored row ``k``).
        self.perm = perm
        self.starts = starts
        self.n_sources = int(n_sources)
        self.n_segments = int(starts.shape[0])
        self.identity = bool(identity)
        self.layout = layout
        #: the lexicographic row behind each stored value row (``None``:
        #: stored rows are lexicographic).
        self.row_order = row_order
        self._blocks: dict[int, list] = {}
        self._stacked: np.ndarray | None = None
        self._runs: tuple[np.ndarray, ...] | None = None
        #: (root values array, the same values in gather order)
        self._root_vals: tuple[np.ndarray, np.ndarray] | None = None

    def blocks(self, block_rows: int):
        """Yield ``(src_lo, src_hi, width, rows, local_starts)`` work items
        covering the whole node, in ascending source order.

        Sources ``src_lo:src_hi`` (in gather order) reduce into the stored
        rows ``out[rows]`` (a slice): ``width == 0`` by ``reduceat`` at
        ``local_starts``, otherwise as one position-major tile of class
        ``width`` (:func:`length_class_sum`; width 1 needs no sum).
        """
        lay = self.layout
        if lay is None:
            for lo, hi, s_lo, s_hi, lstarts in segment_blocks(
                self.starts, self.n_sources, block_rows,
            ):
                yield lo, hi, 0, slice(s_lo, s_hi), lstarts
            return
        for lo, hi, s_lo, s_hi, lstarts in segment_blocks(
            lay.long_starts, lay.src_bounds[1], block_rows,
        ):
            yield lo, hi, 0, slice(s_lo, s_hi), lstarts
        for width in range(1, MAX_CLASS_ROWS + 1):
            for src_lo, row_lo, k in lay.tiles(width):
                yield (src_lo, src_lo + k * width, width,
                       slice(row_lo, row_lo + k), None)

    def blocks_for(self, block_rows: int) -> list:
        """Cached whole-node :meth:`blocks` list for one block size."""
        blocks = self._blocks.get(block_rows)
        if blocks is None:
            blocks = list(self.blocks(block_rows))
            self._blocks[block_rows] = blocks
        return blocks

    def root_values(self, root_vals: np.ndarray) -> np.ndarray:
        """``root_vals`` in gather order, cached per root-values array
        (concurrent chunk workers may both fill it; the results agree)."""
        if self.perm is None:
            return root_vals
        cached = self._root_vals
        if cached is None or cached[0] is not root_vals:
            cached = (root_vals, root_vals[self.perm])
            self._root_vals = cached
        return cached[1]

    def stacked_gather(self) -> np.ndarray:
        """All gather arrays as one ``(n_delta, n_sources)`` matrix (for
        fused backends that want a single typed argument)."""
        if self._stacked is None:
            self._stacked = np.ascontiguousarray(np.vstack(self.gather))
        return self._stacked

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(run_starts, run_lens, run_strides)``, one entry per stored
        row: row ``k`` sums the sources ``run_starts[k] + j *
        run_strides[k]`` for ``j < run_lens[k]``, in gather order (for
        fused backends).  Strides exceed 1 only inside class tiles."""
        if self._runs is None:
            lay = self.layout
            if lay is None:
                starts = self.starts
                lens = np.diff(starts, append=self.n_sources)
                strides = np.ones(self.n_segments, dtype=np.intp)
            else:
                long_starts = lay.long_starts
                parts = [(long_starts,
                          np.diff(long_starts, append=lay.src_bounds[1]),
                          np.ones(long_starts.shape[0], dtype=np.intp))]
                for width in range(1, MAX_CLASS_ROWS + 1):
                    for src_lo, _, k in lay.tiles(width):
                        parts.append((src_lo + np.arange(k, dtype=np.intp),
                                      np.full(k, width, dtype=np.intp),
                                      np.full(k, k, dtype=np.intp)))
                starts, lens, strides = (np.concatenate(p)
                                         for p in zip(*parts))
            self._runs = (starts, lens, strides)
        return self._runs

    def nbytes(self) -> int:
        """Bytes held by the cached index structures (an inherited row
        order belongs to the parent and is not counted)."""
        total = self.starts.nbytes + sum(g.nbytes for g in self.gather)
        if self.perm is not None:
            total += self.perm.nbytes
        if self.layout is not None:
            total += self.layout.nbytes() + self.row_order.nbytes
        if self._root_vals is not None:
            total += self._root_vals[1].nbytes
        if self._stacked is not None:
            total += self._stacked.nbytes
        if self._runs is not None:  # the arrays not shared with the above
            total += sum(a.nbytes for a in self._runs[1:])
            if self.layout is not None:
                total += self._runs[0].nbytes
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NodeKernelIndex(node={self.node_id}, "
            f"deltas={self.delta_modes}, sources={self.n_sources}, "
            f"segments={self.n_segments}, identity={self.identity}, "
            f"layout={self.layout is not None})"
        )


def make_node_index(node_id: int, delta_modes: tuple[int, ...], columns,
                    plan_perm: np.ndarray | None, starts: np.ndarray,
                    n_sources: int, identity: bool, parent_is_root: bool,
                    parent_row_order: np.ndarray | None = None,
                    tile: int = CLASS_TILE_SOURCES) -> NodeKernelIndex:
    """Build a :class:`NodeKernelIndex` from the parent's delta-mode index
    ``columns`` (lexicographic parent rows), the plan's source permutation
    (``None`` = identity), its segment ``starts`` and the parent's
    ``row_order`` (``None`` = lexicographic; always for the root).

    The length-class layout applies only where it adds no pass: when the
    node gathers its parent's value rows anyway (its plan permutes them,
    or the parent stores them out of lexicographic order), or reads root
    values (gathered once per root-values array).  A sorted child of a
    lexicographic non-root node reads its parent's rows as contiguous
    slices; reordering would turn that into an ``(n, R)`` gather per
    rebuild.  An identity node inherits its parent's row order instead.
    """
    starts = np.ascontiguousarray(starts, dtype=np.intp)
    # ``source``: the parent's lexicographic row behind each source.
    source = (None if plan_perm is None
              else np.ascontiguousarray(plan_perm, dtype=np.intp))
    layout = row_order = None
    if identity:
        row_order = source = parent_row_order
        perm = None
    else:
        if (source is not None or parent_row_order is not None
                or parent_is_root):
            built = length_class_layout(starts, n_sources, tile)
            if built is not None:
                order, row_order, layout = built
                source = order if source is None else source[order]
        perm = source
        if parent_row_order is not None:
            parent_pos = np.empty_like(parent_row_order)
            parent_pos[parent_row_order] = np.arange(
                parent_row_order.shape[0], dtype=parent_row_order.dtype)
            perm = parent_pos if source is None else parent_pos[source]
    gather = tuple(
        np.ascontiguousarray(col if source is None else col[source],
                             dtype=np.intp)
        for col in columns
    )
    return NodeKernelIndex(
        node_id=node_id, delta_modes=tuple(delta_modes), gather=gather,
        perm=perm, starts=starts, n_sources=n_sources, identity=identity,
        layout=layout, row_order=row_order,
    )


def build_node_index(sym, parent_sym,
                     parent_row_order: np.ndarray | None) -> NodeKernelIndex:
    """Build the kernel index for ``sym`` (a non-root
    :class:`~repro.core.symbolic.NodeSymbolic`) from its parent's block and
    the parent's stored ``row_order``."""
    plan = sym.plan
    assert plan is not None, "root nodes have no kernel index"
    return make_node_index(
        sym.node_id, sym.delta_modes,
        [parent_sym.index[:, d_col] for d_col in sym.delta_parent_cols],
        None if plan.has_identity_perm else plan.perm,
        plan.starts, plan.n_sources, plan.is_identity,
        parent_is_root=parent_sym.plan is None,
        parent_row_order=parent_row_order,
    )
