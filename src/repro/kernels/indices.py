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
  (``parent.index[perm, d_col]``), so the factor gather lands directly in
  reduction order and the per-rebuild permutation pass disappears entirely;
* the parent-row permutation (``None`` when the plan's order is already
  sorted and no layout applies) for gathering parent/root values;
* the ``reduceat`` segment starts;
* a :class:`LengthClassLayout` when some segments have at most
  :data:`MAX_CLASS_ROWS` rows and reordering adds no pass (see
  :func:`make_node_index`).

**Length classes.**  ``np.add.reduceat`` makes one inner-loop call per
(segment, column), which dominates nodes whose segments are mostly one to a
few rows long.  The layout orders the sources as: every segment longer than
:data:`MAX_CLASS_ROWS` rows first, in segment order (summed by ``reduceat``
as before), then for each length ``L = 1..8`` the sources of all length-``L``
segments as one ``(count_L, L)`` block, summed for all those segments at
once.  Below 9 rows ``reduceat`` computes ``x0 + (((x1 + x2) + x3) ...)``;
:func:`length_class_sum` uses exactly that order, so every output is
bitwise identical.  The order is folded into ``perm`` and the gather arrays.

These arrays are cached on the :class:`~repro.core.symbolic.SymbolicTree`,
so engines, restarts, and parallel workers sharing a tree share them too.
"""

from __future__ import annotations

import numpy as np

from .blocking import segment_blocks

#: longest segment summed by a length class; ``np.add.reduceat`` switches
#: from sequential to 8-way pairwise summation at one row more.
MAX_CLASS_ROWS = 8


class LengthClassLayout:
    """Where each region of the reordered sources lands in the output.

    Region 0 holds the segments longer than :data:`MAX_CLASS_ROWS` rows;
    region ``L`` (1..8) holds the length-``L`` segments.  ``segs`` lists
    the output row of every segment in layout order; region ``r`` owns
    ``segs[seg_bounds[r]:seg_bounds[r + 1]]`` (ascending) and the sources
    ``src_bounds[r]:src_bounds[r + 1]``.  ``long_starts`` are region 0's
    ``reduceat`` offsets.
    """

    __slots__ = ("segs", "long_starts", "seg_bounds", "src_bounds")

    def __init__(self, segs: np.ndarray, long_starts: np.ndarray,
                 seg_bounds: tuple[int, ...], src_bounds: tuple[int, ...]):
        self.segs = segs
        self.long_starts = long_starts
        self.seg_bounds = seg_bounds
        self.src_bounds = src_bounds

    def nbytes(self) -> int:
        return int(self.segs.nbytes + self.long_starts.nbytes)


def length_class_layout(starts: np.ndarray, n_sources: int):
    """``(order, layout)`` for a segment structure, or ``None`` when no
    segment has at most :data:`MAX_CLASS_ROWS` rows.

    ``order`` lists the segment-order source positions in layout order.
    O(n) with no sort: one class-membership pass per non-empty class.
    """
    if starts.shape[0] == 0:
        return None
    lens = np.diff(starts, append=n_sources)
    cls = np.where(lens > MAX_CLASS_ROWS, 0, lens).astype(np.uint8)
    counts = np.bincount(cls, minlength=MAX_CLASS_ROWS + 1)
    if counts[0] == starts.shape[0]:
        return None
    classes = [c for c in range(MAX_CLASS_ROWS + 1) if counts[c]]
    src_cls = np.repeat(cls, lens)
    order = np.concatenate([np.flatnonzero(src_cls == c) for c in classes])
    segs = np.concatenate([np.flatnonzero(cls == c) for c in classes])
    long_lens = lens[segs[:counts[0]]]
    long_starts = np.cumsum(long_lens) - long_lens
    sizes = counts * np.arange(MAX_CLASS_ROWS + 1)
    sizes[0] = long_lens.sum()
    layout = LengthClassLayout(
        segs=segs.astype(np.intp, copy=False),
        long_starts=long_starts.astype(np.intp, copy=False),
        seg_bounds=tuple(int(b) for b in np.cumsum(np.r_[0, counts])),
        src_bounds=tuple(int(b) for b in np.cumsum(np.r_[0, sizes])),
    )
    return order.astype(np.intp, copy=False), layout


def length_class_sum(block: np.ndarray, width: int, out: np.ndarray) -> None:
    """Sum each run of ``width`` rows of ``block`` into one row of ``out``.

    ``block`` is ``(k * width, R)``, ``out`` is ``(k, R)``, and
    ``2 <= width <= MAX_CLASS_ROWS`` (one-row runs need no sum).  The
    order is ``np.add.reduceat``'s below 9 rows — ``x0 + (((x1 + x2) +
    x3) ...)`` — so the result is bitwise equal to ``reduceat`` over the
    same runs.
    """
    rows = block.reshape(out.shape[0], width, -1)
    if width == 2:
        np.add(rows[:, 0], rows[:, 1], out=out)
        return
    np.add(rows[:, 1], rows[:, 2], out=out)
    for j in range(3, width):
        np.add(out, rows[:, j], out=out)
    np.add(rows[:, 0], out, out=out)


class NodeKernelIndex:
    """Precomputed flat gather/reduction indices for one non-root node."""

    __slots__ = (
        "node_id", "delta_modes", "n_sources", "n_segments", "gather",
        "perm", "starts", "identity", "layout", "_blocks", "_stacked",
        "_runs", "_root_vals",
    )

    def __init__(self, node_id: int, delta_modes: tuple[int, ...],
                 gather: tuple[np.ndarray, ...], perm: np.ndarray | None,
                 starts: np.ndarray, n_sources: int, identity: bool,
                 layout: LengthClassLayout | None = None):
        self.node_id = node_id
        self.delta_modes = delta_modes
        self.gather = gather
        self.perm = perm
        self.starts = starts
        self.n_sources = int(n_sources)
        self.n_segments = int(starts.shape[0])
        self.identity = bool(identity)
        self.layout = layout
        self._blocks: dict[int, list] = {}
        self._stacked: np.ndarray | None = None
        self._runs: tuple[np.ndarray, np.ndarray] | None = None
        #: (root values array, the same values in gather order)
        self._root_vals: tuple[np.ndarray, np.ndarray] | None = None

    def blocks(self, block_rows: int, seg_lo: int = 0,
               seg_hi: int | None = None):
        """Yield ``(src_lo, src_hi, width, rows, local_starts)`` work items
        covering output segments ``[seg_lo, seg_hi)``.

        Sources ``src_lo:src_hi`` (in gather order) reduce into ``out[rows]``:
        ``width == 0`` by ``reduceat`` at ``local_starts``, otherwise as
        runs of ``width`` rows (:func:`length_class_sum`).  ``rows`` is a
        slice without a layout, else an ascending index array.
        """
        if seg_hi is None:
            seg_hi = self.n_segments
        lay = self.layout
        if lay is None:
            for lo, hi, s_lo, s_hi, lstarts in segment_blocks(
                self.starts, self.n_sources, block_rows,
                seg_lo=seg_lo, seg_hi=seg_hi,
            ):
                yield lo, hi, 0, slice(s_lo, s_hi), lstarts
            return
        for width in range(MAX_CLASS_ROWS + 1):
            b_lo, b_hi = lay.seg_bounds[width], lay.seg_bounds[width + 1]
            if b_lo == b_hi:
                continue
            region = lay.segs[b_lo:b_hi]
            a, b = np.searchsorted(region, (seg_lo, seg_hi))
            if a == b:
                continue
            src0 = lay.src_bounds[width]
            if width == 0:
                for lo, hi, s_lo, s_hi, lstarts in segment_blocks(
                    lay.long_starts, lay.src_bounds[1], block_rows,
                    seg_lo=int(a), seg_hi=int(b),
                ):
                    yield lo, hi, 0, region[s_lo:s_hi], lstarts
                continue
            step = (b - a if block_rows <= 0
                    else max(1, block_rows // width))
            for s in range(a, b, step):
                e = min(s + step, b)
                yield src0 + s * width, src0 + e * width, width, region[s:e], None

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

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(run_starts, rows)``: in gather order every segment is one
        contiguous run of sources; run ``k`` starts at ``run_starts[k]``
        and sums into output row ``rows[k]`` (for fused backends)."""
        if self._runs is None:
            lay = self.layout
            if lay is None:
                self._runs = (self.starts,
                              np.arange(self.n_segments, dtype=np.intp))
            else:
                parts = [lay.long_starts]
                for width in range(1, MAX_CLASS_ROWS + 1):
                    count = lay.seg_bounds[width + 1] - lay.seg_bounds[width]
                    parts.append(lay.src_bounds[width]
                                 + width * np.arange(count, dtype=np.intp))
                self._runs = (np.concatenate(parts), lay.segs)
        return self._runs

    def nbytes(self) -> int:
        """Bytes held by the cached index structures."""
        total = self.starts.nbytes + sum(g.nbytes for g in self.gather)
        if self.perm is not None:
            total += self.perm.nbytes
        if self.layout is not None:
            total += self.layout.nbytes()
        if self._root_vals is not None:
            total += self._root_vals[1].nbytes
        if self._stacked is not None:
            total += self._stacked.nbytes
        if self._runs is not None:  # the array not shared with the above
            total += self._runs[0 if self.layout is not None else 1].nbytes
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
                    n_sources: int, identity: bool,
                    parent_is_root: bool) -> NodeKernelIndex:
    """Build a :class:`NodeKernelIndex` from the parent's delta-mode index
    ``columns`` (parent row order), the plan's source permutation
    (``None`` = identity) and its segment ``starts``.

    The length-class layout applies only where it adds no pass: when the
    node already gathers its parent's value rows through a permutation, or
    reads root values (gathered once per root-values array).  A sorted
    child of a non-root node reads its parent's rows as contiguous slices;
    reordering would turn that into an ``(n, R)`` gather per rebuild.
    """
    starts = np.ascontiguousarray(starts, dtype=np.intp)
    perm = (None if plan_perm is None
            else np.ascontiguousarray(plan_perm, dtype=np.intp))
    layout = None
    if not identity and (perm is not None or parent_is_root):
        built = length_class_layout(starts, n_sources)
        if built is not None:
            order, layout = built
            perm = order if perm is None else perm[order]
    gather = tuple(
        np.ascontiguousarray(col if perm is None else col[perm],
                             dtype=np.intp)
        for col in columns
    )
    return NodeKernelIndex(
        node_id=node_id, delta_modes=tuple(delta_modes), gather=gather,
        perm=perm, starts=starts, n_sources=n_sources, identity=identity,
        layout=layout,
    )


def build_node_index(sym, parent_sym) -> NodeKernelIndex:
    """Build the kernel index for ``sym`` (a non-root
    :class:`~repro.core.symbolic.NodeSymbolic`) from its parent's block."""
    plan = sym.plan
    assert plan is not None, "root nodes have no kernel index"
    return make_node_index(
        sym.node_id, sym.delta_modes,
        [parent_sym.index[:, d_col] for d_col in sym.delta_parent_cols],
        None if plan.has_identity_perm else plan.perm,
        plan.starts, plan.n_sources, plan.is_identity,
        parent_is_root=parent_sym.plan is None,
    )
