"""ALTO-style adaptive linearized layout: one bit-packed index per nonzero.

The COO and kernel-index layouts keep one int64 per (nonzero, mode): an
order-N tensor pays N index words per nonzero per MTTKRP, and a memoized
node with d delta modes keeps d flat gather arrays.  ALTO (Laukemann et
al., see PAPERS.md) observes that the whole coordinate tuple fits in *one*
machine word when ``sum(ceil(log2(I_m)))`` bits fit: pack every mode into
a disjoint bit field of a single ``uint64`` and recover any mode with a
cached shift + mask.  Index storage drops by the tensor order; the price
is two integer ops per recovered coordinate — a flops-for-words trade the
cost model (:func:`repro.model.cost.execution_candidates`) scores per
tensor, Dynasor-style, instead of hard-coding either layout.

Three consumers:

* :class:`AltoKernel` — a registry backend (``REPRO_KERNEL=alto``) for
  the memoized engines: packs each node's delta-mode gather arrays into
  one code array (cached on the :class:`~repro.kernels.indices
  .NodeKernelIndex`) and decodes per cache-sized block.  Bitwise
  identical to ``numpy`` — the decoded integers are exactly the cached
  gather values, so every float op sees identical inputs in identical
  order.
* :class:`~repro.parallel.procpool.AltoCooMttkrp` — the thread-tier COO
  baseline on packed codes.
* :class:`~repro.parallel.procpool.ProcessMttkrp` with ``layout="alto"``
  — ships one code array instead of an index *matrix* through shared
  memory, and uses :func:`aligned_chunks` to snap shard boundaries to
  linearization ranges: no mode-0 output row spans two shards, so shards
  accumulate the leading mode conflict-free without partials.
"""

from __future__ import annotations

import numpy as np

from ..core.dtypes import INDEX_DTYPE
from .backends import NumpyKernel, RebuildContext

__all__ = [
    "AltoEncoding", "AltoKernel", "PackedGather",
    "alto_bits", "fits_alto", "aligned_chunks",
]

#: bit budget for one packed code (uint64 storage, int64-safe range).
MAX_BITS = 63


def alto_bits(dims) -> list[int]:
    """Bit-field width per mode: ``ceil(log2(I_m))`` (0 for size-1 modes)."""
    out = []
    for d in dims:
        d = int(d)
        if d < 1:
            raise ValueError(f"mode sizes must be >= 1, got {d}")
        out.append((d - 1).bit_length())
    return out


def fits_alto(dims) -> bool:
    """Whether one uint64 code can hold a full coordinate tuple."""
    return sum(alto_bits(dims)) <= MAX_BITS


class AltoEncoding:
    """Bit-packed linearized coordinates for one index matrix.

    Mode-major packing (mode 0 in the highest field) makes code order
    agree with the tensor's canonical lexicographic nonzero order, so
    contiguous nonzero ranges *are* linearization ranges.
    """

    __slots__ = ("dims", "bits", "shifts", "masks", "codes")

    def __init__(self, dims: tuple[int, ...], codes: np.ndarray):
        self.dims = tuple(int(d) for d in dims)
        self.bits = alto_bits(self.dims)
        total = sum(self.bits)
        if total > MAX_BITS:
            raise ValueError(
                f"alto layout needs {total} bits for dims {self.dims}; "
                f"max is {MAX_BITS}"
            )
        shifts = []
        acc = total
        for b in self.bits:
            acc -= b
            shifts.append(acc)
        self.shifts = tuple(shifts)
        self.masks = tuple((1 << b) - 1 for b in self.bits)
        self.codes = codes

    @classmethod
    def encode(cls, idx: np.ndarray, dims) -> "AltoEncoding":
        """Pack an ``(nnz, N)`` index matrix into ``(nnz,)`` uint64 codes."""
        dims = tuple(int(d) for d in dims)
        enc = cls(dims, np.zeros(idx.shape[0], dtype=np.uint64))
        codes = enc.codes
        for m, shift in enumerate(enc.shifts):
            col = idx[:, m].astype(np.uint64)
            if shift:
                col <<= np.uint64(shift)
            codes |= col
        return enc

    def decode(self, mode: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Recover one mode's coordinates for ``codes[lo:hi]`` (int64)."""
        sl = self.codes[lo:hi if hi is not None else self.codes.shape[0]]
        field = sl >> np.uint64(self.shifts[mode])
        if mode != 0:  # the top field needs no mask
            field &= np.uint64(self.masks[mode])
        return field.astype(INDEX_DTYPE, copy=False)

    @property
    def nnz(self) -> int:
        return int(self.codes.shape[0])

    def nbytes(self) -> int:
        return int(self.codes.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AltoEncoding(dims={self.dims}, bits={self.bits}, "
                f"nnz={self.nnz})")


def aligned_chunks(mode0: np.ndarray, k: int) -> list[tuple[int, int]]:
    """``k`` contiguous nonzero ranges snapped to mode-0 boundaries.

    ``mode0`` is the (nondecreasing, canonical-order) leading-mode column.
    Each near-equal boundary moves left to the first nonzero of the mode-0
    slice it lands in, so no output row of a leading-mode MTTKRP is
    written by two shards: shard accumulation is conflict-free.  Empty
    ranges (heavy slices swallowing a boundary) are dropped.
    """
    from ..parallel.partition import contiguous_chunks

    n = int(mode0.shape[0])
    bounds = sorted({
        0, n, *(
            int(np.searchsorted(mode0, mode0[b], side="left"))
            for _, b in contiguous_chunks(n, k)[:-1] if b < n
        ),
    })
    return [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]


class PackedGather:
    """One node's delta-mode gather arrays packed into a single code array."""

    __slots__ = ("codes", "shifts", "masks")

    def __init__(self, codes: np.ndarray, shifts: tuple[int, ...],
                 masks: tuple[int, ...]):
        self.codes = codes
        self.shifts = shifts
        self.masks = masks

    def decode(self, field: int, lo: int, hi: int) -> np.ndarray:
        sl = self.codes[lo:hi] >> np.uint64(self.shifts[field])
        if field != 0:
            sl &= np.uint64(self.masks[field])
        return sl.astype(np.intp, copy=False)


def _packed_for(ki, dims: tuple[int, ...]):
    """The node's cached :class:`PackedGather` (False = not packable)."""
    packed = ki._alto
    if packed is None:
        bits = alto_bits(dims)
        if len(ki.gather) < 2 or sum(bits) > MAX_BITS:
            # One delta mode: the flat gather already is a linearized
            # index, nothing to fuse.  Too many bits: fall back.
            packed = False
        else:
            shifts, acc = [], sum(bits)
            for b in bits:
                acc -= b
                shifts.append(acc)
            codes = np.zeros(ki.n_sources, dtype=np.uint64)
            for g, shift in zip(ki.gather, shifts):
                col = g.astype(np.uint64)
                if shift:
                    col <<= np.uint64(shift)
                codes |= col
            packed = PackedGather(
                codes, tuple(shifts), tuple((1 << b) - 1 for b in bits)
            )
        ki._alto = packed
    return packed


class AltoKernel(NumpyKernel):
    """Blocked rebuild reading one packed code array per node.

    Runs :class:`~repro.kernels.backends.NumpyKernel`'s block loop with
    only the *source* of the gather integers swapped, so outputs are
    bitwise equal.  Nodes with a single delta mode, or whose fields
    overflow 63 bits, run the plain numpy path (same result either way).
    """

    name = "alto"

    def _index_reader(self, ctx: RebuildContext, ki):
        dims = tuple(ctx.factors[d].shape[0] for d in ki.delta_modes)
        packed = _packed_for(ki, dims)
        if packed is False:
            return super()._index_reader(ctx, ki)
        return packed.decode


# The thread-tier COO backend on packed codes (AltoCooMttkrp) lives in
# repro.parallel.procpool: parallel already depends on kernels, never the
# reverse.
