"""Analytic cost model for memoization strategies.

Given a strategy tree and the nonzero count of every intermediate node, the
model predicts — exactly, by construction — the flop and word counts that the
engine's operation counters will report for one CP-ALS iteration, plus the
peak memory held by memoized value matrices and symbolic index structures.
Predicted wall-clock time is a two-parameter linear model
``alpha * flops + beta * words`` calibrated per machine
(:mod:`repro.model.calibrate`).

The flop/word conventions are shared with
:func:`repro.core.engine.contraction_work`; the test suite asserts the
model's per-iteration predictions equal the engine's measured counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.dtypes import (INDEX_ITEMSIZE, MAX_UINT16_ROWS, VALUE_ITEMSIZE,
                           index_dtype)
from ..core.engine import contraction_work
from ..core.strategy import MemoStrategy
from ..core.symbolic import SymbolicTree


@dataclass(frozen=True)
class MachineModel:
    """Two-parameter time model: seconds = alpha*flops + beta*words."""

    alpha_per_flop: float
    beta_per_word: float
    name: str = "generic"

    def seconds(self, flops: float, words: float) -> float:
        return self.alpha_per_flop * flops + self.beta_per_word * words


#: Rough default calibration for a modern x86 core running NumPy kernels.
#: Use :func:`repro.model.calibrate.calibrate_machine` for measured values.
DEFAULT_MACHINE = MachineModel(
    alpha_per_flop=2.5e-10, beta_per_word=4.0e-10, name="default"
)


@dataclass
class CostReport:
    """Predicted per-iteration cost of one strategy on one tensor.

    Attributes
    ----------
    strategy: the evaluated strategy.
    rank: CP rank assumed.
    flops_per_iteration / words_per_iteration:
        work for one full CP-ALS iteration (every non-root node rebuilt
        once, every leaf scattered once).
    peak_value_bytes:
        maximum bytes of simultaneously live memoized value matrices under
        the strategy's mode schedule.
    index_bytes:
        bytes of the index arrays the rebuilds read (root coordinates,
        kernel indices, leaf output rows), allocated once by the symbolic
        pass and held for the run's lifetime.
    node_nnz: per-node intermediate nonzero counts (model input).
    predicted_seconds: ``machine.seconds(flops, words)``.
    """

    strategy: MemoStrategy
    rank: int
    flops_per_iteration: int
    words_per_iteration: int
    peak_value_bytes: int
    index_bytes: int
    node_nnz: list[int]
    predicted_seconds: float

    @property
    def total_memory_bytes(self) -> int:
        """Peak transient values + persistent index structures."""
        return self.peak_value_bytes + self.index_bytes

    def summary(self) -> str:
        return (
            f"{self.strategy.name:<14s} flops/iter={self.flops_per_iteration:>14,d} "
            f"words/iter={self.words_per_iteration:>14,d} "
            f"peak_mem={self.total_memory_bytes / 1e6:>9.2f}MB "
            f"pred={self.predicted_seconds * 1e3:>9.3f}ms"
        )


def iteration_flops_words(
    strategy: MemoStrategy, node_nnz: Sequence[int], rank: int
) -> tuple[int, int]:
    """(flops, words) for one CP-ALS iteration under ``strategy``.

    Every non-root node is rebuilt exactly once per iteration (the schedule
    property of post-order mode updates), and every leaf's value matrix is
    read once when scattered into the MTTKRP output.
    """
    flops = 0
    words = 0
    for node in strategy.nodes:
        if node.parent is None:
            continue
        f, w = contraction_work(node_nnz[node.parent], rank, len(node.delta))
        flops += f
        words += w
        if not node.children:
            words += node_nnz[node.id] * rank
    return flops, words


@dataclass(frozen=True)
class NodeCostTerms:
    """One tree node's predicted contribution to an iteration's cost.

    One entry exists per strategy node (the root included, with zero work)
    so measured attributions align node-for-node by id.  ``words`` includes
    the leaf's scatter read (``scatter_words``); summing ``flops`` /
    ``words`` over all nodes reproduces :func:`iteration_flops_words`
    exactly — a tested invariant, not an approximation.
    """

    node_id: int
    modes: tuple[int, ...]
    parent: int | None
    delta: tuple[int, ...]
    nnz: int
    parent_nnz: int | None
    flops: int
    words: int
    scatter_words: int
    value_bytes: int
    index_bytes: int
    #: mode whose sub-iteration rebuilds this node in the steady-state
    #: schedule (None for the root, which is never rebuilt).
    rebuild_mode: int | None


def node_cost_terms(
    strategy: MemoStrategy, node_nnz: Sequence[int], rank: int,
    shape: Sequence[int] | None = None,
) -> list[NodeCostTerms]:
    """Per-node decomposition of one iteration's predicted flops/words.

    The per-node terms are exactly the addends of
    :func:`iteration_flops_words`: each non-root node contributes one
    rebuild from its parent (``contraction_work``) plus, for leaves, the
    scatter read of its value matrix into the MTTKRP output.  Byte terms
    mirror :func:`simulate_peak_value_bytes` (value matrices) and
    :func:`symbolic_index_bytes` (index arrays, priced for the mode sizes
    ``shape``) per node.
    """
    if len(node_nnz) != len(strategy.nodes):
        raise ValueError(
            f"node_nnz has {len(node_nnz)} entries for "
            f"{len(strategy.nodes)} nodes"
        )
    rebuild_mode: dict[int, int] = {}
    for mode, built in strategy.rebuild_schedule():
        for nid in built:
            rebuild_mode[nid] = mode
    terms: list[NodeCostTerms] = []
    for node in strategy.nodes:
        nnz_t = int(node_nnz[node.id])
        if node.is_root:
            terms.append(NodeCostTerms(
                node_id=node.id, modes=node.modes, parent=None, delta=(),
                nnz=nnz_t, parent_nnz=None, flops=0, words=0,
                scatter_words=0, value_bytes=0,
                index_bytes=node_index_bytes(strategy, node_nnz, node.id,
                                             shape),
                rebuild_mode=None,
            ))
            continue
        parent_nnz = int(node_nnz[node.parent])  # type: ignore[index]
        flops, words = contraction_work(parent_nnz, rank, len(node.delta))
        scatter = nnz_t * rank if node.is_leaf else 0
        terms.append(NodeCostTerms(
            node_id=node.id, modes=node.modes, parent=node.parent,
            delta=node.delta, nnz=nnz_t, parent_nnz=parent_nnz,
            flops=flops, words=words + scatter, scatter_words=scatter,
            value_bytes=nnz_t * rank * VALUE_ITEMSIZE,
            index_bytes=node_index_bytes(strategy, node_nnz, node.id, shape),
            rebuild_mode=rebuild_mode.get(node.id),
        ))
    return terms


def per_mode_cost(
    strategy: MemoStrategy, node_nnz: Sequence[int], rank: int
) -> dict[int, dict[str, int]]:
    """Predicted per-mode flops/words: node terms grouped by rebuild mode.

    Each mode's entry sums the :func:`node_cost_terms` of the nodes its
    sub-iteration rebuilds, so the per-mode values partition the iteration
    totals exactly.
    """
    out: dict[int, dict[str, int]] = {
        m: {"flops": 0, "words": 0, "nodes": 0}
        for m in strategy.mode_order
    }
    for term in node_cost_terms(strategy, node_nnz, rank):
        if term.rebuild_mode is None:
            continue
        agg = out[term.rebuild_mode]
        agg["flops"] += term.flops
        agg["words"] += term.words
        agg["nodes"] += 1
    return out


def simulate_peak_value_bytes(
    strategy: MemoStrategy, node_nnz: Sequence[int], rank: int
) -> int:
    """Peak live memoized-value bytes over one iteration's schedule.

    Replays the engine's cache behaviour: computing leaf ``n`` materializes
    every node on its root path; updating mode ``n`` then destroys every node
    whose contracted set contains ``n``.  Returns the maximum concurrent
    total of non-root value-matrix bytes.
    """
    live: set[int] = set()
    peak = 0
    bytes_of = [
        node_nnz[i] * rank * VALUE_ITEMSIZE for i in range(len(strategy.nodes))
    ]
    # Two passes: caches persist across iterations, so steady-state peaks can
    # exceed the cold-start first iteration.  Doomed nodes are freed on
    # entering a sub-iteration, before the path materializes (the engine's
    # eager-free schedule).  A root path ends at the root, which holds no
    # memoized values.
    steps = [
        (strategy.invalidated_by(n),
         strategy.path_to_root(strategy.leaf_id(n))[:-1])
        for n in strategy.mode_order
    ]
    for _ in range(2):
        for stale, path in steps:
            live.difference_update(stale)
            live.update(path)
            peak = max(peak, sum(map(bytes_of.__getitem__, live)))
    return peak


def node_index_bytes(
    strategy: MemoStrategy, node_nnz: Sequence[int], node_id: int,
    shape: Sequence[int] | None = None,
) -> int:
    """Bytes of the index arrays node ``node_id`` keeps for the run
    (``SymbolicTree.node_index_nbytes``).

    Root: the tensor's ``int64`` coordinates (``nnz * N`` indices; counted,
    since the model compares storage across strategies that all share it).
    Non-root node ``t`` with parent ``p``: one gather column per delta mode
    (``nnz_p`` coordinates of that mode) and the parent-row map (``nnz_p``
    positions below ``nnz_p``), segment starts (``nnz_t`` positions below
    ``nnz_p``), its row order (``nnz_t`` positions below ``nnz_t``), a
    leaf's output rows (``nnz_t`` coordinates of its mode), and for a root
    child the root values in gather order (``nnz_p`` values).  Each array
    is priced at the dtype the symbolic pass stores it in
    (:func:`~repro.core.dtypes.index_dtype` of its range; ``shape`` gives
    the mode sizes, and without it every mode is taken to fit ``uint16``).
    A node without a parent-row map or an own row order holds less, so the
    model is an upper bound, exact for nodes that carry both.
    """
    node = strategy.nodes[node_id]
    nnz_t = int(node_nnz[node_id])
    if node.parent is None:
        return nnz_t * len(node.modes) * INDEX_ITEMSIZE

    def coordinate_bytes(mode: int) -> int:
        rows = MAX_UINT16_ROWS if shape is None else shape[mode]
        return index_dtype(rows, coordinate=True).itemsize

    nnz_p = int(node_nnz[node.parent])
    below_p = index_dtype(nnz_p).itemsize
    nbytes = (nnz_p * sum(coordinate_bytes(d) for d in node.delta)
              + (nnz_p + nnz_t) * below_p
              + nnz_t * index_dtype(nnz_t).itemsize)
    if node.is_leaf:
        nbytes += nnz_t * coordinate_bytes(node.modes[0])
    if strategy.nodes[node.parent].is_root:
        nbytes += nnz_p * VALUE_ITEMSIZE
    return nbytes


def symbolic_index_bytes(strategy: MemoStrategy, node_nnz: Sequence[int],
                         shape: Sequence[int] | None = None) -> int:
    """Bytes of the persistent index arrays, an upper bound on
    ``SymbolicTree.index_nbytes`` (:func:`node_index_bytes` summed over
    the nodes)."""
    return sum(node_index_bytes(strategy, node_nnz, node.id, shape)
               for node in strategy.nodes)


def cost_report(
    strategy: MemoStrategy,
    node_nnz: Sequence[int],
    rank: int,
    machine: MachineModel = DEFAULT_MACHINE,
    shape: Sequence[int] | None = None,
) -> CostReport:
    """Assemble a :class:`CostReport` from per-node nonzero counts (and
    the tensor's mode sizes ``shape``, which set the index widths)."""
    if len(node_nnz) != len(strategy.nodes):
        raise ValueError(
            f"node_nnz has {len(node_nnz)} entries for "
            f"{len(strategy.nodes)} nodes"
        )
    flops, words = iteration_flops_words(strategy, node_nnz, rank)
    return CostReport(
        strategy=strategy,
        rank=rank,
        flops_per_iteration=flops,
        words_per_iteration=words,
        peak_value_bytes=simulate_peak_value_bytes(strategy, node_nnz, rank),
        index_bytes=symbolic_index_bytes(strategy, node_nnz, shape),
        node_nnz=list(node_nnz),
        predicted_seconds=machine.seconds(flops, words),
    )


def cost_from_symbolic(
    symbolic: SymbolicTree, rank: int, machine: MachineModel = DEFAULT_MACHINE
) -> CostReport:
    """Cost report using exact node sizes from a built symbolic tree."""
    return cost_report(symbolic.strategy, symbolic.node_nnz(), rank, machine,
                       symbolic.tensor.shape)


# -- parallel scaling model ------------------------------------------------
#
# The strategy model above chooses *what* to memoize; the scaling model
# below prices running it on the thread-parallel memoized engine
# (:class:`repro.parallel.ParallelMemoizedMttkrp`) at ``p`` workers, with the
# same alpha/beta machine calibration as the serial prediction.


@dataclass(frozen=True)
class ExecutionParams:
    """Knobs of the thread-tier scaling model.

    ``gil_serial_fraction`` is the share of an iteration's wall time spent
    in interpreter glue between GIL-releasing NumPy kernels: it does not
    scale with threads.  Of the kernel remainder, ``memory_bound_fraction``
    scales only to the memory system's effective stream count
    ``bandwidth_workers`` and the rest scales to ``p``.
    ``bandwidth_workers=None`` (the default) defers to
    :func:`resolve_bandwidth_workers`: the measured saturation point from
    the host's ``repro-machine/v1`` calibration artifact when one exists,
    else the historical guess of 8 — an explicit value always wins.
    ``sync_seconds`` is one pool fan-out barrier, paid once per MTTKRP.
    """

    gil_serial_fraction: float = 0.45
    memory_bound_fraction: float = 0.6
    bandwidth_workers: int | None = None
    sync_seconds: float = 5e-5


DEFAULT_EXECUTION = ExecutionParams()

#: the pre-calibration guess for the memory system's effective stream
#: count, used only when no ``repro-machine/v1`` artifact exists.
FALLBACK_BANDWIDTH_WORKERS = 8


def resolve_bandwidth_workers(
    params: ExecutionParams = DEFAULT_EXECUTION,
) -> tuple[int, str]:
    """``(bandwidth_workers, source)`` for the scaling model.

    Source is ``"explicit"`` when the params pin a value, ``"calibrated"``
    when the host's roofline artifact supplies its measured saturation
    point (:func:`repro.model.calibrate.load_roofline` — load-only, never
    measures), and ``"default"`` for the
    :data:`FALLBACK_BANDWIDTH_WORKERS` guess.
    """
    if params.bandwidth_workers is not None:
        return int(params.bandwidth_workers), "explicit"
    from .calibrate import load_roofline

    roofline = load_roofline()
    if roofline is not None:
        return max(1, int(roofline.saturation_workers)), "calibrated"
    return FALLBACK_BANDWIDTH_WORKERS, "default"


def parallel_iteration_seconds(
    cost: CostReport,
    n_workers: int,
    machine: MachineModel = DEFAULT_MACHINE,
    params: ExecutionParams = DEFAULT_EXECUTION,
) -> float:
    """Predicted seconds of one CP-ALS iteration of ``cost``'s strategy on
    the thread-parallel memoized engine with ``n_workers`` threads.

    ``p`` is clamped to the CPUs this process may use
    (:func:`repro.parallel.pool.available_cpus`): threads past them add no
    throughput.  At ``p = 1`` the prediction is the serial
    ``alpha*flops + beta*words``; above it the GIL-serial share stays
    serial, the kernel remainder scales by Amdahl + bandwidth saturation,
    and every MTTKRP pays one fan-out barrier.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    from ..parallel.pool import available_cpus

    p = min(int(n_workers), available_cpus())
    serial = machine.seconds(
        cost.flops_per_iteration, cost.words_per_iteration
    )
    if p == 1:
        return serial
    bandwidth_workers, _ = resolve_bandwidth_workers(params)
    gil = serial * params.gil_serial_fraction
    kernel = (serial - gil) * (
        params.memory_bound_fraction / min(p, bandwidth_workers)
        + (1.0 - params.memory_bound_fraction) / p
    )
    return gil + kernel + params.sync_seconds * cost.strategy.n_modes
