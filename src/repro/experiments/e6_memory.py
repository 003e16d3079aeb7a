"""E6 — time/memory trade-off of memoization strategies (figure).

Memoization buys flops with memory.  For each order we report, per strategy:
predicted per-iteration work, peak memoized-value bytes, and symbolic index
bytes — the frontier the planner navigates when given a memory budget.
Counts are exact (symbolic-tree node sizes), so the predicted columns are
deterministic — and the **measured** column proves it: each strategy also
runs a short real CP-ALS under :mod:`repro.obs.memory`, and the tracker's
steady-state window peak must land on the prediction byte-for-byte
(``measured == pred`` in the table, ``measured_matches_predicted`` in the
observations).
"""

from __future__ import annotations

from ..core.cpals import cp_als
from ..core.strategy import balanced_binary, chain, star
from ..core.symbolic import SymbolicTree
from ..model.cost import cost_from_symbolic
from ..obs import switch
from .common import (DEFAULT_RANK, DEFAULT_SCALE, ExperimentResult,
                     load_scaled)

EXP_ID = "E6"
TITLE = "Time/memory trade-off: peak memory vs per-iteration flops"

#: ALS iterations per measurement run; the tracker's steady-state peak is
#: read from the last window (the first may run from a cold cache).
MEASURE_ITERS = 2


def _measured_peak_bytes(tensor, strategy, rank: int) -> int:
    """Peak live memoized-value bytes from a real (short) CP-ALS run."""
    with switch.enabled("mem") as on:
        result = cp_als(
            tensor, rank, strategy=strategy, n_iter_max=MEASURE_ITERS,
            tol=0.0, random_state=0,
        )
        readings = result.memory_readings or on["mem"].readings
    return readings[-1].measured_peak_bytes if readings else 0


def run(scale: float = DEFAULT_SCALE, rank: int = DEFAULT_RANK,
        orders=(3, 4, 6, 8), family: str = "skew") -> ExperimentResult:
    rows = []
    overheads = {}
    n_match = n_measured = 0
    for order in orders:
        tensor = load_scaled(f"{family}{order}d", scale)
        coo_bytes = tensor.nbytes()
        strategies = [star(order), chain(order, order - 2),
                      balanced_binary(order)]
        star_flops = None
        for strat in strategies:
            report = cost_from_symbolic(SymbolicTree(tensor, strat), rank)
            if star_flops is None:
                star_flops = report.flops_per_iteration
            mem_ratio = report.total_memory_bytes / coo_bytes
            overheads[(order, strat.name)] = mem_ratio
            measured = _measured_peak_bytes(tensor, strat, rank)
            n_measured += 1
            if measured == report.peak_value_bytes:
                n_match += 1
            rows.append([
                order,
                strat.name,
                report.flops_per_iteration,
                round(star_flops / report.flops_per_iteration, 2),
                round(report.peak_value_bytes / 1e6, 3),
                round(measured / 1e6, 3),
                "yes" if measured == report.peak_value_bytes else "NO",
                round(report.index_bytes / 1e6, 3),
                round(mem_ratio, 2),
            ])
    bdt_overheads = [v for (o, n), v in overheads.items() if n == "bdt"]
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["order", "strategy", "flops/iter", "flop reduction",
                 "peak values MB", "measured MB", "measured == pred",
                 "index MB", "total mem / coo mem"],
        rows=rows,
        expected_shape=(
            "Full memoization (bdt) costs O(log N) extra value matrices and "
            "a few COO copies of kernel indices (gather columns, parent-row "
            "maps, starts, row orders), for an (N-1)/log N-and-better flop "
            "reduction; the star needs near-zero value memory but maximal "
            "flops, and N-1 gather columns over all nonzeros per leaf.  "
            "The measured column "
            "(live-byte tracker on a real run) must equal the symbolic "
            "prediction exactly."
        ),
        observations={
            "max_bdt_memory_ratio": max(bdt_overheads),
            "memory_ratio_by_strategy": {
                f"{o}:{n}": v for (o, n), v in overheads.items()
            },
            "measured_matches_predicted": n_match == n_measured,
            "n_measured": n_measured,
        },
    )
