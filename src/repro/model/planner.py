"""The adaptive planner: search, predict, select.

This is the paper's "model-driven" step.  Given a tensor and a CP rank, the
planner (1) finds the model-cheapest memoization trees by interval dynamic
programming (:mod:`repro.model.search`) and adds the named families, (2)
obtains every candidate node's intermediate size from one shared
:class:`~repro.model.overlap.DistinctCounter`, (3) scores each candidate with
the analytic cost model, and (4) returns the cheapest candidate whose memory
footprint fits the budget.  Because the candidate set always includes the
star tree (the no-memoization baseline), the selected plan can never be
predicted slower than the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.coo import CooTensor
from ..core.strategy import MemoStrategy, distinct, enumerate_binary
from ..core.validate import check_positive_int
from .cost import DEFAULT_MACHINE, CostReport, MachineModel, cost_report
from .overlap import DistinctCounter
from .search import search_candidates


#: highest order at which the budget fallback scores every contiguous
#: binary tree (429 at order 8).
ENUMERATION_LIMIT = 8


class InfeasibleBudgetError(RuntimeError, ValueError):
    """No candidate fits the memory budget.  A ``ValueError`` too, so the
    CLI reports it as a usage error rather than a crash."""


@dataclass
class ScoredStrategy:
    """One candidate with its predicted cost and feasibility."""

    strategy: MemoStrategy
    cost: CostReport
    feasible: bool

    @property
    def predicted_seconds(self) -> float:
        return self.cost.predicted_seconds


@dataclass
class PlannerReport:
    """Full outcome of a planning run.

    ``scored`` is sorted by predicted time (feasible candidates first);
    ``best`` is the fastest feasible candidate.
    """

    scored: list[ScoredStrategy]
    machine: MachineModel
    memory_budget: int | None
    count_method: str
    notes: list[str] = field(default_factory=list)

    @property
    def best(self) -> ScoredStrategy:
        for s in self.scored:
            if s.feasible:
                return s
        smallest = min(s.cost.total_memory_bytes for s in self.scored)
        raise InfeasibleBudgetError(
            f"no strategy fits memory budget {self.memory_budget:,} B; the "
            f"smallest candidate needs {smallest:,} B"
        )

    def ranked_names(self) -> list[str]:
        return [s.strategy.name for s in self.scored]

    def rank_of(self, strategy: MemoStrategy) -> int:
        """0-based rank of ``strategy`` in the predicted ordering."""
        sig = strategy.signature()
        for i, s in enumerate(self.scored):
            if s.strategy.signature() == sig:
                return i
        raise KeyError(f"strategy {strategy.name!r} not among candidates")

    def summary(self, top: int = 8) -> str:
        lines = [
            f"planner: {len(self.scored)} candidates, machine={self.machine.name}, "
            f"budget={'none' if self.memory_budget is None else self.memory_budget}",
        ]
        for s in self.scored[:top]:
            flag = " " if s.feasible else "!"
            lines.append(f"  {flag} {s.cost.summary()}")
        return "\n".join(lines)


def _score(strategy: MemoStrategy, counter: DistinctCounter, rank: int,
           machine: MachineModel, memory_budget: int | None) -> ScoredStrategy:
    ndim = counter.tensor.ndim
    if strategy.n_modes != ndim:
        raise ValueError(f"candidate {strategy.name!r} covers "
                         f"{strategy.n_modes} modes, tensor has {ndim}")
    report = cost_report(strategy, counter.node_nnz(strategy), rank, machine,
                         counter.tensor.shape)
    feasible = (
        memory_budget is None or report.total_memory_bytes <= memory_budget
    )
    return ScoredStrategy(strategy, report, feasible)


def plan(
    tensor: CooTensor,
    rank: int,
    *,
    candidates: Sequence[MemoStrategy] | None = None,
    memory_budget: int | None = None,
    machine: MachineModel | None = None,
    count_method: str = "exact",
    sample_size: int = 100_000,
    random_state=0,
) -> PlannerReport:
    """Select a memoization strategy for CP-ALS on ``tensor`` at ``rank``.

    Parameters
    ----------
    tensor: input sparse tensor.
    rank: CP rank the decomposition will use.
    candidates:
        strategies to consider; defaults to
        :func:`repro.model.search.search_candidates` (the named families
        plus the DP-optimal trees under the natural and size-sorted mode
        orders).
    memory_budget:
        cap in bytes on a candidate's ``total_memory_bytes``; infeasible
        candidates are kept in the report but never selected.  The DP
        ignores the cap, so when the fastest default candidate does not fit
        and the order is at most :data:`ENUMERATION_LIMIT`, every contiguous
        binary tree is scored too.
    machine:
        time-model constants; defaults to :data:`DEFAULT_MACHINE` (pass the
        result of :func:`repro.model.calibrate.calibrate_machine` for
        host-accurate predictions).
    count_method / sample_size / random_state:
        forwarded to :class:`DistinctCounter` (``'sampled'`` trades count
        accuracy for planning speed on huge tensors).
    """
    check_positive_int(rank, "rank")
    if tensor.ndim < 2:
        raise ValueError("planning requires an order >= 2 tensor")
    machine = machine or DEFAULT_MACHINE
    counter = DistinctCounter(
        tensor, method=count_method, sample_size=sample_size,
        random_state=random_state,
    )
    searched = candidates is None
    if searched:
        candidates = search_candidates(tensor, rank, counter=counter,
                                       machine=machine)
    if not candidates:
        raise ValueError("candidate list is empty")
    args = (counter, rank, machine, memory_budget)
    scored = [_score(strat, *args) for strat in candidates]
    if (searched and tensor.ndim <= ENUMERATION_LIMIT
            and not min(scored, key=lambda s: s.predicted_seconds).feasible):
        every = distinct([*candidates, *enumerate_binary(tensor.ndim)])
        scored += [_score(strat, *args) for strat in every[len(candidates):]]
    scored.sort(key=lambda s: (not s.feasible, s.predicted_seconds))
    notes = [f"distinct-count cache entries: {counter.cache_size()}"]
    return PlannerReport(
        scored=scored,
        machine=machine,
        memory_budget=memory_budget,
        count_method=count_method,
        notes=notes,
    )
