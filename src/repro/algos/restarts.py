"""Multi-restart CP-ALS and rank selection.

CP-ALS is sensitive to initialization, so practice runs several restarts and
keeps the best fit; rank selection sweeps `R` and looks for the fit knee.
Both workloads amortize the engine's symbolic phase across runs — the
amortization argument of the memoization literature — which this module
implements by sharing one :class:`SymbolicTree` across all restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.cpals import CPResult, cp_als
from ..core.engine import MemoizedMttkrp
from ..core.strategy import resolve_strategy
from ..core.symbolic import SymbolicTree
from ..core.validate import check_positive_int, check_random_state
from ..obs.health import (FitTrajectory, TRAJECTORY_STALLED,
                          TRAJECTORY_SWAMPED, congruence_from_factors)


@dataclass
class RestartReport:
    """All restart outcomes plus the winner."""

    results: list[CPResult]
    best_index: int
    #: restart index -> {"iteration": int, "reason": label} for restarts
    #: the ``early_stop`` classifier cut short (empty otherwise).
    early_stops: dict[int, dict] = field(default_factory=dict)

    @property
    def best(self) -> CPResult:
        return self.results[self.best_index]

    def fits(self) -> list[float]:
        return [r.fit for r in self.results]


class _HopelessRestartStopper:
    """Per-restart cp_als callback ending stalled/swamped runs early.

    Fully deterministic: the decision depends only on the restart's own
    fit series and factor congruence (via
    :class:`repro.obs.health.FitTrajectory`), never on wall time or
    telemetry state, so repeated runs cut the same restarts at the same
    iterations.  A wrapped user callback still runs first and its truthy
    return is honored unrecorded (it is the caller's stop, not ours).
    Like any ``cp_als`` callback, both see a model that shares the run's
    arrays, read-only, for the duration of the call only: copy it to keep
    it.
    """

    def __init__(self, index: int, record: dict, *, window: int,
                 stall_tol: float, swamp_congruence: float,
                 user_callback=None):
        self.index = index
        self.record = record
        self.user_callback = user_callback
        self.trajectory = FitTrajectory(
            window=window, stall_tol=stall_tol,
            swamp_congruence=swamp_congruence,
        )

    def __call__(self, iteration: int, fit: float, model) -> bool:
        if self.user_callback is not None and self.user_callback(
                iteration, fit, model):
            return True
        congruence, _ = congruence_from_factors(model.factors)
        label, _rate = self.trajectory.observe(fit, congruence)
        if label in (TRAJECTORY_STALLED, TRAJECTORY_SWAMPED):
            self.record[self.index] = {
                "iteration": iteration, "reason": label,
            }
            return True
        return False


def cp_als_restarts(
    tensor: CooTensor,
    rank: int,
    n_restarts: int = 5,
    *,
    strategy="auto",
    random_state=None,
    early_stop: bool = False,
    early_stop_window: int = 5,
    early_stop_tol: float = 1e-6,
    early_stop_congruence: float = 0.97,
    **cp_kwargs,
) -> RestartReport:
    """Run CP-ALS from ``n_restarts`` random inits, sharing symbolic work.

    With ``strategy='auto'`` the planner runs once, under ``memory_budget``
    when one is among the keyword arguments; the chosen strategy's symbolic
    tree is then reused by every restart (restart ``k`` costs only numeric
    work).  Extra keyword arguments go to :func:`repro.core.cpals.cp_als`.

    With ``early_stop=True`` each restart is watched by the
    numerical-health stall/swamp classifier
    (:class:`repro.obs.health.FitTrajectory`): a restart whose fit
    flat-lines below ``early_stop_tol`` over ``early_stop_window``
    iterations — or swamps with component congruence at/above
    ``early_stop_congruence`` — is terminated instead of burning its
    remaining iteration budget.  Every restart still runs (seeds are drawn
    in the same order as without the option) and ``best_index`` selection
    stays deterministic: ``argmax`` over the final fits, first winner on
    ties.  Cut-short restarts are recorded in
    :attr:`RestartReport.early_stops`.
    """
    check_positive_int(n_restarts, "n_restarts")
    rng = check_random_state(random_state)
    if isinstance(strategy, str) and strategy.lower() == "auto":
        from ..model.planner import plan

        # The shared engine makes cp_als skip its own planning, so the
        # budget it would have honoured is applied here.
        chosen = plan(
            tensor, rank, memory_budget=cp_kwargs.get("memory_budget")
        ).best.strategy
    else:
        chosen = resolve_strategy(strategy, tensor.ndim)
    shared_symbolic = SymbolicTree(tensor, chosen)

    def engine_factory(t: CooTensor) -> MemoizedMttkrp:
        return MemoizedMttkrp(t, chosen, symbolic=shared_symbolic)

    results = []
    early_stops: dict[int, dict] = {}
    for i in range(n_restarts):
        seed = int(rng.integers(0, 2**31 - 1))
        kwargs = cp_kwargs
        if early_stop:
            kwargs = dict(cp_kwargs)
            kwargs["callback"] = _HopelessRestartStopper(
                i, early_stops,
                window=early_stop_window, stall_tol=early_stop_tol,
                swamp_congruence=early_stop_congruence,
                user_callback=cp_kwargs.get("callback"),
            )
        results.append(
            cp_als(
                tensor, rank, engine_factory=engine_factory,
                random_state=seed, **kwargs,
            )
        )
    best_index = int(np.argmax([r.fit for r in results]))
    return RestartReport(results=results, best_index=best_index,
                         early_stops=early_stops)


@dataclass
class RankSelection:
    """Fit-vs-rank sweep and the suggested knee."""

    ranks: list[int]
    fits: dict[int, float]
    suggested_rank: int
    reports: dict[int, RestartReport] = field(default_factory=dict)


def select_rank(
    tensor: CooTensor,
    ranks: Sequence[int],
    *,
    n_restarts: int = 2,
    min_gain: float = 0.01,
    random_state=None,
    **cp_kwargs,
) -> RankSelection:
    """Sweep CP ranks and suggest the first rank with diminishing fit gain.

    ``min_gain`` is the fit improvement below which a larger rank is judged
    not worth its parameters (a simple, standard knee rule).
    """
    ranks = sorted(set(int(r) for r in ranks))
    if not ranks:
        raise ValueError("ranks must be non-empty")
    rng = check_random_state(random_state)
    fits: dict[int, float] = {}
    reports: dict[int, RestartReport] = {}
    for r in ranks:
        report = cp_als_restarts(
            tensor, r, n_restarts, random_state=rng, **cp_kwargs
        )
        reports[r] = report
        fits[r] = report.best.fit
    suggested = ranks[-1]
    for prev, cur in zip(ranks, ranks[1:]):
        if fits[cur] - fits[prev] < min_gain:
            suggested = prev
            break
    return RankSelection(
        ranks=ranks, fits=fits, suggested_rank=suggested, reports=reports
    )
