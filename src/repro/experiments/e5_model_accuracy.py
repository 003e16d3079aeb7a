"""E5 — model accuracy: predicted-best vs empirically-best strategy (table).

The claim that makes the system "model-driven": selecting by predicted cost
gives (nearly) the performance of exhaustively timing every candidate.  For
each dataset we time a pool of candidate strategies, then report where the
planner's pick lands in the measured ordering and the time penalty of
trusting the model instead of measuring everything.  (That the model's
per-node work terms equal what the engine counts is pinned by tier-1,
``tests/test_model_cost.py::TestModelMatchesCounters``.)
"""

from __future__ import annotations

from ..core.engine import MemoizedMttkrp
from ..core.strategy import balanced_binary, chain, distinct, star, two_way
from ..model.calibrate import calibrate_machine
from ..model.planner import plan
from ..synth.datasets import dataset_names
from .common import (DEFAULT_RANK, DEFAULT_SCALE, ExperimentResult,
                     iteration_seconds, load_scaled)

EXP_ID = "E5"
TITLE = "Planner accuracy: predicted-best vs measured-best strategy"


def candidate_pool(order: int):
    pool = [star(order), balanced_binary(order), two_way(order)]
    for m in (1, order - 2):
        if 1 <= m <= order - 2:
            pool.append(chain(order, m))
    return distinct(pool)


def run(scale: float = DEFAULT_SCALE, rank: int = DEFAULT_RANK,
        names=None, repeats: int = 3) -> ExperimentResult:
    names = list(names) if names is not None else dataset_names(analogs_only=True)
    machine = calibrate_machine()
    rows = []
    penalties = {}
    top2_hits = 0
    for name in names:
        tensor = load_scaled(name, scale)
        pool = candidate_pool(tensor.ndim)
        report = plan(tensor, rank, candidates=pool, machine=machine)
        predicted_best = report.best.strategy
        measured = {}
        for strat in pool:
            measured[strat.signature()] = iteration_seconds(
                tensor, lambda t, s=strat: MemoizedMttkrp(t, s), rank,
                repeats=repeats,
            )
        order_by_time = sorted(measured, key=measured.get)
        measured_rank = order_by_time.index(predicted_best.signature())
        penalty = measured[predicted_best.signature()] / measured[order_by_time[0]]
        penalties[name] = penalty
        if measured_rank <= 1:
            top2_hits += 1
        rows.append([
            name,
            len(pool),
            predicted_best.name,
            next(s.name for s in pool if s.signature() == order_by_time[0]),
            measured_rank + 1,
            round(penalty, 3),
        ])
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["dataset", "#candidates", "predicted best", "measured best",
                 "pred.'s measured rank", "time penalty"],
        rows=rows,
        expected_shape=(
            "Predicted-best lands in the measured top-2 on nearly every "
            "tensor; trusting the model costs only a few percent over "
            "exhaustive timing."
        ),
        observations={
            "top2_hits": top2_hits,
            "n_datasets": len(names),
            "max_penalty": max(penalties.values()),
            "penalty_by_dataset": penalties,
        },
    )
