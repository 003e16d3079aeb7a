"""E5 — model accuracy: predicted-best vs empirically-best strategy (table).

The claim that makes the system "model-driven": selecting by predicted cost
gives (nearly) the performance of exhaustively timing every candidate.  For
each dataset we time a pool of candidate strategies, then report where the
planner's pick lands in the measured ordering and the time penalty of
trusting the model instead of measuring everything.

The ``max node flop err`` column drills one level deeper: running the
predicted-best strategy under cost attribution
(:mod:`repro.obs.attribution`), it reports the worst per-tree-node
``|measured/predicted - 1|`` flop error.  The model's work terms are
exact by construction, so this must be 0 on the numpy backend — a nonzero
value localizes a model/engine misalignment to a specific node, where the
aggregate comparison would only show the symptom.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import MemoizedMttkrp
from ..core.strategy import (balanced_binary, chain, star, two_way)
from ..model.calibrate import calibrate_machine
from ..model.planner import plan
from ..obs import switch
from ..obs.observer import IterationRecord
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
    unique = {}
    for s in pool:
        unique.setdefault(s.signature(), s)
    return list(unique.values())


def _max_node_flop_err(tensor, strategy, rank: int) -> float:
    """Worst per-node ``|measured/predicted - 1|`` flop error for a run.

    Drives two ALS-style sweeps (MTTKRP + factor reinstall per mode) under
    cost attribution and compares the second, steady-state iteration's
    per-node measured flops against :func:`repro.model.cost.node_cost_terms`.
    """
    from ..core.dtypes import VALUE_DTYPE

    with switch.enabled("attr") as on:
        rec = on["attr"]
        engine = MemoizedMttkrp(tensor, strategy)
        rng = np.random.default_rng(0)
        factors = [
            rng.random((dim, rank), dtype=VALUE_DTYPE)
            for dim in tensor.shape
        ]
        engine.set_factors(factors)
        rec.register(strategy, engine.symbolic.node_nnz(), rank)
        reading = None
        for iteration in range(2):
            rec.begin_iteration(iteration)
            for n in engine.mode_order:
                engine.mttkrp(n)
                engine.update_factor(n, factors[n])
            reading = rec.end_iteration(IterationRecord(iteration))
    err = reading.max_node_err("flops") if reading is not None else None
    return float("nan") if err is None else err


def run(scale: float = DEFAULT_SCALE, rank: int = DEFAULT_RANK,
        names=None, repeats: int = 3) -> ExperimentResult:
    names = list(names) if names is not None else dataset_names(analogs_only=True)
    machine = calibrate_machine()
    rows = []
    penalties = {}
    node_errs = {}
    top2_hits = 0
    for name in names:
        tensor = load_scaled(name, scale)
        pool = candidate_pool(tensor.ndim)
        report = plan(tensor, rank, candidates=pool, machine=machine)
        predicted_best = report.best.strategy
        node_errs[name] = _max_node_flop_err(tensor, predicted_best, rank)
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
            round(node_errs[name], 6),
        ])
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["dataset", "#candidates", "predicted best", "measured best",
                 "pred.'s measured rank", "time penalty",
                 "max node flop err"],
        rows=rows,
        expected_shape=(
            "Predicted-best lands in the measured top-2 on nearly every "
            "tensor; trusting the model costs only a few percent over "
            "exhaustive timing.  Per-node attributed flops match the "
            "model exactly (max node flop err 0) on the numpy backend."
        ),
        observations={
            "top2_hits": top2_hits,
            "n_datasets": len(names),
            "max_penalty": max(penalties.values()),
            "penalty_by_dataset": penalties,
            "max_node_flop_err": max(node_errs.values()),
            "node_err_by_dataset": node_errs,
        },
    )
