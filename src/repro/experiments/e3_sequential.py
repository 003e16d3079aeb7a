"""E3 — sequential per-iteration CP-ALS time, adaptive vs baselines.

The paper's headline comparison: per-iteration time of the model-selected
memoized algorithm against SPLATT-style CSF (per-mode and single-tree), plain
COO, and Tensor-Toolbox-style TTV backends on every benchmark tensor.

Expected shape, matching the paper's claim structure: at 4th order and above
— where memoization has real headroom — the adaptive engine matches or beats
every baseline; at 3rd order it stays close to the best baseline (the gains
of memoization are structurally tiny at N=3, and CSF fiber compression /
column-resident TTV are substrate effects outside the strategy family — see
the result's notes).
"""

from __future__ import annotations

from ..core.engine import MemoizedMttkrp
from ..model.calibrate import calibrate_machine
from ..model.planner import plan
from ..synth.datasets import dataset_names
from .common import (DEFAULT_RANK, DEFAULT_SCALE, ExperimentResult,
                     iteration_seconds, load_scaled)

EXP_ID = "E3"
TITLE = "Sequential per-iteration time (ms): adaptive vs baselines"

BASELINES = ["coo", "ttv", "splatt", "splatt1"]

#: win tolerance at order >= 4 (timer noise + near-tied candidates).
HIGH_ORDER_TOLERANCE = 1.10
#: allowed gap to the best baseline at order 3.
LOW_ORDER_TOLERANCE = 1.75


def default_names() -> list[str]:
    return dataset_names(analogs_only=True)


def run(scale: float = DEFAULT_SCALE, rank: int = DEFAULT_RANK,
        names=None, repeats: int = 3) -> ExperimentResult:
    names = list(names) if names is not None else default_names()
    machine = calibrate_machine()
    rows = []
    speedup_vs_splatt = {}
    ratio_to_best = {}
    order_of = {}
    for name in names:
        tensor = load_scaled(name, scale)
        report = plan(tensor, rank, machine=machine)
        chosen = report.best.strategy

        def adaptive_factory(t, chosen=chosen):
            return MemoizedMttkrp(t, chosen)

        times = {
            b: iteration_seconds(tensor, b, rank, repeats=repeats)
            for b in BASELINES
        }
        times["adaptive"] = iteration_seconds(
            tensor, adaptive_factory, rank, repeats=repeats
        )
        best_baseline = min(times[b] for b in BASELINES)
        ratio_to_best[name] = times["adaptive"] / best_baseline
        order_of[name] = tensor.ndim
        speedup_vs_splatt[name] = times["splatt"] / times["adaptive"]
        rows.append([
            name,
            tensor.ndim,
            round(times["coo"] * 1e3, 3),
            round(times["ttv"] * 1e3, 3),
            round(times["splatt"] * 1e3, 3),
            round(times["splatt1"] * 1e3, 3),
            round(times["adaptive"] * 1e3, 3),
            chosen.name,
            round(speedup_vs_splatt[name], 2),
        ])
    high = [n for n in names if order_of[n] >= 4]
    low = [n for n in names if order_of[n] == 3]
    high_wins = sum(
        1 for n in high if ratio_to_best[n] <= HIGH_ORDER_TOLERANCE
    )
    max_low_ratio = max((ratio_to_best[n] for n in low), default=1.0)
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["dataset", "order", "coo", "ttv", "splatt", "splatt1",
                 "adaptive", "chosen strategy", "speedup vs splatt"],
        rows=rows,
        expected_shape=(
            "Order >= 4: adaptive matches or beats every baseline (within "
            "10%). Order 3: adaptive within ~1.75x of the best baseline — "
            "memoization headroom is structurally tiny at N=3 and two "
            "substrate effects favour specific baselines there (see notes)."
        ),
        observations={
            "high_order_wins": high_wins,
            "n_high_order": len(high),
            "max_low_order_ratio": max_low_ratio,
            "ratio_to_best": ratio_to_best,
            "speedup_vs_splatt": speedup_vs_splatt,
        },
        notes=[
            "ttv (column-at-a-time) can win on 3rd-order tensors in this "
            "NumPy substrate: its working vectors are cache-resident, an "
            "effect the paper's C baselines do not show (MATLAB TTB is far "
            "slower than SPLATT there).",
            "splatt's fiber compression is partially outside the strategy "
            "family at N=3 (only one nontrivial grouping exists), so the "
            "planner cannot always reach the best 3rd-order kernel; at "
            "N>=4 the strategy space dominates it.",
            "Traced runs (--trace or REPRO_OBS=health) also record "
            "numerical-health columns (health.json): max κ(H) is the "
            "worst-mode Gram condition number (values approaching "
            "1/rcond = 1e12 mean the pseudoinverse fallback is about to "
            "truncate), congruence → 1 flags a swamp (near-collinear "
            "components), and the trajectory column separates honest "
            "convergence from stalls — timing comparisons are only "
            "meaningful between runs with comparable health profiles, "
            "since a swamped run burns iterations without progress.",
        ],
    )
