"""Strategy explorer: see the memoization search space the planner navigates.

Scores candidate memoization trees for a 6th-order tensor, prints the
predicted time/memory frontier, shows how a memory budget changes the pick,
and cross-checks the model's flop prediction against the engine's measured
operation counters.

Run:  python examples/strategy_explorer.py
"""

import numpy as np

import repro
from repro.core.cpals import initialize_factors
from repro.core.engine import MemoizedMttkrp
from repro.model import format_table
from repro.perf import counting

RANK = 16

# ---------------------------------------------------------------------------
# 1. A 6th-order skewed tensor: high enough order that strategy choice
#    matters a lot, skewed enough that intermediates shrink.
# ---------------------------------------------------------------------------
X = repro.synth.skewed_random_tensor(
    (200,) * 6, nnz=30_000, exponents=1.1, random_state=0
)
print(f"tensor: {X}")

# ---------------------------------------------------------------------------
# 2. The planner's candidates for order 6 and the predicted frontier.
# ---------------------------------------------------------------------------
report = repro.plan(X, rank=RANK)
print(f"\n{len(report.scored)} candidate strategies "
      f"(named families + DP-optimal trees). Extremes:")
rows = []
for scored in report.scored[:6] + report.scored[-3:]:
    c = scored.cost
    rows.append([
        scored.strategy.name,
        str(scored.strategy.to_nested()),
        c.flops_per_iteration,
        round(c.total_memory_bytes / 1e6, 2),
        round(c.predicted_seconds * 1e3, 3),
    ])
print(format_table(
    ["strategy", "tree", "flops/iter", "mem MB", "pred ms"], rows
))

# ---------------------------------------------------------------------------
# 3. Memory budgets change the pick: sweep the cap and watch the planner
#    retreat from full memoization toward cheaper trees.
# ---------------------------------------------------------------------------
print("\nbest strategy under shrinking memory budgets:")
unbounded_mem = report.best.cost.total_memory_bytes
for fraction in (None, 0.75, 0.5, 0.3):
    budget = None if fraction is None else int(unbounded_mem * fraction)
    r = repro.plan(X, rank=RANK, memory_budget=budget)
    label = "unbounded" if budget is None else f"{budget / 1e6:9.2f} MB"
    try:
        best = r.best
        print(f"  budget {label:>12s} -> {best.strategy.name:<12s} "
              f"pred {best.predicted_seconds * 1e3:7.3f} ms  "
              f"mem {best.cost.total_memory_bytes / 1e6:7.2f} MB")
    except RuntimeError:
        print(f"  budget {label:>12s} -> infeasible")

# ---------------------------------------------------------------------------
# 4. Trust, but verify: measured flops equal the model's prediction.
# ---------------------------------------------------------------------------
chosen = report.best.strategy
engine = MemoizedMttkrp(X, chosen, initialize_factors(X, RANK, random_state=0))
for n in engine.mode_order:  # steady state
    engine.mttkrp(n)
    engine.update_factor(n, engine.factors[n])
with counting() as counters:
    for n in engine.mode_order:
        engine.mttkrp(n)
        engine.update_factor(n, engine.factors[n])
predicted = report.best.cost.flops_per_iteration
print(f"\nmodel-predicted flops/iter : {predicted:,}")
print(f"engine-measured flops/iter : {counters.flops:,}")
assert counters.flops == predicted, "model must match measurement exactly"

# ---------------------------------------------------------------------------
# 5. Custom strategies: any nested tuple is a valid tree.
# ---------------------------------------------------------------------------
custom = repro.from_nested(((0, 5), ((1, 2), (3, 4))), name="mine")
result = repro.cp_als(X, rank=4, strategy=custom, n_iter_max=5, tol=0.0,
                      random_state=0)
print(f"\ncustom strategy {custom.to_nested()} ran CP-ALS: "
      f"fit={result.fit:.4f}")

# ---------------------------------------------------------------------------
# 6. The same engine, parallel: a context manager owns the worker pool.
# ---------------------------------------------------------------------------
with repro.parallel.ParallelMemoizedMttkrp(
    X, chosen, initialize_factors(X, RANK, random_state=0), n_workers=2
) as par_engine:
    np.testing.assert_allclose(par_engine.mttkrp(0), engine.mttkrp(0))
    print(f"\nparallel engine ({par_engine.pool.n_workers} workers, kernel "
          f"'{par_engine.kernel.name}') matches the sequential result")
print("strategy explorer OK")
