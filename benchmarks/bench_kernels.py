"""Micro-kernel benchmarks: the primitives behind every experiment.

Times the building blocks in isolation so regressions in the hot paths show
up independent of experiment noise: segment reduction (identity-permutation
fast path vs genuine permutation), factor-row gather + Hadamard, symbolic
tree construction, CSF build, and the planner's distinct-count pass.

Also sweeps the kernel backends (``repro.kernels``) over the full
memoized CP-ALS iteration, and — when run as a script — writes the
backend x block-size sweep on the acceptance workload (order-4, >=1M nnz,
R=16; configs interleaved round by round) to
``benchmarks/results/BENCH_kernels.{json,txt}``::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.coo import CooTensor
from repro.core.engine import MemoizedMttkrp
from repro.core.segreduce import SegmentPlan
from repro.core.strategy import balanced_binary
from repro.core.symbolic import SymbolicTree
from repro.formats.csf import CsfTensor
from repro.kernels import available_kernels
from repro.linalg.khatri_rao import khatri_rao_rows
from repro.model.overlap import DistinctCounter
from repro.synth.skewed import skewed_random_tensor

N_ROWS = 300_000
RANK = 16


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(0).random((N_ROWS, RANK))


@pytest.fixture(scope="module")
def tensor():
    return skewed_random_tensor((500,) * 4, 150_000, 1.1, random_state=0)


def test_segreduce_sorted_targets(benchmark, values):
    """Identity-permutation fast path: no gather before reduceat."""
    targets = np.sort(np.random.default_rng(1).integers(0, 30_000, N_ROWS))
    plan = SegmentPlan(targets)
    assert plan.has_identity_perm
    benchmark(plan.reduce, values)


def test_segreduce_permuted_targets(benchmark, values):
    """Genuine permutation: measures the gather overhead."""
    targets = np.random.default_rng(2).integers(0, 30_000, N_ROWS)
    plan = SegmentPlan(targets)
    assert not plan.has_identity_perm
    benchmark(plan.reduce, values)


def test_factor_gather_hadamard(benchmark):
    """The per-contraction gather + Hadamard product."""
    rng = np.random.default_rng(3)
    U = rng.random((50_000, RANK))
    V = rng.random((50_000, RANK))
    rows_u = rng.integers(0, 50_000, N_ROWS)
    rows_v = rng.integers(0, 50_000, N_ROWS)
    benchmark(khatri_rao_rows, [U, V], [rows_u, rows_v])


def test_symbolic_tree_build(benchmark, tensor):
    """The one-time symbolic phase for a full BDT."""
    benchmark(SymbolicTree, tensor, balanced_binary(4))


def test_csf_build(benchmark, tensor):
    """One CSF tree (SPLATT needs N of these)."""
    benchmark(CsfTensor, tensor, (0, 1, 2, 3))


def test_distinct_count_pass(benchmark, tensor):
    """The planner's per-mode-set distinct count (exact method)."""

    def count_all_pairs():
        counter = DistinctCounter(tensor)
        for a in range(3):
            counter.count([a, a + 1])
        return counter

    benchmark(count_all_pairs)


def test_canonicalize(benchmark):
    """COO canonicalization (sort + merge) on duplicated draws."""
    rng = np.random.default_rng(4)
    idx = np.column_stack([rng.integers(0, 200, 200_000) for _ in range(4)])
    vals = rng.random(200_000)

    benchmark(lambda: CooTensor(idx, vals, (200,) * 4))


# ---------------------------------------------------------------------------
# kernel-backend sweep over the memoized ALS iteration
# ---------------------------------------------------------------------------

def _als_iteration(engine: MemoizedMttkrp) -> None:
    for n in engine.mode_order:
        engine.mttkrp(n)
        engine.update_factor(n, engine.factors[n])


def _random_factors(rng, shape, rank):
    return [rng.standard_normal((dim, rank)) for dim in shape]


@pytest.mark.parametrize("backend", available_kernels())
def test_memoized_iteration_backend(benchmark, tensor, backend):
    """One full memoized ALS iteration (all modes) per kernel backend."""
    rng = np.random.default_rng(5)
    engine = MemoizedMttkrp(
        tensor, balanced_binary(4), _random_factors(rng, tensor.shape, RANK),
        kernel=backend,
    )
    _als_iteration(engine)  # warm caches / symbolic phase
    benchmark(_als_iteration, engine)


# ---------------------------------------------------------------------------
# standalone snapshot: the acceptance workload, written to results/
# ---------------------------------------------------------------------------

ACCEPT_SHAPE = (800,) * 4
ACCEPT_NNZ = 1_200_000
ACCEPT_RANK = 16
BLOCK_SWEEP = (0, 2048, 4096, 8192, 16384, 32768)


def run_acceptance_sweep(rounds: int = 5) -> dict:
    """Backend x block-size sweep on the acceptance workload.

    The configs run interleaved: each round times one full iteration of
    every config in turn (after one warm-up iteration of its own), so the
    clock drift of shared hosts spreads over all configs instead of
    landing on whichever ran last.  Each config reports the median over
    rounds and the interquartile range.  The engines share one symbolic
    tree, hence one set of kernel indices.
    """
    tensor = skewed_random_tensor(
        ACCEPT_SHAPE, ACCEPT_NNZ, 1.1, random_state=0
    )
    rng = np.random.default_rng(42)
    factors = _random_factors(rng, tensor.shape, ACCEPT_RANK)
    strategy = balanced_binary(4)
    symbolic = SymbolicTree(tensor, strategy)
    configs = [
        (backend, block)
        for backend in available_kernels()
        for block in (BLOCK_SWEEP if backend == "numpy" else (None,))
    ]
    samples: dict = {cfg: [] for cfg in configs}
    reference_out = None
    for round_no in range(rounds):
        for backend, block in configs:
            if block is None:
                os.environ.pop("REPRO_KERNEL_BLOCK", None)
            else:
                os.environ["REPRO_KERNEL_BLOCK"] = str(block)
            engine = MemoizedMttkrp(
                tensor, strategy, [f.copy() for f in factors],
                kernel=backend, symbolic=symbolic,
            )
            _als_iteration(engine)  # warm-up: node values, arena
            t0 = time.perf_counter()
            _als_iteration(engine)
            samples[backend, block].append(time.perf_counter() - t0)
            if round_no == 0:
                out = engine.mttkrp(0)
                if reference_out is None:
                    reference_out = out
                else:
                    assert np.allclose(out, reference_out, rtol=1e-12), (
                        f"{backend} block={block} diverges from reference"
                    )
        print(f"  round {round_no + 1}/{rounds} done")
    os.environ.pop("REPRO_KERNEL_BLOCK", None)

    runs = []
    for (backend, block), secs in samples.items():
        q25, q50, q75 = np.percentile(secs, [25, 50, 75])
        runs.append({
            "backend": backend,
            "block_rows": block,
            "seconds_per_iteration": float(q50),
            "seconds_iqr": float(q75 - q25),
        })
        print(f"  {backend:10s} block={str(block):>6s}  "
              f"{q50 * 1e3:8.1f} ms/iter (IQR {(q75 - q25) * 1e3:.1f})")

    baseline = next(r for r in runs if r["backend"] == "reference")
    for r in runs:
        r["speedup_vs_reference"] = (
            baseline["seconds_per_iteration"] / r["seconds_per_iteration"]
        )
    best = min(runs, key=lambda r: r["seconds_per_iteration"])
    return {
        "bench_id": "BENCH_kernels",
        "workload": {
            "shape": list(ACCEPT_SHAPE),
            "nnz": int(tensor.nnz),
            "rank": ACCEPT_RANK,
            "strategy": "balanced_binary",
            "skew": 1.1,
            "repeats": rounds,
        },
        "runs": runs,
        "best": best,
        "speedup_best_vs_reference": best["speedup_vs_reference"],
    }


def main() -> None:
    from repro.obs.buildinfo import artifact_envelope

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    print(f"kernel backend sweep: shape={ACCEPT_SHAPE} nnz~{ACCEPT_NNZ} "
          f"rank={ACCEPT_RANK}")
    report = run_acceptance_sweep()
    base = os.path.join(results_dir, "BENCH_kernels")
    with open(base + ".json", "w") as fh:
        json.dump(artifact_envelope("BENCH_kernels", report), fh, indent=2)
        fh.write("\n")
    lines = [
        f"median of {report['workload']['repeats']} interleaved rounds",
        f"{'backend':10s} {'block':>6s} {'ms/iter':>9s} {'IQR':>7s} "
        f"{'speedup':>8s}",
    ]
    for r in report["runs"]:
        lines.append(
            f"{r['backend']:10s} {str(r['block_rows']):>6s} "
            f"{r['seconds_per_iteration'] * 1e3:9.1f} "
            f"{r['seconds_iqr'] * 1e3:7.1f} "
            f"{r['speedup_vs_reference']:7.2f}x"
        )
    lines.append(
        f"best: {report['best']['backend']} "
        f"block={report['best']['block_rows']} "
        f"({report['speedup_best_vs_reference']:.2f}x vs reference)"
    )
    with open(base + ".txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {base}.json")


if __name__ == "__main__":
    main()
