"""Fit the time model from observed runs (closed-loop calibration).

The micro-benchmark calibration (:mod:`repro.model.calibrate`) measures
alpha/beta on synthetic kernels.  This module closes the loop on *real*
executions: run a few (strategy, tensor) configurations, record their exact
flop/word counts (from the operation counters) and wall time, and fit the
two-parameter model by non-negative least squares.  A model fitted this way
absorbs machine effects the micro-benchmarks miss (allocator behaviour,
cache pressure at the real working-set sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.cpals import initialize_factors
from ..core.engine import MemoizedMttkrp
from ..core.strategy import MemoStrategy
from ..perf.counters import counting
from ..perf.timer import time_callable
from .cost import MachineModel


@dataclass(frozen=True)
class WorkSample:
    """One observed execution: exact work counts and wall time."""

    flops: int
    words: int
    seconds: float
    label: str = ""


def fit_machine_model(
    samples: Sequence[WorkSample], name: str = "fitted"
) -> MachineModel:
    """Non-negative least-squares fit of ``seconds ~ a*flops + b*words``.

    Requires at least two samples with non-collinear work vectors; degenerate
    inputs fall back to attributing all time to flops.
    """
    # Imported here: scipy.optimize is slow to import and a decomposition
    # never needs it.
    from scipy.optimize import nnls

    if not samples:
        raise ValueError("need at least one sample")
    A = np.array([[s.flops, s.words] for s in samples], dtype=np.float64)
    y = np.array([s.seconds for s in samples], dtype=np.float64)
    if (y < 0).any():
        raise ValueError("sample times must be non-negative")
    coeffs, _ = nnls(A, y)
    alpha, beta = float(coeffs[0]), float(coeffs[1])
    if alpha <= 0 and beta <= 0:
        # Degenerate (e.g. all-zero work): attribute time to flops.
        total_flops = max(float(A[:, 0].sum()), 1.0)
        alpha = float(y.sum()) / total_flops
    return MachineModel(
        alpha_per_flop=max(alpha, 1e-15),
        beta_per_word=max(beta, 1e-15),
        name=name,
    )


def collect_samples(
    tensor: CooTensor,
    strategies: Sequence[MemoStrategy],
    rank: int,
    *,
    repeats: int = 3,
    random_state: int = 0,
) -> list[WorkSample]:
    """Measure one steady-state CP-ALS iteration per strategy.

    Counts are taken from the engine's operation counters during a counted
    (untimed) iteration; wall time from separate best-of-``repeats`` timed
    iterations, so instrumentation overhead never contaminates the timing.
    """
    samples = []
    for strategy in strategies:
        factors = initialize_factors(tensor, rank, random_state=random_state)
        engine = MemoizedMttkrp(tensor, strategy, factors)

        def one_iteration():
            for n in engine.mode_order:
                engine.mttkrp(n)
                engine.update_factor(n, factors[n])

        one_iteration()  # steady state
        with counting() as c:
            one_iteration()
        seconds = time_callable(one_iteration, repeats=repeats, warmup=0)
        samples.append(
            WorkSample(
                flops=c.flops, words=c.words, seconds=seconds,
                label=strategy.name,
            )
        )
    return samples


def fitted_machine(
    tensor: CooTensor,
    rank: int,
    *,
    strategies: Sequence[MemoStrategy] | None = None,
    repeats: int = 3,
    random_state: int = 0,
) -> MachineModel:
    """One-call closed-loop calibration on ``tensor``.

    Defaults to sampling the star, balanced-binary, and maximal-chain
    strategies (work vectors far apart, so the 2-parameter fit is well
    conditioned).
    """
    if strategies is None:
        from ..core.strategy import balanced_binary, chain, star

        n = tensor.ndim
        strategies = [star(n), balanced_binary(n)]
        if n >= 3:
            strategies.append(chain(n, n - 2))
    samples = collect_samples(
        tensor, strategies, rank, repeats=repeats, random_state=random_state
    )
    return fit_machine_model(samples, name="fitted")
