"""E8 — multicore strong scaling (figure).

Measures per-iteration time of the thread-parallel memoized engine at 1..P
workers, alongside the cost model's scaling prediction
(:func:`repro.model.cost.parallel_iteration_seconds`).  The measured curve
on CPython under-reports what the paper's C/OpenMP code achieves
(interpreter sections serialize); the model prices that GIL-serial share,
the memory-bandwidth knee, and the fan-out barriers from the same cost
numbers the sequential experiments validated.  The model clamps ``p`` to
the CPUs this process may use (``observations["host_cpus"]``), so past
them the modeled speedup stays flat.

Each worker count also gets a *measured* load-imbalance column (max/mean
``pool_task`` seconds over one traced iteration, via
:mod:`repro.obs.utilization`) — the SPLATT-style diagnostic for why a
speedup curve flattens.  "-" means the engine never fanned out at that
configuration (rebuilds below the chunking threshold run sequentially).

A roofline column completes the diagnosis: each measured time is
converted to achieved bandwidth (the cost model's words/iteration over
measured seconds) and reported as a fraction of the machine's measured
triad ceiling (:func:`repro.model.calibrate.calibrate_roofline`).  A
fraction that plateaus while workers increase is bandwidth saturation —
the paper's explanation for the knee in the strong-scaling figure.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.cpals import initialize_factors
from ..core.strategy import balanced_binary
from ..core.symbolic import SymbolicTree
from ..core.dtypes import VALUE_ITEMSIZE
from ..model.calibrate import calibrate_machine, calibrate_roofline
from ..model.cost import cost_from_symbolic, parallel_iteration_seconds
from ..parallel.engine import ParallelMemoizedMttkrp
from ..parallel.pool import available_cpus
from .common import (DEFAULT_RANK, DEFAULT_SCALE, ExperimentResult,
                     load_scaled)

EXP_ID = "E8"
TITLE = "Strong scaling: measured thread tier + modeled speedup"

DEFAULT_WORKERS = (1, 2, 4, 8)


def _measured_imbalance(tensor, strategy, rank: int, p: int) -> float | None:
    """Max/mean ``pool_task`` seconds over one traced iteration.

    Slices only the spans this probe appends, so it composes with an
    already-active outer trace (``--trace`` runs) without clearing it.
    None when the engine never fanned out (no pool tasks).
    """
    from ..obs import switch
    from ..obs.metrics import registry as _metrics
    from ..obs.utilization import utilization_from_spans

    tracer = switch.get("trace")
    n_before = len(tracer)
    with switch.enabled("trace", clear=False):
        with ParallelMemoizedMttkrp(tensor, strategy, n_workers=p) as engine:
            factors = initialize_factors(tensor, rank, "random", 0)
            engine.set_factors(factors)
            for n in engine.mode_order:
                engine.mttkrp(n)
                engine.update_factor(n, factors[n])
    util = utilization_from_spans(tracer.finished()[n_before:])
    if util is None:
        return None
    _metrics.set_gauge(f"e8.imbalance.p{p}", util.mean_imbalance)
    return util.mean_imbalance


def _interleaved_seconds(tensor, strategy, rank: int, workers,
                         rounds: int) -> dict[int, float]:
    """Median seconds of one iteration at each worker count.

    Every round times one iteration per worker count in turn (after one
    untimed warm-up round), so clock drift on a shared host hits all
    counts alike instead of favouring whichever runs last.
    """
    factors = initialize_factors(tensor, rank, "random", 0)
    engines = {
        p: ParallelMemoizedMttkrp(tensor, strategy, factors, n_workers=p)
        for p in workers
    }
    samples: dict[int, list[float]] = {p: [] for p in workers}
    try:
        for r in range(rounds + 1):
            for p, engine in engines.items():
                t0 = time.perf_counter()
                for n in engine.mode_order:
                    engine.mttkrp(n)
                    # Reinstalling the same factor exercises the true
                    # invalidation path with stable values.
                    engine.update_factor(n, factors[n])
                if r:
                    samples[p].append(time.perf_counter() - t0)
    finally:
        for engine in engines.values():
            engine.close()
    return {p: float(np.median(v)) for p, v in samples.items()}


def run(scale: float = DEFAULT_SCALE, rank: int = DEFAULT_RANK,
        name: str = "delicious", workers=DEFAULT_WORKERS,
        repeats: int = 5) -> ExperimentResult:
    tensor = load_scaled(name, scale)
    strategy = balanced_binary(tensor.ndim)
    machine = calibrate_machine()
    # Quick roofline calibration (cached to the repro-machine/v1 artifact):
    # turns each measured time into an achieved-bandwidth fraction, so the
    # table says *why* the curve flattens, not just that it does.
    roofline = calibrate_roofline(quick=True)
    cost = cost_from_symbolic(SymbolicTree(tensor, strategy), rank, machine)
    serial = parallel_iteration_seconds(cost, 1, machine)
    modeled = {
        p: serial / parallel_iteration_seconds(cost, p, machine)
        for p in workers
    }
    measured_times = _interleaved_seconds(tensor, strategy, rank, workers,
                                          repeats)
    measured_imbalance = {
        p: _measured_imbalance(tensor, strategy, rank, p) for p in workers
    }
    base = measured_times[workers[0]]
    # Achieved bandwidth at each worker count: the cost model's
    # words/iteration over the measured wall seconds, as a fraction of the
    # measured triad ceiling.  A flat fraction across p is the roofline
    # explanation for a flat speedup curve.
    iter_bytes = cost.words_per_iteration * VALUE_ITEMSIZE
    rows = []
    measured_speedup = {}
    roofline_fraction = {}
    for p in workers:
        measured_speedup[p] = base / measured_times[p]
        achieved_gbs = iter_bytes / measured_times[p] / 1e9
        roofline_fraction[p] = achieved_gbs / roofline.peak_bandwidth_gbs
        imbalance = measured_imbalance[p]
        rows.append([
            p,
            round(measured_times[p] * 1e3, 3),
            round(measured_speedup[p], 2),
            round(modeled[p], 2),
            f"{roofline_fraction[p] * 100:.1f}%",
            f"{imbalance:.3f}" if imbalance is not None else "-",
        ])
    return ExperimentResult(
        exp_id=EXP_ID,
        title=f"{TITLE} ({name}, strategy=bdt)",
        headers=["workers", "thread ms/iter", "thread speedup",
                 "modeled speedup", "roofline %", "measured imbalance"],
        rows=rows,
        expected_shape=(
            "Modeled speedup grows until the bandwidth knee or the "
            "available CPUs (whichever comes first) and is capped by the "
            "GIL-serial fraction; past host_cpus it stays flat.  Measured "
            "speedup on CPython sits below it.  Measured pool imbalance "
            "near 1.0 = balanced fan-outs; growth with workers explains "
            "curve flattening.  The roofline column (modeled traffic over "
            "measured seconds vs the measured triad ceiling) stops growing "
            "once bandwidth saturates — workers past that point cannot help."
        ),
        observations={
            "host_cpus": available_cpus(),
            "roofline_peak_bandwidth_gbs": roofline.peak_bandwidth_gbs,
            "roofline_saturation_workers": roofline.saturation_workers,
            "thread_roofline_fraction": {
                int(k): v for k, v in roofline_fraction.items()
            },
            "measured_speedup": {int(k): v for k, v in measured_speedup.items()},
            "modeled_speedup": {int(k): v for k, v in modeled.items()},
            "measured_imbalance": {
                int(k): v for k, v in measured_imbalance.items()
            },
            "modeled_monotone": all(
                modeled[workers[i + 1]] >= modeled[workers[i]]
                for i in range(len(workers) - 1)
            ),
        },
    )
