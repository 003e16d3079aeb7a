"""CP-ALS: alternating least squares for the CP decomposition.

The driver is backend-agnostic: any object providing ``set_factors`` /
``update_factor`` / ``mttkrp`` / ``mttkrp_rows`` / ``mode_order`` can supply
the MTTKRP, so the same loop runs the memoized engine (any strategy), the
planner-selected engine, and the baseline implementations — which is what
makes the paper's comparisons apples-to-apples.  The driver keeps one factor
array per mode for the whole run, the one ``set_factors`` installed, and
writes each update into it; it never writes to an MTTKRP result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..linalg.gram import GramCache
from ..linalg.innerprod import innerprod_from_mttkrp
from ..linalg.norms import normalize_columns
from ..linalg.solve import set_solve_site, solve_normal_equations
from ..obs import events as _events
from ..obs import observer as _observer
from ..obs import trace as _obs
from .coo import CooTensor
from .dtypes import VALUE_DTYPE
from .engine import MemoizedMttkrp
from .kruskal import KruskalTensor
from .validate import check_factor_matrices, check_positive_int, check_random_state


@dataclass
class CPResult:
    """Outcome of a CP-ALS run.

    Attributes
    ----------
    ktensor: the fitted model (weights pushed out of the factors).
    fits: per-iteration fit values ``1 - ||X - model|| / ||X||``.
    n_iterations: iterations executed.
    converged: whether the fit-change tolerance was met.
    strategy_name: memoization strategy used (or backend description).
    planner_report: the planner's ranked candidate list when
        ``strategy='auto'`` was requested, else None.
    timings: wall-clock breakdown: ``setup`` (symbolic phase + planning),
        ``per_iteration`` (mean seconds), ``total``.
    memory_readings: per-iteration
        :class:`~repro.obs.memory.MemReading` list (measured vs predicted
        peak memoized-value bytes) when the ``mem`` instrument was on
        (see :mod:`repro.obs.switch`), else None.
    health_readings: per-iteration
        :class:`~repro.obs.health.HealthReading` list (Gram conditioning,
        factor deltas, congruence/swamp detection, fit-trajectory
        classification) when the ``health`` instrument was on, else None.
    """

    ktensor: KruskalTensor
    fits: list[float]
    n_iterations: int
    converged: bool
    strategy_name: str
    planner_report: object | None = None
    timings: dict = field(default_factory=dict)
    memory_readings: list | None = None
    health_readings: list | None = None

    @property
    def fit(self) -> float:
        return self.fits[-1] if self.fits else float("nan")


def initialize_factors(
    tensor: CooTensor,
    rank: int,
    init: str | Sequence[np.ndarray] = "random",
    random_state=None,
) -> list[np.ndarray]:
    """Initial factor matrices for CP-ALS.

    ``init='random'`` draws uniform(0, 1) entries (the usual choice for
    sparse count data); ``init='hosvd'`` uses leading left singular vectors
    of each matricization, padded with random columns when the mode is
    smaller than the rank; a list of arrays is validated and copied.
    """
    rng = check_random_state(random_state)
    if isinstance(init, str):
        name = init.lower()
        if name == "random":
            return [
                rng.random((dim, rank), dtype=VALUE_DTYPE)
                for dim in tensor.shape
            ]
        if name == "hosvd":
            return _hosvd_init(tensor, rank, rng)
        raise ValueError(f"unknown init: {init!r}")
    factors = [np.array(U, dtype=VALUE_DTYPE, copy=True) for U in init]
    check_factor_matrices(factors, tensor.shape, rank)
    return factors


def _hosvd_init(tensor: CooTensor, rank: int, rng) -> list[np.ndarray]:
    from scipy.sparse.linalg import svds

    factors = []
    for n, dim in enumerate(tensor.shape):
        k = min(rank, dim - 1, max(tensor.nnz - 1, 0))
        U = rng.random((dim, rank), dtype=VALUE_DTYPE)
        if k >= 1:
            try:
                mat = tensor.matricize(n)
                u, _, _ = svds(mat.astype(np.float64), k=k)
                U[:, :k] = np.abs(u[:, ::-1])  # descending singular values
            except (OverflowError, ValueError, MemoryError):
                pass  # fall back to the random columns
        factors.append(U)
    return factors


def cp_als(
    tensor: CooTensor,
    rank: int,
    *,
    strategy="auto",
    n_iter_max: int = 50,
    tol: float = 1e-8,
    init: str | Sequence[np.ndarray] = "random",
    random_state=None,
    memory_budget: int | None = None,
    engine_factory: Callable[[CooTensor], object] | None = None,
    callback: Callable[[int, float, KruskalTensor], None] | None = None,
) -> CPResult:
    """Fit a rank-``R`` CP decomposition with alternating least squares.

    Parameters
    ----------
    tensor: sparse input tensor.
    rank: number of CP components.
    strategy:
        MTTKRP memoization strategy — ``'auto'`` runs the model-driven
        planner (the paper's headline mode); otherwise a strategy name,
        nested tuple, or :class:`~repro.core.strategy.MemoStrategy`.
        Ignored when ``engine_factory`` is given.
    n_iter_max: iteration cap.
    tol: convergence threshold on the fit change per iteration; ``0``
        disables early stopping.
    init: ``'random'``, ``'hosvd'``, or explicit factor matrices.
    random_state: seed or Generator for the initialization.
    memory_budget:
        byte cap on memoized intermediates handed to the planner when
        ``strategy='auto'``.
    engine_factory:
        escape hatch for benchmarking: a callable returning an MTTKRP
        backend for the tensor.
    callback: invoked as ``callback(iteration, fit, model)`` per iteration;
        returning a truthy value stops the run after that iteration
        (without marking it converged) — the hook
        :func:`repro.algos.restarts.cp_als_restarts` uses for its
        ``early_stop`` hopeless-restart cutoff.  ``model`` shares the
        run's weight and factor arrays: they are read-only, and they hold
        that iteration's values only until the call returns.  To keep the
        model, copy it: ``KruskalTensor(model.weights, model.factors)``.
    """
    check_positive_int(rank, "rank")
    check_positive_int(n_iter_max, "n_iter_max")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if tensor.ndim < 2:
        raise ValueError("CP-ALS requires an order >= 2 tensor")

    # Every run has a run_id stamping its events (a caller's enclosing
    # ``events.running()`` block lends its own).
    with _events.running():
        return _cp_als_run(
            tensor, rank, strategy=strategy, n_iter_max=n_iter_max, tol=tol,
            init=init, random_state=random_state,
            memory_budget=memory_budget, engine_factory=engine_factory,
            callback=callback,
        )


def _cp_als_run(
    tensor: CooTensor,
    rank: int,
    *,
    strategy,
    n_iter_max: int,
    tol: float,
    init,
    random_state,
    memory_budget,
    engine_factory,
    callback,
) -> CPResult:
    """The ALS loop proper, always running inside ``events.running()``."""
    factors = initialize_factors(tensor, rank, init, random_state)
    norm_x = tensor.norm()

    planner_report = None
    t0 = time.perf_counter()
    if engine_factory is not None:
        engine = engine_factory(tensor)
        engine_strategy = getattr(engine, "strategy", None)
        strategy_name = (engine_strategy.name if engine_strategy is not None
                         else getattr(engine, "name", type(engine).__name__))
    else:
        if isinstance(strategy, str) and strategy.lower() == "auto":
            from ..model.planner import plan

            planner_report = plan(tensor, rank, memory_budget=memory_budget)
            chosen = planner_report.best.strategy
        else:
            chosen = strategy
        engine = MemoizedMttkrp(tensor, chosen)
        strategy_name = engine.strategy.name
    engine.set_factors(factors)
    del factors  # the engine holds them; updates are written into them
    setup_time = time.perf_counter() - t0

    observers = _observer.start_run(
        engine, rank, shape=list(tensor.shape),
        nnz=tensor.nnz, strategy=strategy_name, n_iter_max=n_iter_max,
        tol=tol,
    )

    mode_order = tuple(engine.mode_order)
    supports = [_nonempty_rows(tensor, n, rank) for n in range(tensor.ndim)]
    grams = GramCache(engine.factors)
    weights = np.ones(rank, dtype=VALUE_DTYPE)
    fits: list[float] = []
    records: list[_observer.IterationRecord] = []
    converged = False
    iter_times: list[float] = []

    def run_modes(iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """One ALS sweep; returns the last mode's (M, U) on its support."""
        nonlocal weights
        last: tuple[np.ndarray, np.ndarray] | None = None
        for n in mode_order:
            set_solve_site(iteration, n)
            rows = supports[n]
            M = (engine.mttkrp(n) if rows is None
                 else engine.mttkrp_rows(n, rows))
            with _obs.span("factor_solve", mode=n):
                H = grams.combined(skip=n)
                U = solve_normal_equations(M, H)
                # First iteration: 2-norm normalization settles scale;
                # later iterations use max-norm so weights track
                # convergence smoothly (the Tensor Toolbox convention).
                U, norms = normalize_columns(
                    U, order=2 if iteration == 0 else "max"
                )
                norms = np.where(norms > 0, norms, 1.0)
                weights = norms
                last = M, U
                F = engine.factors[n]
                # Observers compare against the factor before the update,
                # which the in-place write below overwrites.
                previous = F.copy() if observers else None
                if rows is None:
                    F[...] = U
                else:
                    if iteration == 0:
                        # The rows of empty slices are exactly zero from
                        # the mode's first update on.
                        F.fill(0.0)
                    F[rows] = U
                for observer in observers:
                    observer.observe_mode(n, H, previous, F)
                engine.update_factor(n, F)
                grams.update(n, F)
        assert last is not None
        return last

    try:
        for iteration in range(n_iter_max):
            it0 = time.perf_counter()
            for observer in observers:
                observer.begin_iteration(iteration)
            with _obs.span("als_iteration", iteration=iteration):
                M_last, U_last = run_modes(iteration)
            it_seconds = time.perf_counter() - it0
            iter_times.append(it_seconds)

            fit = _compute_fit(norm_x, weights, grams, M_last, U_last)
            fits.append(fit)
            record = _observer.IterationRecord(
                iteration, fit=fit,
                fit_delta=fits[-1] - fits[-2] if len(fits) > 1 else None,
                seconds=it_seconds, grams=grams, engine=engine,
            )
            for observer in observers:
                observer.end_iteration(record)
            records.append(record)
            if callback is not None:
                # A truthy return requests early termination (used by
                # cp_als_restarts' hopeless-restart cutoff).
                if callback(iteration, fit,
                            _read_only_model(weights, engine.factors)):
                    break
            if tol > 0 and iteration > 0 and abs(fits[-1] - fits[-2]) < tol:
                converged = True
                break
    finally:
        set_solve_site(None, None)

    if isinstance(engine, MemoizedMttkrp):
        # The cached node values are done with: free them before the
        # returned model is built.
        engine.invalidate_all()
    # normalize() allocates new factors, so no copy is needed first
    ktensor = KruskalTensor(weights, engine.factors, copy=False).normalize()
    total = setup_time + float(np.sum(iter_times))
    _observer.stop_run(engine, n_iterations=len(fits), converged=converged,
                       fit=fits[-1] if fits else None, total_seconds=total)

    def readings(name: str) -> list | None:
        values = [getattr(r, name) for r in records]
        return values if values and values[0] is not None else None

    return CPResult(
        ktensor=ktensor,
        fits=fits,
        n_iterations=len(fits),
        converged=converged,
        strategy_name=strategy_name,
        planner_report=planner_report,
        timings={
            "setup": setup_time,
            "per_iteration": float(np.mean(iter_times)) if iter_times else 0.0,
            "total": total,
        },
        memory_readings=readings("mem"),
        health_readings=readings("health"),
    )


def _read_only_model(weights: np.ndarray,
                     factors: Sequence[np.ndarray]) -> KruskalTensor:
    """A model over read-only views of the run's live arrays (no copy)."""
    views = []
    for array in (weights, *factors):
        view = array.view()
        view.flags.writeable = False
        views.append(view)
    return KruskalTensor(views[0], views[1:], copy=False)


def _nonempty_rows(tensor: CooTensor, mode: int,
                   rank: int) -> np.ndarray | None:
    """Rows of ``mode`` whose slice holds a nonzero; None when all do.

    An empty slice has an all-zero MTTKRP row, so its factor row is
    exactly zero after every update.  The solve, normalization and fit
    are row-separable bitwise, so running them on the other rows alone
    changes no result.  At rank 1 NumPy's einsum sums the single column
    with SIMD partial sums, whose grouping depends on the row count, so
    the 2-norm and fit would round differently: rank 1 keeps every row.
    """
    nnz = tensor.slice_nnz(mode)
    if rank == 1 or nnz.all():
        return None
    return np.flatnonzero(nnz)


def _compute_fit(
    norm_x: float,
    weights: np.ndarray,
    grams: GramCache,
    M_last: np.ndarray,
    U_last: np.ndarray,
) -> float:
    """Fit from the final MTTKRP of the iteration (no extra tensor pass).

    ``M_last`` and ``U_last`` are the last mode's MTTKRP and factor, both
    restricted to the same rows (every row, or the nonempty ones).
    """
    H_all = grams.combined()
    norm_model_sq = float(weights @ H_all @ weights)
    inner = innerprod_from_mttkrp(M_last, U_last, weights)
    err_sq = max(norm_x**2 + norm_model_sq - 2.0 * inner, 0.0)
    if norm_x == 0.0:
        return 1.0 if norm_model_sq == 0.0 else float("-inf")
    return 1.0 - float(np.sqrt(err_sq)) / norm_x
