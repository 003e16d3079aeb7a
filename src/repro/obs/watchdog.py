"""Model-drift watchdog: does the cost model still describe reality?

The planner picks a memoization strategy because the analytic model
(:mod:`repro.model.cost`) *predicted* it cheapest — a prediction made once,
before the first iteration.  The watchdog closes the loop at runtime, per
CP-ALS iteration, along two axes:

* **work drift** — measured counter events (flops, words) versus the
  model's per-iteration prediction.  These are equal by construction when
  the model is calibrated (a tested invariant), so the band is tight:
  any excursion means the model's node sizes or conventions no longer
  match what the engine executed (stale symbolic tree, perturbed
  calibration, a bug).
* **time drift** — measured wall time versus the machine model's
  ``alpha*flops + beta*words`` prediction.  Machine constants are only
  ever approximate (a few x off is routine without
  :func:`repro.model.calibrate.calibrate_machine`), so the watchdog
  self-calibrates: the first ``time_warmup`` iterations establish a
  baseline measured/predicted ratio, and later iterations fire only when
  the ratio diverges from that baseline by more than the band.  Short
  predictions (where timer noise dominates) are skipped.
* **numerical health** — the worst per-mode Gram condition number from a
  :class:`repro.obs.health.HealthReading`, expressed as a *truncation
  margin* ``κ(H) * PINV_RCOND`` (1.0 means the pseudoinverse fallback is
  already discarding eigenvalues).  The band fires when a run's normal
  equations drift toward the singular regime, with the worst-conditioned
  mode named as the blame — the numerical analogue of the node blame the
  cost-attribution axis provides.
* **memory drift** — measured peak memoized-value bytes (a
  :class:`repro.obs.memory.MemReading` from the engine-fed tracker)
  versus the model's ``peak_value_bytes``.  Symbolic byte counts are
  exact by construction, so the band is *exact* (ratio must be 1.0);
  cold-start iterations, where the cache has not yet reached the steady
  schedule, are skipped via ``mem_warmup``.  The tracemalloc series —
  what the allocator actually holds, including index structures and
  workspace — only gets a wide tolerance band against the model's total
  memory: it fires on runaway allocator overhead, not on noise.

A reading outside its band emits a structured :class:`ModelDriftWarning`
(fields, not just a string), a ``repro.obs.watchdog`` log record, and
``drift.*`` gauges in the metrics registry — the runtime analogue of the
E5 model-accuracy experiment.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

from ..linalg.solve import PINV_RCOND
from ..model.cost import CostReport
from ..perf.counters import Counters
from . import events as _events
from .metrics import registry as _metrics
from .observer import IterationObserver

__all__ = ["ModelDriftWarning", "DriftReading", "DriftWatchdog"]

logger = logging.getLogger("repro.obs.watchdog")


class ModelDriftWarning(UserWarning):
    """Structured warning: one drift metric left its calibrated band.

    When cost attribution was live for the iteration
    (:mod:`repro.obs.attribution`), ``node`` / ``mode`` / ``detail`` name
    the tree node most responsible for the excursion — otherwise they are
    None and the warning describes the aggregate only.
    """

    def __init__(self, metric: str, ratio: float, band: tuple[float, float],
                 iteration: int, strategy: str,
                 node: int | None = None, mode: int | None = None,
                 detail: str | None = None):
        self.metric = metric
        self.ratio = ratio
        self.band = band
        self.iteration = iteration
        self.strategy = strategy
        self.node = node
        self.mode = mode
        self.detail = detail
        msg = (
            f"model drift on {metric!r}: measured/predicted ratio "
            f"{ratio:.3f} outside band [{band[0]:.2f}, {band[1]:.2f}] "
            f"at iteration {iteration} (strategy {strategy!r})"
        )
        if node is not None:
            msg += (
                f"; worst offender node {node}"
                + (f" (rebuilt in mode {mode})" if mode is not None else "")
                + (f": {detail}" if detail else "")
            )
        elif mode is not None:
            msg += (
                f"; worst mode {mode}"
                + (f": {detail}" if detail else "")
            )
        super().__init__(msg)


@dataclass
class DriftReading:
    """One iteration's measured-vs-predicted comparison."""

    iteration: int
    flops_ratio: float
    words_ratio: float
    #: raw measured/predicted wall-time ratio (None in the noise regime).
    time_ratio: float | None
    #: ``time_ratio`` relative to the warmup baseline (None until calibrated).
    time_rel: float | None
    measured_seconds: float
    predicted_seconds: float
    fired: list[str] = field(default_factory=list)
    #: measured/predicted peak memoized-value bytes (None without a tracker
    #: or during the cold-start ``mem_warmup`` iterations).
    mem_ratio: float | None = None
    #: tracemalloc peak / model total memory (None without sampling).
    mem_traced_ratio: float | None = None
    measured_peak_bytes: int | None = None
    predicted_peak_bytes: int | None = None
    #: worst Gram condition number times ``PINV_RCOND``, clamped to 1.0
    #: (None without a health reading).  1.0 = singular / truncating.
    condition_margin: float | None = None

    @property
    def ok(self) -> bool:
        return not self.fired


class DriftWatchdog(IterationObserver):
    """Per-iteration comparator between a :class:`CostReport` and reality.

    As a CP-ALS observer (:mod:`repro.obs.observer`) it reads the
    iteration record the memory, attribution and health observers filled
    and stores its reading in ``record.drift``.

    Parameters
    ----------
    cost:
        the active strategy's predicted per-iteration cost (e.g.
        :func:`repro.model.cost.cost_from_symbolic` on the engine's tree).
    work_band:
        allowed measured/predicted ratio for flops and words.  Tight by
        default (±10%): counters and model share conventions exactly.
    time_band:
        allowed drift of the wall-time ratio *relative to the warmup
        baseline* — (0.33, 3.0) means "fire when an iteration runs 3x
        slower or faster than the calibrated expectation".
    time_warmup:
        iterations used to establish the baseline time ratio (their
        median); time drift never fires during warmup.
    min_predicted_seconds:
        skip the time comparison entirely when the model predicts less
        than this (timer noise regime).
    mem_band:
        allowed measured/predicted ratio for peak memoized-value bytes.
        *Exact* by default — symbolic byte counts are deterministic
        integers, so any deviation is a real accounting bug.
    mem_warmup:
        iterations skipped before the memory comparison starts: the first
        iteration builds the cache from cold, so its peak legitimately
        undershoots the steady-state prediction.
    mem_traced_band:
        tolerance band for the tracemalloc peak relative to the model's
        ``total_memory_bytes`` (values + index structures).  Wide by
        default: tracemalloc sees every allocation in the process, so
        this only flags runaway allocator overhead.
    condition_band:
        allowed truncation margin ``κ(H) * PINV_RCOND`` of the worst-mode
        Gram system, checked when a health reading accompanies the
        iteration.  The default upper bound 1e-2 fires once the condition
        number comes within two decades of the pseudoinverse cutoff
        (κ >= 1e10 at the default rcond) — close enough to the singular
        regime that factor updates are numerically suspect.
    warn:
        emit :class:`ModelDriftWarning` + log records on excursions
        (metrics gauges are recorded either way).
    """

    def __init__(self, cost: CostReport, *,
                 work_band: tuple[float, float] = (0.9, 1.1),
                 time_band: tuple[float, float] = (0.33, 3.0),
                 time_warmup: int = 2,
                 min_predicted_seconds: float = 1e-4,
                 mem_band: tuple[float, float] = (1.0, 1.0),
                 mem_warmup: int = 1,
                 mem_traced_band: tuple[float, float] = (0.0, 8.0),
                 condition_band: tuple[float, float] = (0.0, 1e-2),
                 warn: bool = True):
        self.cost = cost
        self.work_band = work_band
        self.time_band = time_band
        self.time_warmup = max(int(time_warmup), 1)
        self.min_predicted_seconds = min_predicted_seconds
        self.mem_band = mem_band
        self.mem_warmup = max(int(mem_warmup), 0)
        self.mem_traced_band = mem_traced_band
        self.condition_band = condition_band
        self.warn = warn
        self.readings: list[DriftReading] = []
        self._warmup_ratios: list[float] = []
        self.time_baseline: float | None = None

    def end_iteration(self, record) -> None:
        record.drift = self.observe(
            record.iteration, record.counters, record.seconds,
            mem=record.mem, attribution=record.attribution,
            health=record.health,
        )

    def observe(self, iteration: int, counters: Counters,
                seconds: float, mem=None, attribution=None,
                health=None) -> DriftReading:
        """Compare one iteration's measurements against the model.

        ``mem`` is an optional :class:`repro.obs.memory.MemReading` for
        the same iteration; when given (and past ``mem_warmup``) the
        measured peak joins the banded checks.  ``attribution`` is an
        optional :class:`repro.obs.attribution.AttributionReading` for the
        iteration; when given, work/time excursions are localized to the
        worst-offending tree node and its rebuild mode instead of flagging
        the whole iteration.  ``health`` is an optional
        :class:`repro.obs.health.HealthReading`; when given, the worst
        per-mode Gram condition number joins the banded checks as a
        truncation margin, blaming the worst-conditioned mode.
        """
        cost = self.cost
        flops_ratio = _ratio(counters.flops, cost.flops_per_iteration)
        words_ratio = _ratio(counters.words, cost.words_per_iteration)
        time_ratio = time_rel = None
        if cost.predicted_seconds >= self.min_predicted_seconds:
            time_ratio = _ratio(seconds, cost.predicted_seconds)
            if self.time_baseline is None:
                self._warmup_ratios.append(time_ratio)
                if len(self._warmup_ratios) >= self.time_warmup:
                    self.time_baseline = _median(self._warmup_ratios)
            else:
                time_rel = time_ratio / self.time_baseline
        condition_margin = None
        if health is not None:
            max_cond = health.max_condition_number
            if isinstance(max_cond, (int, float)) and not math.isnan(
                    max_cond):
                # A singular Gram (inf) clamps to margin 1.0: "the
                # pseudoinverse is already truncating".
                condition_margin = min(max_cond * PINV_RCOND, 1.0)
        mem_ratio = mem_traced_ratio = None
        if mem is not None and iteration >= self.mem_warmup:
            if cost.peak_value_bytes > 0:
                mem_ratio = _ratio(mem.measured_peak_bytes,
                                   cost.peak_value_bytes)
            if (mem.traced_peak_bytes is not None
                    and cost.total_memory_bytes > 0):
                mem_traced_ratio = _ratio(mem.traced_peak_bytes,
                                          cost.total_memory_bytes)
        reading = DriftReading(
            iteration=iteration,
            flops_ratio=flops_ratio,
            words_ratio=words_ratio,
            time_ratio=time_ratio,
            time_rel=time_rel,
            measured_seconds=seconds,
            predicted_seconds=cost.predicted_seconds,
            mem_ratio=mem_ratio,
            mem_traced_ratio=mem_traced_ratio,
            measured_peak_bytes=(
                mem.measured_peak_bytes if mem is not None else None
            ),
            predicted_peak_bytes=cost.peak_value_bytes,
            condition_margin=condition_margin,
        )
        checks = [
            ("flops", flops_ratio, self.work_band),
            ("words", words_ratio, self.work_band),
        ]
        if time_ratio is not None:
            _metrics.set_gauge("drift.time_ratio", time_ratio)
        if time_rel is not None:
            checks.append(("time", time_rel, self.time_band))
        if mem_ratio is not None:
            checks.append(("mem", mem_ratio, self.mem_band))
        if mem_traced_ratio is not None:
            checks.append(("mem_traced", mem_traced_ratio,
                           self.mem_traced_band))
        if condition_margin is not None:
            checks.append(("condition", condition_margin,
                           self.condition_band))
        _GAUGE_NAMES = {"time": "drift.time_rel",
                        "condition": "drift.condition_margin"}
        for metric, ratio, band in checks:
            _metrics.set_gauge(
                _GAUGE_NAMES.get(metric, f"drift.{metric}_ratio"), ratio
            )
            if not band[0] <= ratio <= band[1]:
                reading.fired.append(metric)
                _metrics.incr("drift.warnings")
                blame = None
                if attribution is not None and metric in ("flops", "words",
                                                          "time"):
                    blame = attribution.blame(metric)
                node = blame.get("node") if blame else None
                mode = blame.get("rebuild_mode") if blame else None
                detail = blame.get("why") if blame else None
                if metric == "condition" and health is not None:
                    mode = health.worst_mode
                    detail = (
                        f"condition number {health.max_condition_number:.3e}"
                        f" (rcond {PINV_RCOND:g})"
                    )
                message = (
                    f"model drift on {metric!r}: ratio {ratio:.3f} "
                    f"outside band [{band[0]:.2f}, {band[1]:.2f}]"
                )
                if node is not None:
                    message += (
                        f"; worst offender node {node}"
                        + (f" (mode {mode})" if mode is not None else "")
                        + (f": {detail}" if detail else "")
                    )
                elif mode is not None:
                    message += (
                        f"; worst mode {mode}"
                        + (f": {detail}" if detail else "")
                    )
                _events.emit(
                    "warning",
                    message=message,
                    metric=metric, ratio=ratio, iteration=iteration,
                    strategy=cost.strategy.name,
                    node=node, mode=mode,
                )
                if self.warn:
                    w = ModelDriftWarning(
                        metric, ratio, band, iteration,
                        cost.strategy.name,
                        node=node, mode=mode, detail=detail,
                    )
                    warnings.warn(w, stacklevel=3)
                    logger.warning(
                        "model drift: metric=%s ratio=%.3f band=[%.2f, %.2f] "
                        "iteration=%d strategy=%s node=%s mode=%s",
                        metric, ratio, band[0], band[1], iteration,
                        cost.strategy.name, node, mode,
                    )
        self.readings.append(reading)
        return reading

    def n_fired(self) -> int:
        """Total out-of-band readings so far."""
        return sum(len(r.fired) for r in self.readings)


def _ratio(measured: float, predicted: float) -> float:
    if predicted <= 0:
        return float("inf") if measured > 0 else 1.0
    return measured / predicted


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
