"""Memory telemetry: measured memoized-value bytes, fed by engine events.

The cost model *predicts* peak memoized-value memory
(:func:`repro.model.cost.simulate_peak_value_bytes`) and the planner trades
flops against that prediction — but a prediction nobody measures is a
prediction nobody can trust.  This module closes the loop: the engines
report every node-value store and free to a process-global
:class:`MemTracker`, which maintains exact live/peak byte accounting
(per node and in total), per-ALS-iteration windows for comparison against
the model's symbolic prediction, and optional :mod:`tracemalloc` samples
that capture what the allocator *actually* holds on top of the symbolic
count.

Like the tracer, tracking is **off by default** and must be no-op-cheap
when off: engines guard every event with one ``switch.is_on("mem")``
check.  Turn it on through :mod:`repro.obs.switch` (``REPRO_OBS=mem``,
or ``mem=tracemalloc`` to add allocator sampling; ``repro trace`` does
both).  The tracker is a per-iteration observer of the CP-ALS loop
(:mod:`repro.obs.observer`).

Byte accounting is *exact by construction*: a node value matrix is a dense
``nnz_t x R`` float64 array, so ``value.nbytes`` equals the model's
``nnz_t * R * 8`` term and measured-vs-predicted ratios of 1.0 are the
tested invariant, not a tolerance.  The tracemalloc series is the only
place allocator overhead appears.
"""

from __future__ import annotations

import threading
import tracemalloc
from dataclasses import dataclass

from . import switch as _switch
from .metrics import registry as _metrics
from .observer import IterationObserver

__all__ = ["MemReading", "MemTracker"]


@dataclass
class MemReading:
    """One ALS iteration's measured-vs-predicted memory comparison."""

    iteration: int
    #: max simultaneously-live memoized-value bytes inside the window.
    measured_peak_bytes: int
    #: the cost model's :attr:`CostReport.peak_value_bytes` (0 if unknown).
    predicted_peak_bytes: int
    #: live memoized-value bytes when the window closed.
    live_bytes: int
    #: kernel workspace arena bytes when the window closed.
    workspace_bytes: int
    #: factor-matrix bytes (dense, constant per run).
    factor_bytes: int
    #: tracemalloc (current, peak) bytes at window close, if sampling.
    traced_current_bytes: int | None = None
    traced_peak_bytes: int | None = None

    @property
    def ratio(self) -> float | None:
        """measured/predicted peak, None when there is no prediction."""
        if self.predicted_peak_bytes <= 0:
            return None
        return self.measured_peak_bytes / self.predicted_peak_bytes

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "measured_peak_bytes": self.measured_peak_bytes,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "ratio": self.ratio,
            "live_bytes": self.live_bytes,
            "workspace_bytes": self.workspace_bytes,
            "factor_bytes": self.factor_bytes,
            "traced_current_bytes": self.traced_current_bytes,
            "traced_peak_bytes": self.traced_peak_bytes,
        }


@dataclass
class _Sample:
    """A time-stamped total-live-bytes sample (for trace counter tracks)."""

    t: float
    live_bytes: int


class MemTracker(IterationObserver):
    """Exact live/peak accounting of memoized-value bytes.

    Engines report node-value lifecycle events keyed by
    ``(id(engine), node_id)`` so multiple engines can share one tracker
    without id collisions.  All mutation happens under one lock: the
    store/free, the running total, and the peak update are atomic, which is
    what makes peak accounting correct when pool workers rebuild
    concurrently.

    Parameters
    ----------
    sample_tracemalloc:
        also record :func:`tracemalloc.get_traced_memory` at iteration
        boundaries (starts tracemalloc if it is not already tracing; the
        peak is reset at each window start, so it is the window's peak).
        Symbolic byte counts are exact; this is the allocator-overhead
        view.
    keep_samples:
        retain up to this many time-stamped total-live samples for the
        Chrome-trace memory counter track (0 disables the series).
    """

    def __init__(self, *, sample_tracemalloc: bool = False,
                 keep_samples: int = 100_000):
        self._lock = threading.Lock()
        self._live: dict[tuple[int, int], int] = {}
        self.live_bytes = 0
        self.peak_bytes = 0
        self._window_peak = 0
        self.n_stores = 0
        self.n_frees = 0
        #: stores whose byte size disagreed with the registered prediction.
        self.n_mismatches = 0
        self._expected: dict[int, list[int]] = {}
        self.readings: list[MemReading] = []
        self.samples: list[_Sample] = []
        self._keep_samples = int(keep_samples)
        #: the model's peak value bytes for the current run (0 if unknown).
        self.predicted_peak_bytes = 0
        self.sample_tracemalloc = False
        self._own_tracemalloc = False
        self.set_tracemalloc(sample_tracemalloc)

    def set_tracemalloc(self, on: bool) -> None:
        """Start (or stop) sampling tracemalloc at iteration boundaries.

        Turning it off stops tracemalloc when this tracker started it, so
        a later run that did not ask for allocator sampling never reads a
        trace left running by an earlier one.
        """
        if not on:
            self.close()
        elif not tracemalloc.is_tracing():
            tracemalloc.start()
            self._own_tracemalloc = True
        self.sample_tracemalloc = bool(on)

    # -- engine feeds --------------------------------------------------
    def register_expected(self, engine_key: int,
                          node_bytes: list[int]) -> None:
        """Install the model's per-node byte prediction for one engine.

        Subsequent :meth:`on_store` events from that engine are checked
        against the prediction; disagreements count in ``n_mismatches``
        and the ``mem.node_mismatch`` metric.
        """
        with self._lock:
            self._expected[engine_key] = list(node_bytes)

    def on_store(self, engine_key: int, node_id: int, nbytes: int) -> None:
        """A node value matrix of ``nbytes`` was cached."""
        key = (engine_key, node_id)
        with self._lock:
            prev = self._live.pop(key, 0)
            self._live[key] = nbytes
            self.live_bytes += nbytes - prev
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
            if self.live_bytes > self._window_peak:
                self._window_peak = self.live_bytes
            self.n_stores += 1
            expected = self._expected.get(engine_key)
            if (expected is not None and node_id < len(expected)
                    and expected[node_id] != nbytes):
                self.n_mismatches += 1
                _metrics.incr("mem.node_mismatch")
            self._sample_locked()

    def on_free(self, engine_key: int, node_id: int) -> None:
        """A cached node value was dropped (invalidation or eager free)."""
        key = (engine_key, node_id)
        with self._lock:
            nbytes = self._live.pop(key, None)
            if nbytes is None:
                return
            self.live_bytes -= nbytes
            self.n_frees += 1
            self._sample_locked()

    def release_engine(self, engine_key: int) -> None:
        """Drop every entry of one engine (its values are gone)."""
        with self._lock:
            for key in [k for k in self._live if k[0] == engine_key]:
                self.live_bytes -= self._live.pop(key)
            self._expected.pop(engine_key, None)

    def _sample_locked(self) -> None:
        if len(self.samples) < self._keep_samples:
            self.samples.append(
                _Sample(_switch.get("trace").now(), self.live_bytes)
            )

    # -- iteration windows (the CP-ALS observer protocol) ---------------
    def start_run(self, engine, rank: int,
                  predicted_peak_bytes: int = 0) -> None:
        """Align with one run: the model's per-node byte prediction for
        ``engine`` (see :meth:`register_expected`) and its peak."""
        from ..core.dtypes import VALUE_ITEMSIZE

        self.register_expected(
            id(engine),
            [n * rank * VALUE_ITEMSIZE for n in engine.symbolic.node_nnz()],
        )
        self.predicted_peak_bytes = int(predicted_peak_bytes)

    def begin_iteration(self, iteration: int) -> None:
        """Start a peak-measurement window (an ALS iteration)."""
        if self.sample_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        with self._lock:
            self._window_peak = self.live_bytes

    def window_peak(self) -> int:
        """Max total live bytes observed since :meth:`begin_iteration`."""
        with self._lock:
            return self._window_peak

    def end_iteration(self, record) -> MemReading:
        """Close the current window into ``record.mem``.

        Publishes ``mem.*`` gauges so ``repro trace`` metrics snapshots
        carry the latest reading, and appends to :attr:`readings` — the
        measured-vs-predicted series ``memory.json`` records.  Workspace and
        factor bytes come from ``record.engine`` when it has one.
        """
        engine = record.engine
        predicted = self.predicted_peak_bytes
        traced_current = traced_peak = None
        if self.sample_tracemalloc and tracemalloc.is_tracing():
            traced_current, traced_peak = tracemalloc.get_traced_memory()
        with self._lock:
            reading = MemReading(
                iteration=record.iteration,
                measured_peak_bytes=self._window_peak,
                predicted_peak_bytes=predicted,
                live_bytes=self.live_bytes,
                workspace_bytes=(engine.workspace_nbytes()
                                 if engine is not None else 0),
                factor_bytes=(engine.factor_bytes()
                              if engine is not None else 0),
                traced_current_bytes=traced_current,
                traced_peak_bytes=traced_peak,
            )
            self.readings.append(reading)
        _metrics.set_gauge("mem.iter_peak_bytes", reading.measured_peak_bytes)
        _metrics.set_max_gauge("mem.peak_bytes", self.peak_bytes)
        if predicted > 0:
            _metrics.set_gauge("mem.predicted_peak_bytes", predicted)
        if traced_peak is not None:
            _metrics.set_max_gauge("mem.tracemalloc_peak_bytes", traced_peak)
        record.mem = reading
        return reading

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly summary + the full per-iteration series."""
        with self._lock:
            return {
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
                "n_stores": self.n_stores,
                "n_frees": self.n_frees,
                "n_mismatches": self.n_mismatches,
                "n_live_nodes": len(self._live),
                "tracemalloc": self.sample_tracemalloc,
                "readings": [r.to_dict() for r in self.readings],
            }

    def reset(self) -> None:
        with self._lock:
            self._live.clear()
            self._expected.clear()
            self.live_bytes = 0
            self.peak_bytes = 0
            self._window_peak = 0
            self.n_stores = 0
            self.n_frees = 0
            self.n_mismatches = 0
            self.predicted_peak_bytes = 0
            self.readings.clear()
            self.samples.clear()

    def close(self) -> None:
        """Stop tracemalloc if this tracker started it."""
        if self._own_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._own_tracemalloc = False

    def __repr__(self) -> str:
        return (
            f"MemTracker(live={self.live_bytes}, peak={self.peak_bytes}, "
            f"stores={self.n_stores}, frees={self.n_frees})"
        )
