"""Metrics registry: span wall-time histograms + counters + gauges.

One process-global :class:`MetricsRegistry` aggregates three kinds of
observation:

* **span stats** — per span kind, a count / total / min / max accumulator
  plus a coarse log2 latency histogram, fed by the tracer on span exit;
* **counters** — a :class:`repro.perf.counters.Counters` instance owned by
  the registry; install it with ``perf.counting(registry.counters)`` (the
  CLI ``repro trace`` command and the experiment runner do) and the
  engine's measured flops/words flow in;
* **gauges / event counts** — last-value and monotonically increasing
  scalars (the ``mem.*`` and ``health.*`` readings,
  kernel-registry resolution counts).

:func:`repro.obs.metrics` snapshots everything into one JSON-friendly dict.
"""

from __future__ import annotations

import math
import threading

from ..perf.counters import Counters

__all__ = ["SpanStats", "MetricsRegistry", "registry", "metrics"]

#: log2 bucket edges (seconds) for span latency histograms: 1us .. 4s.
_BUCKET_MIN_EXP = -20  # 2**-20 s ~ 0.95 us
_BUCKET_MAX_EXP = 2    # 2**2 s = 4 s


class SpanStats:
    """Streaming wall-time statistics for one span kind."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets = [0] * (_BUCKET_MAX_EXP - _BUCKET_MIN_EXP + 2)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if seconds <= 0:
            exp = _BUCKET_MIN_EXP
        else:
            exp = min(max(math.frexp(seconds)[1], _BUCKET_MIN_EXP),
                      _BUCKET_MAX_EXP + 1)
        self.buckets[exp - _BUCKET_MIN_EXP] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "log2_buckets": {
                f"<=2^{exp}s": n
                for exp, n in zip(
                    range(_BUCKET_MIN_EXP, _BUCKET_MAX_EXP + 2), self.buckets
                )
                if n
            },
        }


class MetricsRegistry:
    """Thread-safe aggregation point for spans, counters, and gauges."""

    def __init__(self):
        self._lock = threading.Lock()
        self.span_stats: dict[str, SpanStats] = {}
        self.counters = Counters()
        self._gauges: dict[str, float] = {}
        self._events: dict[str, int] = {}

    # -- feeds ---------------------------------------------------------
    def observe_span(self, kind: str, seconds: float) -> None:
        with self._lock:
            stats = self.span_stats.get(kind)
            if stats is None:
                stats = self.span_stats[kind] = SpanStats()
            stats.observe(seconds)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def set_max_gauge(self, name: str, value: float) -> None:
        """High-watermark gauge: keeps the maximum value ever set.

        Used for peaks (``mem.peak_bytes``) where the last value is less
        interesting than the worst one.
        """
        value = float(value)
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def incr(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._events[name] = self._events.get(name, 0) + value

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": self.counters.snapshot(),
                "spans": {
                    kind: stats.snapshot()
                    for kind, stats in sorted(self.span_stats.items())
                },
                "gauges": dict(self._gauges),
                "events": dict(self._events),
            }

    def reset(self) -> None:
        with self._lock:
            self.span_stats.clear()
            self.counters.reset()
            self._gauges.clear()
            self._events.clear()


#: the process-global registry (the tracer and instruments feed this one).
registry = MetricsRegistry()


def metrics() -> dict:
    """Snapshot of the registry (counters, span stats, gauges)."""
    return registry.snapshot()
