"""Span-based tracer: nested wall-time attribution for the whole stack.

A *span* is a named, timed region (an ALS iteration, one mode's MTTKRP, a
node rebuild, a kernel pass, a pool task).  Spans nest: the tracer keeps the
current span in a :mod:`contextvars` context variable, so a span opened
inside another becomes its child — including across threads, because
:class:`~repro.parallel.pool.WorkerPool` runs each task in a copy of the
submitting thread's context.  The result is a tree that attributes every
microsecond of an engine run to the phase that spent it.

Tracing is **off by default** and must be no-op-cheap when off: ``span()``
returns a shared null context manager without allocating, and hot call
sites additionally guard on ``switch.is_on("trace")``.  Turn it on with
the :mod:`repro.obs.switch` (``REPRO_OBS=trace`` before import, or
``switch.enabled("trace")`` in code)::

    REPRO_OBS=trace python -m repro decompose nips --scale 0.05

Finished spans accumulate in the active :class:`Tracer`
(``switch.get("trace")``); export them with :mod:`repro.obs.export`
(Chrome ``trace_event`` JSON, JSONL, or a human-readable tree).
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time

from . import switch as _switch
from .metrics import registry as _metrics

__all__ = [
    "SpanRecord", "Tracer", "span", "record_span", "current_span_id",
    "set_span_observer",
]


class SpanRecord:
    """One finished (or in-flight) span.

    Times are seconds relative to the owning tracer's epoch, taken from
    ``time.perf_counter_ns``; ``tid`` is the OS thread identifier of the
    thread that opened the span.
    """

    __slots__ = ("id", "parent", "kind", "t0", "t1", "tid", "attrs")

    def __init__(self, id: int, parent: int | None, kind: str, t0: float,
                 tid: int, attrs: dict, t1: float | None = None):
        self.id = id
        self.parent = parent
        self.kind = kind
        self.t0 = t0
        self.t1 = t1
        self.tid = tid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpanRecord":
        return cls(
            id=int(d["id"]),
            parent=None if d.get("parent") is None else int(d["parent"]),
            kind=str(d["kind"]),
            t0=float(d["t0"]),
            tid=int(d.get("tid", 0)),
            attrs=dict(d.get("attrs", {})),
            t1=None if d.get("t1") is None else float(d["t1"]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanRecord):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"SpanRecord(id={self.id}, kind={self.kind!r}, "
            f"parent={self.parent}, dur={self.duration * 1e3:.3f}ms)"
        )


class Tracer:
    """Collects finished spans (thread-safe append, snapshot reads)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self.epoch_ns = time.perf_counter_ns()
        #: wall-clock time of the epoch, for correlating traces with logs.
        self.wall_epoch = time.time()

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return (time.perf_counter_ns() - self.epoch_ns) * 1e-9

    def record(self, rec: SpanRecord) -> None:
        with self._lock:
            self._spans.append(rec)

    def finished(self) -> list[SpanRecord]:
        """Snapshot of all recorded spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
        self.epoch_ns = time.perf_counter_ns()
        self.wall_epoch = time.time()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_ids = itertools.count(1)
_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)
def current_span_id() -> int | None:
    """Id of the innermost open span in this context, if any."""
    return _current.get()


class _NullSpan:
    """Reusable no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()

#: optional span lifecycle hook (the sampling profiler's live span-stack
#: mirror).  Kept as a raw module global so the off cost is one load and
#: a None check per span enter/exit — no indirection, no list.
_span_observer = None


def set_span_observer(observer) -> None:
    """Install (or clear, with ``None``) the span lifecycle observer.

    The observer sees every ``push(rec)`` at span enter and ``pop(rec)``
    at span exit, on the thread that runs the span.  One observer at a
    time; :mod:`repro.obs.profiler` owns it while sampling is on.
    """
    global _span_observer
    _span_observer = observer


class _Span:
    __slots__ = ("kind", "attrs", "rec", "_token", "_tracer")

    def __init__(self, kind: str, attrs: dict):
        self.kind = kind
        self.attrs = attrs

    def __enter__(self) -> SpanRecord:
        tracer = _switch.get("trace")
        rec = SpanRecord(
            id=next(_ids),
            parent=_current.get(),
            kind=self.kind,
            t0=tracer.now(),
            tid=threading.get_ident(),
            attrs=self.attrs,
        )
        self.rec = rec
        self._tracer = tracer
        self._token = _current.set(rec.id)
        observer = _span_observer
        if observer is not None:
            observer.push(rec)
        return rec

    def __exit__(self, *exc) -> bool:
        observer = _span_observer
        if observer is not None:
            observer.pop(self.rec)
        _current.reset(self._token)
        rec = self.rec
        rec.t1 = self._tracer.now()
        self._tracer.record(rec)
        _metrics.observe_span(rec.kind, rec.t1 - rec.t0)
        return False


def span(kind: str, **attrs):
    """Context manager timing one region as a span of ``kind``.

    While tracing is disabled this returns a shared null context manager —
    the only cost is the call itself and the keyword dict.  Truly hot call
    sites should guard with ``if switch.is_on("trace"):`` and skip even that.
    """
    if not _switch.is_on("trace"):
        return _NULL_SPAN
    return _Span(kind, attrs)


def record_span(kind: str, t0: float, t1: float, *,
                parent: int | None = None, tid: int | None = None,
                **attrs) -> SpanRecord | None:
    """Record an already-measured region as a finished span.

    For work that happened where the context-manager API cannot reach —
    e.g. inside a worker *process*, whose duration is reported back to the
    parent after the fact.  The span gets a fresh id, the caller's current
    span as parent (unless ``parent`` is given), and feeds the same metrics
    histogram as :func:`span`.  No-op (returns None) while tracing is off.
    """
    if not _switch.is_on("trace"):
        return None
    tracer = _switch.get("trace")
    rec = SpanRecord(
        id=next(_ids),
        parent=parent if parent is not None else _current.get(),
        kind=kind,
        t0=t0,
        tid=tid if tid is not None else threading.get_ident(),
        attrs=attrs,
        t1=t1,
    )
    tracer.record(rec)
    _metrics.observe_span(kind, rec.duration)
    return rec
