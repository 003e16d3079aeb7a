"""Structured run-event log: JSON-lines telemetry for *live* observation.

The tracer answers "where did the time go" after a run exits; this module
answers "what is the run doing *right now*".  Instrumented call sites
(:func:`repro.core.cpals.cp_als`, the engines' node rebuilds, the
pseudo-inverse fallback of the normal-equation solve) emit small
structured events — run start/stop, one ``iteration`` event per ALS
iteration carrying fit/delta/memory/health readings, node rebuilds,
warnings — into a process-global :class:`EventLog`:

* a bounded **ring buffer** (the last ``maxlen`` events, cheap to snapshot)
  that ``repro trace`` dumps to ``events.jsonl``;
* an optional **file sink**: one JSON object per line (schema
  ``repro-events/v1``), append-only and flushed per event so
  ``repro tail --follow <events.jsonl>`` and log shippers see events as
  they happen, not at exit.

Like the tracer, events are **off by default** and no-op-cheap when off:
:func:`emit` returns at once unless ``switch.is_on("events")``.  Turn
them on through :mod:`repro.obs.switch` — ``REPRO_OBS=events`` keeps the
ring buffer only, ``REPRO_OBS=events=/path/events.jsonl`` additionally
opens that file as the sink.  :class:`IterationEvents` is the CP-ALS
loop's observer (:mod:`repro.obs.observer`) that turns each finished
iteration record into one ``iteration`` event.  ``repro tail`` and
``repro report`` read the log back.
"""

from __future__ import annotations

import collections
import contextvars
import json
import math
import os
import threading
import time
import uuid
from contextlib import contextmanager

from . import switch as _switch
from .observer import IterationObserver

__all__ = [
    "EVENTS_SCHEMA", "EVENT_KINDS", "EventLog", "IterationEvents", "emit",
    "run_id", "running", "read_events", "validate_events", "format_event",
]

#: schema tag stamped on every event line (bump on layout change).
EVENTS_SCHEMA = "repro-events/v1"

#: event kinds the instrumented stack emits, with their required fields
#: (beyond the envelope ``schema``/``seq``/``t``/``kind``).
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    "run_start": ("shape", "nnz", "rank", "strategy", "n_iter_max"),
    "iteration": ("iteration", "fit", "seconds"),
    "run_stop": ("n_iterations", "converged", "fit", "total_seconds"),
    "node_rebuild": ("node", "nnz", "seconds"),
    "warning": ("message",),
}


class EventLog:
    """Ring buffer + optional JSONL file sink for structured events.

    Thread-safe: engines emit from pool workers concurrently.  The sink
    is flushed per event (events are rare — per iteration / per rebuild —
    so the syscall cost is noise next to the numeric work they describe).
    """

    def __init__(self, maxlen: int = 4096, sink_path: str | None = None):
        self._lock = threading.Lock()
        self._ring: collections.deque[dict] = collections.deque(maxlen=maxlen)
        self._seq = 0
        self._sink = None
        self.n_dropped = 0
        if sink_path:
            self.open_sink(sink_path)

    # -- sink management -----------------------------------------------
    def open_sink(self, path: str) -> None:
        """Append events to ``path`` (JSONL) from now on."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._sink = open(path, "a")

    def close_sink(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    # -- emit / read ---------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the stamped event dict."""
        event = {"schema": EVENTS_SCHEMA, "kind": kind, "t": time.time()}
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._ring) == self._ring.maxlen:
                self.n_dropped += 1
            self._ring.append(event)
            if self._sink is not None:
                self._sink.write(json.dumps(event) + "\n")
                self._sink.flush()
        return event

    def tail(self, n: int | None = None) -> list[dict]:
        """The last ``n`` events (all buffered events when ``n`` is None)."""
        with self._lock:
            events = list(self._ring)
        return events if n is None else events[-n:]

    def write_jsonl(self, path: str) -> int:
        """Dump the buffered events to ``path``; returns the count written.

        Complements the live sink: ``repro trace`` uses this to leave an
        ``events.jsonl`` artifact even when no sink was configured.
        """
        events = self.tail()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        return len(events)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._seq = 0
            self.n_dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


#: the enclosing run's id.  It propagates the way span parents do: into
#: pool threads via the context copy each traced task runs in.
_run_id: contextvars.ContextVar = contextvars.ContextVar(
    "repro_run_id", default=None
)


def run_id() -> str | None:
    """The enclosing run's id, or None outside :func:`running`."""
    return _run_id.get()


@contextmanager
def running():
    """Run a block as one run: yields a fresh ``run-<8 hex>`` id, or the
    id of an enclosing run, which stamps every event emitted inside."""
    outer = _run_id.get()
    if outer is not None:
        yield outer
        return
    token = _run_id.set(f"run-{uuid.uuid4().hex[:8]}")
    try:
        yield _run_id.get()
    finally:
        _run_id.reset(token)


def emit(kind: str, **fields) -> dict | None:
    """Emit an event if logging is on (None otherwise), stamped with the
    enclosing run's ``run_id``."""
    if not _switch.is_on("events"):
        return None
    rid = _run_id.get()
    if rid is not None:
        fields.setdefault("run_id", rid)
    return _switch.get("events").emit(kind, **fields)


class IterationEvents(IterationObserver):
    """Streams each finished ALS iteration as one ``iteration`` event,
    with the memory / health readings earlier observers filled into the
    record."""

    def end_iteration(self, record) -> None:
        fields = {"iteration": record.iteration, "fit": record.fit,
                  "seconds": record.seconds}
        if record.fit_delta is not None:
            fields["delta"] = record.fit_delta
        mem = record.mem
        if mem is not None:
            fields["mem_peak_bytes"] = mem.measured_peak_bytes
            fields["mem_live_bytes"] = mem.live_bytes
        health = record.health
        if health is not None:
            if math.isfinite(health.max_condition_number):
                fields["health_max_condition"] = health.max_condition_number
            if math.isfinite(health.max_factor_delta):
                fields["health_max_factor_delta"] = health.max_factor_delta
            fields["health_congruence"] = health.congruence
            fields["health_trajectory"] = health.trajectory
            if health.n_truncated:
                fields["health_truncated_eigenvalues"] = health.n_truncated
            if health.pinv_fallbacks:
                fields["health_pinv_fallbacks"] = health.pinv_fallbacks
        emit("iteration", **fields)


# ---------------------------------------------------------------------------
# file I/O + validation
# ---------------------------------------------------------------------------

def read_events(path: str) -> list[dict]:
    """Parse an ``events.jsonl`` file back into event dicts."""
    events: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def validate_events(events) -> list[str]:
    """Schema errors (empty = valid) for a sequence of event dicts.

    Checks the ``repro-events/v1`` envelope (schema tag, monotonically
    increasing ``seq``, numeric ``t``, known-or-namespaced ``kind``) and
    the per-kind required fields of :data:`EVENT_KINDS`.
    """
    errors: list[str] = []
    last_seq = 0
    for i, event in enumerate(events):
        where = f"events[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        if event.get("schema") != EVENTS_SCHEMA:
            errors.append(f"{where}: schema must be {EVENTS_SCHEMA!r}, "
                          f"got {event.get('schema')!r}")
        kind = event.get("kind")
        if not isinstance(kind, str) or not kind:
            errors.append(f"{where}: missing kind")
            continue
        if not isinstance(event.get("t"), (int, float)):
            errors.append(f"{where}: t must be a number")
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= 0:
            errors.append(f"{where}: seq must be a positive integer")
        elif seq <= last_seq:
            errors.append(f"{where}: seq {seq} not increasing "
                          f"(previous {last_seq})")
        else:
            last_seq = seq
        required = EVENT_KINDS.get(kind)
        if required is not None:
            for field in required:
                if field not in event:
                    errors.append(f"{where}: {kind!r} event missing "
                                  f"{field!r}")
    return errors


def format_event(event: dict) -> str:
    """One-line human rendering for ``repro tail``."""
    kind = event.get("kind", "?")
    t = event.get("t")
    stamp = (time.strftime("%H:%M:%S", time.localtime(t))
             if isinstance(t, (int, float)) else "--:--:--")
    skip = {"schema", "kind", "t", "seq"}
    parts = []
    for key, value in event.items():
        if key in skip or value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return f"{stamp} {kind:<13s} {' '.join(parts)}"
