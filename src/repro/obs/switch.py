"""One switch for every telemetry instrument.

The six instruments — span tracer, memory tracker, event log, cost
attribution, sampling profiler, numerical health — share one on/off
table.  Turn them on with one spec, either in the environment before the
process starts::

    REPRO_OBS=all python -m repro decompose nips --scale 0.05
    REPRO_OBS=trace,events=out/events.jsonl,profile=199 python my_run.py

or in code::

    from repro.obs import switch

    with switch.enabled("trace,mem") as on:
        cp_als(X, rank=16, strategy="bdt")
    spans = on["trace"].finished()

A spec is ``all`` (everything ``repro trace`` records: trace, mem,
events, attr, health — the profiler's sampler thread stays opt-in) or a
comma list of instrument names.  An item may carry a value:
``events=<path>`` opens a JSON-lines sink, ``profile=<hz>`` sets the
sampling rate, ``mem=tracemalloc`` adds allocator sampling.

Guards and accessors are run-context aware: the active
:class:`~repro.obs.runctx.RunContext` (held here, see :func:`current`)
with a pinned ``enabled`` set and private instruments
(``RunContext.scoped(obs=...)``) overrides the process-wide state for its
own run, so concurrent runs keep separate telemetry.  Instrument modules
are imported lazily (they import this module for their guards);
``repro.obs`` imports it first, so the ``REPRO_OBS`` spec read at import
can build instruments safely.
"""

from __future__ import annotations

import contextvars
import importlib
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

__all__ = ["INSTRUMENTS", "ALL", "parse", "is_on", "get", "active",
           "enable", "disable", "enabled", "fresh", "current",
           "activate", "deactivate"]

#: what ``all`` turns on: every instrument ``repro trace`` records.
ALL = ("trace", "mem", "events", "attr", "health")


def _profiler():
    return importlib.import_module("repro.obs.profiler")


def _mem_on(tracker, value):
    tracker.set_tracemalloc(value == "tracemalloc")


def _events_on(log, path):
    if path:
        log.open_sink(path)


def _profile_on(store, hz):
    if hz:
        store.hz = float(hz)
    _profiler().start_sampler(store.hz)


class _Entry(NamedTuple):
    module: str
    cls: str
    #: method dropping accumulated state.
    clear: str
    #: constructor kwargs from the spec item's value.
    kwargs: Callable = lambda value: {}
    #: hooks run when the process-wide switch flips on / off.
    on: Callable | None = None
    off: Callable | None = None


_TABLE = {
    "trace": _Entry("trace", "Tracer", "clear"),
    "mem": _Entry("memory", "MemTracker", "reset",
                  lambda v: {"sample_tracemalloc": v == "tracemalloc"},
                  _mem_on, lambda tracker: tracker.close()),
    "events": _Entry("events", "EventLog", "clear",
                     lambda v: {"sink_path": v},
                     _events_on, lambda log: log.close_sink()),
    "attr": _Entry("attribution", "AttributionRecorder", "reset"),
    "profile": _Entry("profiler", "ProfileStore", "clear",
                      lambda v: {"hz": v}, _profile_on,
                      lambda store: _profiler().stop_sampler()),
    "health": _Entry("health", "HealthCollector", "reset"),
}
INSTRUMENTS = tuple(_TABLE)

#: the active run context.  It propagates the way span parents do: into
#: pool threads via the context copy each task runs in.
_run_ctx: contextvars.ContextVar = contextvars.ContextVar(
    "repro_run_context", default=None
)


def current():
    """The active RunContext, or None outside any run context."""
    return _run_ctx.get()


def activate(ctx):
    """Install ``ctx`` as the active run context; returns a reset token."""
    return _run_ctx.set(ctx)


def deactivate(token) -> None:
    """Restore the state captured by :func:`activate`'s token."""
    _run_ctx.reset(token)


_lock = threading.RLock()
#: process-wide enabled instruments (a run context's set overrides it).
_on: frozenset = frozenset()
#: process-wide instrument instances, built on first use.
_globals: dict = {}


def parse(spec) -> dict:
    """``'all'`` / ``'trace,events=out.jsonl'`` -> ``{name: value or None}``.

    A dict passes through (validated); None or ``''`` is the empty spec.
    """
    if isinstance(spec, dict):
        items = dict(spec)
    else:
        items = {}
        for part in (spec or "").split(","):
            name, _, value = part.partition("=")
            name = name.strip().lower()
            if name == "all":
                for n in ALL:
                    items.setdefault(n, None)
            elif name:
                items[name] = value.strip() or None
    unknown = sorted(set(items) - set(_TABLE))
    if unknown:
        raise ValueError(
            f"unknown telemetry instrument(s) {', '.join(unknown)} in "
            f"REPRO_OBS spec; known: all, {', '.join(INSTRUMENTS)}"
        )
    return items


def _make(name: str, value=None):
    entry = _TABLE[name]
    mod = importlib.import_module(f"repro.obs.{entry.module}")
    return getattr(mod, entry.cls)(**entry.kwargs(value))


def _global(name: str):
    inst = _globals.get(name)
    if inst is None:
        with _lock:
            inst = _globals.get(name)
            if inst is None:
                inst = _globals[name] = _make(name)
    return inst


def is_on(name: str) -> bool:
    """Whether instrument ``name`` is on here (the call-site guard)."""
    ctx = _run_ctx.get()
    if ctx is not None and ctx.enabled is not None:
        return name in ctx.enabled
    return name in _on


def get(name: str):
    """The active instance of ``name``: the run context's private one when
    it carries one, else the process-wide instance (kept after
    :func:`disable`, so a finished run can still be exported)."""
    ctx = _run_ctx.get()
    if ctx is not None:
        inst = ctx.instruments.get(name)
        if inst is not None:
            return inst
    return _global(name)


def active() -> frozenset:
    """The process-wide enabled set (ignores run contexts)."""
    return _on


def enable(spec="all", *, clear: bool = False) -> None:
    """Turn the spec's instruments on process-wide.

    ``clear=True`` first drops what they accumulated; item values (sink
    path, sampling rate, tracemalloc) are applied either way.
    """
    global _on
    with _lock:
        for name, value in parse(spec).items():
            inst, entry = _global(name), _TABLE[name]
            if clear:
                getattr(inst, entry.clear)()
            _on = _on | {name}
            if entry.on is not None:
                entry.on(inst, value)


def disable(spec=None) -> None:
    """Turn the spec's instruments (default: all) off; what they recorded
    is kept until the next ``clear``."""
    global _on
    names = INSTRUMENTS if spec is None else tuple(parse(spec))
    with _lock:
        for name in names:
            if name not in _on:
                continue
            _on = _on - {name}
            if _TABLE[name].off is not None:
                _TABLE[name].off(_global(name))


@contextmanager
def enabled(spec="all", *, clear: bool = True):
    """Turn the spec's instruments on for a block, then restore.

    The spec's instruments start empty (``clear=True``); the ones the
    block turned on are switched off again at exit, ones already on stay
    on.  Yields the process-wide instances by name.
    """
    items = parse(spec)
    turned_on = {n: v for n, v in items.items() if n not in _on}
    enable(turned_on)
    instances = {name: _global(name) for name in items}
    if clear:
        for name, inst in instances.items():
            getattr(inst, _TABLE[name].clear)()
    try:
        yield instances
    finally:
        disable(turned_on)


def fresh(spec) -> dict:
    """Private instances of the spec's instruments: what a scoped
    :class:`~repro.obs.runctx.RunContext` carries (its keys are the
    context's enabled set)."""
    return {name: _make(name, value) for name, value in parse(spec).items()}


# Read once at import.
enable(os.environ.get("REPRO_OBS"))
