"""One switch for every telemetry instrument.

The five instruments — span tracer, memory tracker, event log,
sampling profiler, numerical health — share one on/off table.  Turn them on with one spec, either in the environment before the
process starts::

    REPRO_OBS=all python -m repro decompose nips --scale 0.05
    REPRO_OBS=trace,events=out/events.jsonl,profile=199 python my_run.py

or in code::

    from repro.obs import switch

    with switch.enabled("trace,mem") as on:
        cp_als(X, rank=16, strategy="bdt")
    spans = on["trace"].finished()

A spec is ``all`` (everything ``repro trace`` records: trace, mem,
events, health — the profiler's sampler thread stays opt-in) or a
comma list of instrument names.  An item may carry a value:
``events=<path>`` opens a JSON-lines sink, ``profile=<hz>`` sets the
sampling rate, ``mem=tracemalloc`` adds allocator sampling.

There is one process-wide instance per instrument.  Instrument modules
are imported lazily (they import this module for their guards);
``repro.obs`` imports it first, so the ``REPRO_OBS`` spec read at import
can build instruments safely.
"""

from __future__ import annotations

import importlib
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

__all__ = ["INSTRUMENTS", "ALL", "parse", "is_on", "get", "active",
           "enable", "disable", "enabled"]

#: what ``all`` turns on: every instrument ``repro trace`` records.
ALL = ("trace", "mem", "events", "health")


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
    #: hooks run when the switch flips on / off.
    on: Callable | None = None
    off: Callable | None = None


_TABLE = {
    "trace": _Entry("trace", "Tracer", "clear"),
    "mem": _Entry("memory", "MemTracker", "reset",
                  _mem_on, lambda tracker: tracker.close()),
    "events": _Entry("events", "EventLog", "clear",
                     _events_on, lambda log: log.close_sink()),
    "profile": _Entry("profiler", "ProfileStore", "clear",
                      _profile_on, lambda store: _profiler().stop_sampler()),
    "health": _Entry("health", "HealthCollector", "reset"),
}
INSTRUMENTS = tuple(_TABLE)

_lock = threading.RLock()
#: enabled instruments.
_on: frozenset = frozenset()
#: instrument instances, built on first use.
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


def is_on(name: str) -> bool:
    """Whether instrument ``name`` is on (the call-site guard)."""
    return name in _on


def get(name: str):
    """The instance of ``name``, built on first use (kept after
    :func:`disable`, so a finished run can still be exported)."""
    inst = _globals.get(name)
    if inst is None:
        with _lock:
            inst = _globals.get(name)
            if inst is None:
                entry = _TABLE[name]
                mod = importlib.import_module(f"repro.obs.{entry.module}")
                inst = _globals[name] = getattr(mod, entry.cls)()
    return inst


def active() -> frozenset:
    """The enabled set."""
    return _on


def enable(spec="all", *, clear: bool = False) -> None:
    """Turn the spec's instruments on process-wide.

    ``clear=True`` first drops what they accumulated; item values (sink
    path, sampling rate, tracemalloc) are applied either way.
    """
    global _on
    with _lock:
        for name, value in parse(spec).items():
            inst, entry = get(name), _TABLE[name]
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
                _TABLE[name].off(get(name))


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
    instances = {name: get(name) for name in items}
    if clear:
        for name, inst in instances.items():
            getattr(inst, _TABLE[name].clear)()
    try:
        yield instances
    finally:
        disable(turned_on)


# Read once at import.
enable(os.environ.get("REPRO_OBS"))
