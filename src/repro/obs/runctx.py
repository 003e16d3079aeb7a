"""Run-scoped telemetry contexts.

A :class:`RunContext` bundles a ``run_id`` with (optionally) its own
instruments and rides a :mod:`contextvars` variable
(:func:`repro.obs.switch.current`) that :func:`repro.obs.switch.is_on`
and :func:`repro.obs.switch.get` consult on every guarded call, so the call
sites (engines, pools, kernels) are the same for scoped and process-wide
telemetry.

Two flavors:

* :meth:`RunContext.ambient` — no instruments of its own; everything
  lands in the process-wide instruments, but events are stamped with the
  ``run_id``.  This is what a bare ``cp_als`` call gets.
* :meth:`RunContext.scoped` — fresh private instruments for a pinned
  :mod:`repro.obs.switch` spec.  Two scoped runs in one process (threads
  or interleaved) keep fully separated spans/events/metrics/memory with
  zero cross-talk.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager

from . import profiler as _profiler_mod
from . import switch as _switch
from .metrics import MetricsRegistry

__all__ = ["RunContext", "new_run_id", "current", "using"]


def new_run_id() -> str:
    """A short unique run identifier (``run-<8 hex chars>``)."""
    return f"run-{uuid.uuid4().hex[:8]}"


class RunContext:
    """One run's identity plus (optionally) its own telemetry instruments.

    ``instruments`` maps instrument names (see :mod:`repro.obs.switch`) to
    private instances; names it lacks resolve to the process-wide ones.
    ``enabled`` pins which instruments are on for this run; None defers
    to the process-wide switch.  :meth:`ambient` leaves everything
    deferred; :meth:`scoped` pins all of it.
    """

    __slots__ = ("run_id", "instruments", "enabled", "metrics")

    def __init__(self, run_id: str | None = None, *,
                 instruments: dict | None = None,
                 enabled: frozenset | None = None, metrics=None):
        self.run_id = run_id or new_run_id()
        self.instruments = dict(instruments or {})
        self.enabled = enabled
        self.metrics = metrics

    # -- constructors --------------------------------------------------
    @classmethod
    def ambient(cls, run_id: str | None = None) -> "RunContext":
        """A context that aliases the global singletons (legacy behavior
        plus a run_id stamp on events)."""
        return cls(run_id)

    @classmethod
    def scoped(cls, run_id: str | None = None, *,
               obs="events") -> "RunContext":
        """A context with fresh, fully isolated instruments.

        ``obs`` is a :mod:`repro.obs.switch` spec (``"trace,events"``,
        ``"all"``, ``"trace,profile=199"``, ...) naming the instruments
        this run turns on; it is pinned, so a scoped run is unaffected
        by — and does not affect — the process-wide switch.  With
        ``profile`` on, :func:`using` keeps the process-wide sampler
        thread alive for the activation.
        """
        instruments = _switch.fresh(obs)
        return cls(run_id, instruments=instruments,
                   enabled=frozenset(instruments),
                   metrics=MetricsRegistry())

    # -- introspection -------------------------------------------------
    @property
    def owns_telemetry(self) -> bool:
        """True for scoped contexts (private instruments), False for
        ambient ones riding the global singletons."""
        return self.metrics is not None

    def __repr__(self) -> str:
        kind = "scoped" if self.owns_telemetry else "ambient"
        return f"RunContext({self.run_id!r}, {kind})"


def current() -> RunContext | None:
    """The active run context in this execution context, if any."""
    return _switch.current()


@contextmanager
def using(ctx: RunContext):
    """Activate ``ctx`` for a block."""
    store = ctx.instruments.get("profile")
    if store is not None:
        _profiler_mod.retain_sampler(store.hz)
        # Samples on this thread taken outside any span (or with tracing
        # off entirely) still belong to this run's store.
        bind_token = _profiler_mod.bind_thread(store)
    token = _switch.activate(ctx)
    try:
        yield ctx
    finally:
        _switch.deactivate(token)
        if store is not None:
            _profiler_mod.unbind_thread(bind_token)
            _profiler_mod.release_sampler()
