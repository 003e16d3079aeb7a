"""Run-scoped telemetry contexts and the registry of concurrent runs.

A :class:`RunContext` bundles a ``run_id`` with (optionally) its own
instruments and rides a :mod:`contextvars` variable
(:func:`repro.obs.switch.current`) that :func:`repro.obs.switch.is_on`
and :func:`repro.obs.switch.get` consult on every guarded call, so the call
sites (engines, pools, kernels) are the same for scoped and process-wide
telemetry.

Two flavors:

* :meth:`RunContext.ambient` — no instruments of its own; everything
  lands in the process-wide instruments, but events are stamped with the
  ``run_id`` and the run shows up on ``/runz``.  This is what a bare
  ``cp_als`` call gets.
* :meth:`RunContext.scoped` — fresh private instruments for a pinned
  :mod:`repro.obs.switch` spec.  Two scoped runs in one process (threads
  or interleaved) keep fully separated spans/events/metrics/memory with
  zero cross-talk, and ``/metrics`` labels each run's families with its
  ``run_id``.

The process-wide :data:`run_registry` tracks every context that has been
activated (finished runs are kept, bounded, for post-hoc inspection);
``repro serve`` renders it on ``/runz``.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid
from contextlib import contextmanager

from . import profiler as _profiler_mod
from . import switch as _switch
from .metrics import MetricsRegistry

__all__ = [
    "RunContext", "RunRegistry", "run_registry", "new_run_id",
    "current", "using",
]


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

    __slots__ = ("run_id", "instruments", "enabled", "metrics",
                 "created_at", "finished_at", "status", "meta")

    def __init__(self, run_id: str | None = None, *,
                 instruments: dict | None = None,
                 enabled: frozenset | None = None, metrics=None,
                 meta: dict | None = None):
        self.run_id = run_id or new_run_id()
        self.instruments = dict(instruments or {})
        self.enabled = enabled
        self.metrics = metrics
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.status = "created"
        self.meta = dict(meta or {})

    # -- constructors --------------------------------------------------
    @classmethod
    def ambient(cls, run_id: str | None = None, **meta) -> "RunContext":
        """A context that aliases the global singletons (legacy behavior
        plus a run_id stamp on events and a ``/runz`` entry)."""
        return cls(run_id, meta=meta)

    @classmethod
    def scoped(cls, run_id: str | None = None, *, obs="events",
               **meta) -> "RunContext":
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
                   metrics=MetricsRegistry(), meta=meta)

    # -- introspection -------------------------------------------------
    @property
    def owns_telemetry(self) -> bool:
        """True for scoped contexts (private instruments), False for
        ambient ones riding the global singletons."""
        return self.metrics is not None

    def describe(self) -> dict:
        """JSON-friendly summary for ``/runz``."""
        out = {
            "run_id": self.run_id,
            "status": self.status,
            "scoped": self.owns_telemetry,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "enabled": (None if self.enabled is None
                        else sorted(self.enabled)),
            "meta": self.meta,
        }
        events = self.instruments.get("events")
        if events is not None:
            out["n_events"] = len(events)
            out["run"] = events.run.to_dict()
        if "trace" in self.instruments:
            out["n_spans"] = len(self.instruments["trace"])
        if "profile" in self.instruments:
            out["n_profile_samples"] = self.instruments["profile"].n_samples
        return out

    def __repr__(self) -> str:
        kind = "scoped" if self.owns_telemetry else "ambient"
        return f"RunContext({self.run_id!r}, {kind}, status={self.status!r})"


class RunRegistry:
    """Thread-safe registry of run contexts, past and present.

    Bounded: once more than ``keep_finished`` non-active runs accumulate,
    the oldest finished ones are evicted (active runs are never evicted).
    """

    def __init__(self, keep_finished: int = 64):
        self._lock = threading.Lock()
        self._runs: collections.OrderedDict[str, RunContext] = \
            collections.OrderedDict()
        self.keep_finished = int(keep_finished)

    def register(self, ctx: RunContext) -> RunContext:
        with self._lock:
            self._runs[ctx.run_id] = ctx
            self._runs.move_to_end(ctx.run_id)
            finished = [rid for rid, c in self._runs.items()
                        if c.status != "running"]
            for rid in finished[:max(len(finished) - self.keep_finished, 0)]:
                del self._runs[rid]
        return ctx

    def unregister(self, run_id: str) -> None:
        with self._lock:
            self._runs.pop(run_id, None)

    def get(self, run_id: str) -> RunContext | None:
        with self._lock:
            return self._runs.get(run_id)

    def runs(self) -> list[RunContext]:
        """All registered contexts, oldest first."""
        with self._lock:
            return list(self._runs.values())

    def active(self) -> list[RunContext]:
        return [c for c in self.runs() if c.status == "running"]

    def describe(self) -> list[dict]:
        return [c.describe() for c in self.runs()]

    def clear(self) -> None:
        with self._lock:
            self._runs.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)


#: the process-wide registry that ``/runz`` serves.
run_registry = RunRegistry()


def current() -> RunContext | None:
    """The active run context in this execution context, if any."""
    return _switch.current()


@contextmanager
def using(ctx: RunContext, *, register: bool = True):
    """Activate ``ctx`` for a block (and register it for ``/runz``).

    The context stays in the registry after the block — finished, not
    gone — so a completed run's telemetry remains inspectable until the
    registry evicts it.
    """
    if register:
        run_registry.register(ctx)
    ctx.status = "running"
    store = ctx.instruments.get("profile")
    if store is not None:
        _profiler_mod.retain_sampler(store.hz)
        # Samples on this thread taken outside any span (or with tracing
        # off entirely) still belong to this run's store.
        bind_token = _profiler_mod.bind_thread(store)
    token = _switch.activate(ctx)
    try:
        yield ctx
    except BaseException:
        ctx.status = "failed"
        raise
    else:
        ctx.status = "finished"
    finally:
        ctx.finished_at = time.time()
        _switch.deactivate(token)
        if store is not None:
            _profiler_mod.unbind_thread(bind_token)
            _profiler_mod.release_sampler()
