"""The CP-ALS loop's one telemetry interface: per-iteration observers.

Every instrument that watches iterations implements the same three
methods, and :func:`repro.core.cpals.cp_als` calls them on each entry of
one observer list — the loop has no branch for any single instrument:

* ``begin_iteration(iteration)`` — open the iteration's window;
* ``observe_mode(mode, H, U_prev, U_new)`` — one mode's solve: the
  Hadamard Gram just used and the factor before/after the update (all
  read-only, so observers are bitwise-neutral to the factors);
* ``end_iteration(record)`` — close the window into the shared
  :class:`IterationRecord`.

Observers run in list order, so later ones read what earlier ones filled
in: the memory tracker and health collector set ``record.mem`` /
``.health``; the event emitter streams the finished record.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import switch as _switch

__all__ = ["IterationRecord", "IterationObserver", "start_run", "stop_run"]


@dataclass
class IterationRecord:
    """One ALS iteration as its observers see (and fill) it."""

    iteration: int
    fit: float | None = None
    #: change from the previous iteration's fit (None on the first).
    fit_delta: float | None = None
    seconds: float = 0.0
    #: per-mode factor Grams (a :class:`~repro.linalg.gram.GramCache`).
    grams: object = None
    engine: object = None
    mem: object = None
    health: object = None


class IterationObserver:
    """No-op defaults: an observer overrides the hooks it needs."""

    def begin_iteration(self, iteration: int) -> None:
        pass

    def observe_mode(self, mode: int, H, U_prev, U_new) -> None:
        pass

    def end_iteration(self, record: IterationRecord) -> None:
        pass


def start_run(engine, rank: int, **run_fields) -> list:
    """Set up every enabled per-iteration instrument for one run.

    Returns the observer list in feed order.  The memory tracker needs a
    memoized engine's symbolic tree.  ``run_fields`` go out as the
    ``run_start`` event.
    """
    from ..core.engine import MemoizedMttkrp

    memoized = isinstance(engine, MemoizedMttkrp)
    observers = []
    if memoized and _switch.is_on("mem"):
        from ..model.cost import simulate_peak_value_bytes

        predicted_peak = simulate_peak_value_bytes(
            engine.strategy, engine.symbolic.node_nnz(), rank
        )
        tracker = _switch.get("mem")
        tracker.start_run(engine, rank, predicted_peak)
        observers.append(tracker)
    if _switch.is_on("health"):
        collector = _switch.get("health")
        collector.start_run(n_modes=len(engine.mode_order))
        observers.append(collector)
    if _switch.is_on("events"):
        from .events import IterationEvents, emit

        emit("run_start", rank=rank, **run_fields)
        observers.append(IterationEvents())
    return observers


def stop_run(engine, **fields) -> None:
    """Close one run: drop ``engine``'s values from the memory tracker, so
    a later run in the process (a restart, say) measures only its own, and
    emit the ``run_stop`` event (when events are on)."""
    if _switch.is_on("mem"):
        _switch.get("mem").release_engine(id(engine))
    from .events import emit

    emit("run_stop", **fields)
