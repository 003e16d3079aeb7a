"""Per-worker utilization from ``pool_task`` spans: busy, wait, imbalance.

The multicore scaling story (E8, and the paper's own evaluation) lives or
dies on *load balance*: a thread pool where one worker's chunk takes 2x
the mean caps speedup regardless of worker count — the same per-mode
imbalance argument SPLATT-style schedulers and dimension-tree work make.
This module derives the three numbers that tell that story from the spans
:class:`repro.parallel.pool.WorkerPool` records (each ``pool_task`` span
carries ``worker`` — a small stable lane id — and ``queue_wait``, the
seconds between submit and start):

* **busy fraction** per worker — task seconds over the observed window;
* **queue wait** — scheduling latency, per worker and in aggregate;
* **load imbalance** — max/mean task seconds per *fan-out* (one
  ``WorkerPool.run`` call, identified by the tasks' shared parent span),
  aggregated per ALS iteration by walking each task's parent chain to its
  enclosing ``als_iteration`` span.

Consumed by ``repro report`` (text tables), the ``pool.imbalance``
gauge, and the E8 scaling experiment's imbalance column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .trace import SpanRecord

__all__ = [
    "WorkerStats", "FanoutStats", "IterationUtilization",
    "UtilizationReport", "utilization_from_spans", "format_utilization",
]


@dataclass
class WorkerStats:
    """One pool lane's totals over the analyzed span window."""

    worker: int
    n_tasks: int
    busy_seconds: float
    #: busy over the pool-active window (first task start .. last task end).
    busy_fraction: float
    queue_wait_seconds: float
    queue_wait_max: float
    #: provenance of this lane's timings: ``measured`` (span timed on the
    #: thread that ran the work), ``mixed``, or ``unknown`` (spans predate
    #: the marker).
    source: str = "unknown"

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "n_tasks": self.n_tasks,
            "busy_seconds": self.busy_seconds,
            "busy_fraction": self.busy_fraction,
            "queue_wait_seconds": self.queue_wait_seconds,
            "queue_wait_max": self.queue_wait_max,
            "source": self.source,
        }


@dataclass
class FanoutStats:
    """One ``WorkerPool.run`` fan-out (tasks sharing a parent span)."""

    parent_id: int | None
    iteration: int | None
    n_tasks: int
    mean_seconds: float
    max_seconds: float

    @property
    def imbalance(self) -> float:
        """max/mean task seconds — 1.0 is perfect balance."""
        return self.max_seconds / self.mean_seconds if self.mean_seconds else 1.0


@dataclass
class IterationUtilization:
    """Pool behaviour inside one ``als_iteration`` span."""

    iteration: int
    wall_seconds: float
    n_tasks: int
    n_fanouts: int
    busy_seconds: float
    queue_wait_seconds: float
    #: task-seconds-weighted mean of the iteration's fan-out imbalances.
    imbalance: float
    worst_imbalance: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "wall_seconds": self.wall_seconds,
            "n_tasks": self.n_tasks,
            "n_fanouts": self.n_fanouts,
            "busy_seconds": self.busy_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
            "imbalance": self.imbalance,
            "worst_imbalance": self.worst_imbalance,
        }


@dataclass
class UtilizationReport:
    """Everything derived from one trace's ``pool_task`` spans."""

    workers: list[WorkerStats]
    iterations: list[IterationUtilization]
    fanouts: list[FanoutStats]
    #: first task start .. last task end, in tracer seconds.
    window: tuple[float, float]
    n_tasks: int = 0
    #: aggregate provenance of the task timings/queue waits feeding this
    #: report — ``measured`` / ``mixed`` / ``unknown``.
    source: str = "unknown"
    extra: dict = field(default_factory=dict)

    @property
    def window_seconds(self) -> float:
        return max(self.window[1] - self.window[0], 0.0)

    @property
    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.workers)

    @property
    def mean_imbalance(self) -> float:
        """Task-seconds-weighted mean imbalance over all fan-outs."""
        weights = [f.mean_seconds * f.n_tasks for f in self.fanouts]
        total = sum(weights)
        if total <= 0:
            return 1.0
        return sum(f.imbalance * w for f, w in
                   zip(self.fanouts, weights)) / total

    def to_dict(self) -> dict:
        return {
            "workers": [w.to_dict() for w in self.workers],
            "iterations": [i.to_dict() for i in self.iterations],
            "n_tasks": self.n_tasks,
            "n_fanouts": len(self.fanouts),
            "window_seconds": self.window_seconds,
            "busy_seconds": self.busy_seconds,
            "mean_imbalance": self.mean_imbalance,
            "source": self.source,
        }


def _aggregate_source(tasks: Sequence[SpanRecord]) -> str:
    """Fold per-span ``source`` attrs into one provenance label."""
    sources = {str(rec.attrs.get("source", "unknown")) for rec in tasks}
    if len(sources) == 1:
        return sources.pop()
    return "mixed"


def _enclosing_iteration(rec: SpanRecord,
                         by_id: dict[int, SpanRecord]) -> int | None:
    """Walk the parent chain to the nearest ``als_iteration`` span."""
    seen = 0
    cur: SpanRecord | None = rec
    while cur is not None and seen < 64:
        if cur.kind == "als_iteration":
            return cur.attrs.get("iteration")
        cur = by_id.get(cur.parent) if cur.parent is not None else None
        seen += 1
    return None


def utilization_from_spans(
    spans: Iterable[SpanRecord],
) -> UtilizationReport | None:
    """Derive the utilization report; None when no ``pool_task`` spans."""
    spans = list(spans)
    by_id = {rec.id: rec for rec in spans}
    tasks = [rec for rec in spans
             if rec.kind == "pool_task" and rec.t1 is not None]
    if not tasks:
        return None

    # -- per-worker lanes ----------------------------------------------
    by_worker: dict[int, list[SpanRecord]] = {}
    for rec in tasks:
        by_worker.setdefault(int(rec.attrs.get("worker", 0)), []).append(rec)
    window = (min(rec.t0 for rec in tasks), max(rec.t1 for rec in tasks))
    window_seconds = max(window[1] - window[0], 0.0)
    workers = []
    for worker in sorted(by_worker):
        lane = by_worker[worker]
        busy = sum(rec.duration for rec in lane)
        waits = [float(rec.attrs.get("queue_wait", 0.0)) for rec in lane]
        workers.append(WorkerStats(
            worker=worker,
            n_tasks=len(lane),
            busy_seconds=busy,
            busy_fraction=(busy / window_seconds if window_seconds > 0
                           else 1.0),
            queue_wait_seconds=sum(waits),
            queue_wait_max=max(waits),
            source=_aggregate_source(lane),
        ))

    # -- per-fan-out imbalance -----------------------------------------
    by_parent: dict[int | None, list[SpanRecord]] = {}
    for rec in tasks:
        by_parent.setdefault(rec.parent, []).append(rec)
    fanouts = []
    for parent_id, group in by_parent.items():
        durs = [rec.duration for rec in group]
        mean = sum(durs) / len(durs)
        parent = by_id.get(parent_id) if parent_id is not None else None
        fanouts.append(FanoutStats(
            parent_id=parent_id,
            iteration=(_enclosing_iteration(parent, by_id)
                       if parent is not None else None),
            n_tasks=len(group),
            mean_seconds=mean,
            max_seconds=max(durs),
        ))
    fanouts.sort(key=lambda f: (f.iteration is None, f.iteration or 0))

    # -- per-iteration aggregation -------------------------------------
    iter_spans = {
        rec.attrs.get("iteration"): rec
        for rec in spans if rec.kind == "als_iteration"
    }
    by_iteration: dict[int, list[FanoutStats]] = {}
    for f in fanouts:
        if f.iteration is not None:
            by_iteration.setdefault(int(f.iteration), []).append(f)
    iteration_task_waits: dict[int, float] = {}
    for rec in tasks:
        it = _enclosing_iteration(rec, by_id)
        if it is not None:
            iteration_task_waits[int(it)] = (
                iteration_task_waits.get(int(it), 0.0)
                + float(rec.attrs.get("queue_wait", 0.0))
            )
    iterations = []
    for it in sorted(by_iteration):
        group = by_iteration[it]
        weights = [f.mean_seconds * f.n_tasks for f in group]
        total = sum(weights)
        imbalance = (
            sum(f.imbalance * w for f, w in zip(group, weights)) / total
            if total > 0 else 1.0
        )
        iter_span = iter_spans.get(it)
        iterations.append(IterationUtilization(
            iteration=it,
            wall_seconds=(iter_span.duration if iter_span is not None
                          else 0.0),
            n_tasks=sum(f.n_tasks for f in group),
            n_fanouts=len(group),
            busy_seconds=sum(f.mean_seconds * f.n_tasks for f in group),
            queue_wait_seconds=iteration_task_waits.get(it, 0.0),
            imbalance=imbalance,
            worst_imbalance=max(f.imbalance for f in group),
        ))

    return UtilizationReport(
        workers=workers,
        iterations=iterations,
        fanouts=fanouts,
        window=window,
        n_tasks=len(tasks),
        source=_aggregate_source(tasks),
    )


def format_utilization(report: UtilizationReport) -> str:
    """Text rendering for ``repro report``: worker and iteration tables."""
    lines = [
        f"pool utilization: {report.n_tasks} tasks over "
        f"{report.window_seconds * 1e3:.2f} ms window, "
        f"mean imbalance {report.mean_imbalance:.3f} "
        f"(timings {report.source})",
        "",
        f"{'worker':>6s} {'tasks':>6s} {'busy ms':>9s} {'busy %':>7s} "
        f"{'wait ms':>8s} {'max wait':>9s}",
    ]
    for w in report.workers:
        lines.append(
            f"{w.worker:>6d} {w.n_tasks:>6d} {w.busy_seconds * 1e3:>9.2f} "
            f"{w.busy_fraction * 100:>6.1f}% "
            f"{w.queue_wait_seconds * 1e3:>8.2f} "
            f"{w.queue_wait_max * 1e3:>9.3f}"
        )
    if report.iterations:
        lines.append("")
        lines.append(
            f"{'iter':>5s} {'wall ms':>9s} {'tasks':>6s} {'busy ms':>9s} "
            f"{'wait ms':>8s} {'imbalance':>10s} {'worst':>7s}"
        )
        for it in report.iterations:
            lines.append(
                f"{it.iteration:>5d} {it.wall_seconds * 1e3:>9.2f} "
                f"{it.n_tasks:>6d} {it.busy_seconds * 1e3:>9.2f} "
                f"{it.queue_wait_seconds * 1e3:>8.2f} "
                f"{it.imbalance:>10.3f} {it.worst_imbalance:>7.3f}"
            )
    return "\n".join(lines)
