"""Thread-pool execution of MTTKRP kernels.

NumPy's heavy kernels (fancy gathers, element-wise multiplies, ``reduceat``)
release the GIL, so a thread pool yields real concurrency on the memory-bound
inner loops without the serialization cost of multiprocessing.  The pool is
deliberately thin: submit a list of thunks, collect results in order.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from ..core.validate import check_positive_int
from ..obs import profiler as _profiler
from ..obs import switch as _switch
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics


def _env_workers() -> int | None:
    """Parsed ``REPRO_WORKERS`` override (None when unset)."""
    raw = (os.environ.get("REPRO_WORKERS") or "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set (cpuset or
    ``taskset`` mask) where the platform exposes one, else
    ``os.cpu_count()``."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def resolve_worker_count(requested: int | None = None) -> int:
    """Explicit ``requested`` (``--workers`` / an ``n_workers=`` argument)
    beats ``REPRO_WORKERS``, which beats the default: the available CPUs
    (:func:`available_cpus`) capped at 8.

    A count above the available CPUs is clamped to them with a
    ``RuntimeWarning`` naming both numbers.
    """
    if requested is not None:
        value = check_positive_int(requested, "n_workers")
        source = "n_workers"
    else:
        env = _env_workers()
        if env is not None:
            value = env
            source = "REPRO_WORKERS"
        else:
            return min(available_cpus(), 8)
    ncpu = available_cpus()
    if value > ncpu:
        warnings.warn(
            f"{source}={value} exceeds the {ncpu} available cpus; "
            f"clamping to {ncpu}",
            RuntimeWarning, stacklevel=2,
        )
        value = ncpu
    return value


def default_workers() -> int:
    """Worker count default: ``REPRO_WORKERS`` override (validated and
    clamped to the available CPUs by :func:`resolve_worker_count`), else
    the available CPUs capped at 8 (memory-bound kernels stop scaling past
    that on typical desktop memory systems)."""
    return resolve_worker_count(None)


class WorkerPool:
    """A reusable thread pool with ordered map semantics.

    With ``n_workers=1`` everything runs inline (no threads), which keeps
    single-worker baselines overhead-free and deterministic for profiling.
    """

    def __init__(self, n_workers: int | None = None):
        # Explicit thread counts are honored even past the cpu count
        # (threads oversubscribe harmlessly); env/default counts go
        # through the shared resolution + clamp.
        if n_workers is not None:
            self.n_workers = check_positive_int(n_workers, "n_workers")
        else:
            self.n_workers = resolve_worker_count(None)
        self._executor: ThreadPoolExecutor | None = None
        if self.n_workers > 1:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        # Stable small worker ids (0..n-1) keyed by thread ident, assigned
        # first-seen: the inline path runs on the submitting thread, which
        # therefore gets id 0 — identical span shape to a one-thread pool.
        self._worker_ids: dict[int, int] = {}
        self._worker_lock = threading.Lock()

    def _worker_id(self) -> int:
        ident = threading.get_ident()
        with self._worker_lock:
            wid = self._worker_ids.get(ident)
            if wid is None:
                wid = self._worker_ids[ident] = len(self._worker_ids)
                # Once per thread: folded profiler stacks carry the same
                # lane id as this thread's pool_task spans.
                _profiler.label_thread(ident, f"worker-{wid}")
            return wid

    def run(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        """Execute thunks, returning their results in submission order.

        When tracing is enabled, each task runs inside a copy of the
        submitting thread's :mod:`contextvars` context wrapped in a
        ``pool_task`` span carrying ``index``, ``worker`` (stable lane id),
        ``queue_wait`` (seconds between submit and start; exactly 0.0
        on the inline path), and ``source="measured"`` (timed on the thread
        that ran the task), so worker-thread spans (and any
        context-local
        counters) nest under the caller's current span and
        :mod:`repro.obs.utilization` can reconstruct per-worker timelines.
        Each traced fan-out of >=2 tasks also publishes the
        ``pool.imbalance`` gauge (max/mean task seconds).  The traced path
        is entirely skipped while tracing is off.
        """
        if self._executor is None or len(tasks) <= 1:
            if _switch.is_on("trace"):
                durations: list[float] = []
                results = [
                    self._run_span(t, i, None, durations)
                    for i, t in enumerate(tasks)
                ]
                self._publish_imbalance(durations)
                return results
            return [t() for t in tasks]
        if _switch.is_on("trace"):
            # One context copy per task: a Context cannot be entered by two
            # threads at once, and the copy carries the parent span id and
            # the run id.
            durations = []
            tracer = _switch.get("trace")
            futures = [
                self._executor.submit(
                    contextvars.copy_context().run, self._run_span, t, i,
                    tracer.now(), durations
                )
                for i, t in enumerate(tasks)
            ]
            results = [f.result() for f in futures]
            self._publish_imbalance(durations)
            return results
        futures = [self._executor.submit(t) for t in tasks]
        return [f.result() for f in futures]

    def _run_span(self, task: Callable[[], object], index: int,
                  t_submit: float | None,
                  durations: list[float]) -> object:
        # t_submit None = inline execution: no queue, wait is exactly 0.0.
        queue_wait = (
            max(_switch.get("trace").now() - t_submit, 0.0)
            if t_submit is not None else 0.0
        )
        with _trace.span(
            "pool_task", index=index, worker=self._worker_id(),
            queue_wait=queue_wait, source="measured",
        ) as rec:
            result = task()
        if rec is not None:
            durations.append(rec.duration)
        return result

    @staticmethod
    def _publish_imbalance(durations: list[float]) -> None:
        if len(durations) < 2:
            return
        mean = sum(durations) / len(durations)
        if mean > 0:
            _metrics.set_gauge("pool.imbalance", max(durations) / mean)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
