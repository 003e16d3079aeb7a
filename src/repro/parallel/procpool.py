"""Process-parallel sharded MTTKRP: true multicore past the GIL.

The thread tier (:mod:`repro.parallel.pool`) only scales where NumPy
releases the GIL; the interpreter sections between kernels serialize, and
E8 plateaus well below the core count.  This module adds the tier the
paper's multicore evaluation actually corresponds to: worker *processes*,
each owning a contiguous shard of the nonzero space.

Zero-copy data plane (:mod:`repro.parallel.shm`): the tensor's indices
(or its bit-packed ALTO codes), values, factor matrices, and the
per-shard partial accumulators all live in ``multiprocessing.shared_memory``
segments owned by the parent.  A dispatch pickles only segment *specs* and
shard bounds — a few hundred bytes per MTTKRP regardless of tensor size.
Factor updates are a parent-side ``copyto`` into the mapped segment.

Shard boundaries come from :func:`repro.kernels.alto.aligned_chunks`:
snapped to leading-mode linearization ranges, so mode-0 shards write
disjoint rows of a single shared output (conflict-free, no partials) and
other modes reduce per-shard slabs in fixed shard order — deterministic,
and bitwise-identical between the ``numpy`` and ``alto`` layouts (the
decoded coordinates are equal integers, so every float op sees identical
inputs in identical order).

Instrumentation keeps the thread tier's exact shape: one ``pool_task``
span per shard (``index`` / ``worker`` / ``queue_wait`` / ``source``,
lanes keyed by worker pid first-seen), the ``pool.imbalance`` gauge per
fan-out, and a structured ``repro-events/v1`` warning + automatic
thread-tier fallback when a worker process dies mid-shard
(:class:`ProcessMttkrp` never hangs on a broken pool).

When the parent is tracing, workers are no longer a telemetry black box:
each task runs under a worker-local scoped
:class:`~repro.obs.runctx.RunContext` whose tracer records the interior
``kernel`` / ``kernel_chunk`` / ``alto_decode`` spans, and the finished
spans (plus counters and precise task start/stop stamps) ride back to the
parent alongside the result.  The parent aligns them onto its own clock
via the wall-clock epochs of the two tracers, re-parents them under the
task's ``pool_task`` span with
:func:`repro.obs.trace.merge_subprocess_spans`, and marks the span
``source="measured"``.  If a worker reports no payload (capture off) the
parent falls back to the old synthesized span, marked
``source="synthesized"`` so downstream consumers
(:mod:`repro.obs.utilization`, the dashboard, E8) stay honest about what
was measured.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

import numpy as np

from ..baselines.base import MttkrpBackend
from ..core.coo import CooTensor
from ..core.dtypes import VALUE_DTYPE
from ..core.validate import check_mode
from ..kernels.alto import AltoEncoding, aligned_chunks, fits_alto
from ..obs import events as _events
from ..obs import profiler as _profiler
from ..obs import switch as _switch
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics
from .pool import ParallelCooMttkrp, resolve_worker_count
from .shm import SharedArrayGroup, attach_array

__all__ = [
    "ProcessPool", "ProcessMttkrp", "AltoCooMttkrp",
    "default_start_method",
]


def default_start_method() -> str:
    """``REPRO_START_METHOD`` override, else ``fork`` where available.

    Fork keeps worker startup at milliseconds and inherits the parent's
    imports; spawn (the only option on Windows/macOS defaults) works too —
    everything workers touch arrives via shared memory, not inheritance.
    """
    raw = (os.environ.get("REPRO_START_METHOD") or "").strip().lower()
    methods = multiprocessing.get_all_start_methods()
    if raw:
        if raw not in methods:
            raise ValueError(
                f"REPRO_START_METHOD={raw!r} not in {methods}"
            )
        return raw
    return "fork" if "fork" in methods else methods[0]


def _timed_call(fn: Callable, args: tuple, capture: bool = False,
                profile_hz: float | None = None):
    """Worker-side wrapper: run one task, report wall time + pid (+ spans).

    With ``capture=False`` (parent not tracing) this is the old cheap
    path: ``(result, seconds, pid, None)``.  With ``capture=True`` the
    task runs under a fresh scoped run context whose tracer/metrics are
    local to this process and this task; the fourth element becomes a
    payload dict carrying the worker tracer's wall-clock epoch, the task's
    start/stop on that tracer's clock, and every interior span — enough
    for the parent to reconstruct the task on its own timeline.

    ``profile_hz`` (set when the parent is profiling) additionally gives
    the scoped context a private :class:`~repro.obs.profiler.ProfileStore`
    and keeps a worker-local sampler thread alive for the task, so the
    payload's ``profile`` snapshot carries the worker-interior folded
    stacks the parent's sampler can never see.
    """
    if not capture:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0, os.getpid(), None
    from ..obs import runctx as _runctx

    spec = "trace" if profile_hz is None else f"trace,profile={profile_hz}"
    ctx = _runctx.RunContext.scoped(obs=spec)
    with _runctx.using(ctx, register=False):
        tracer = ctx.instruments["trace"]
        t0 = tracer.now()
        result = fn(*args)
        t1 = tracer.now()
    payload = {
        "wall_epoch": tracer.wall_epoch,
        "t0": t0,
        "t1": t1,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "spans": [s.to_dict() for s in tracer.finished()],
        "counters": ctx.metrics.counters,
        "profile": (ctx.instruments["profile"].snapshot()
                    if profile_hz is not None else None),
    }
    return result, t1 - t0, os.getpid(), payload


class ProcessPool:
    """Persistent worker processes with ordered map semantics.

    The sibling of :class:`~repro.parallel.pool.WorkerPool`: same
    ``run``-a-list-of-tasks interface (tasks are ``(fn, args)`` pairs with
    a module-level picklable ``fn``), same inline degrade at one worker,
    same ``pool_task`` span shape — spans are synthesized in the parent
    from worker-reported durations, with ``queue_wait`` the gap between
    submission and the task's reconstructed start.  Worker counts resolve
    through :func:`~repro.parallel.pool.resolve_worker_count` with
    clamping on (a surplus *process* burns a core; set
    ``REPRO_ALLOW_OVERSUBSCRIBE=1`` or ``allow_oversubscribe=True`` for
    deliberate sweeps).
    """

    def __init__(self, n_workers: int | None = None, *,
                 allow_oversubscribe: bool | None = None,
                 start_method: str | None = None, capture: bool = True):
        self.n_workers = resolve_worker_count(
            n_workers, clamp=True, allow_oversubscribe=allow_oversubscribe,
            tier="process",
        )
        self.start_method = start_method or default_start_method()
        #: ship worker-interior spans back when the parent traces; set
        #: False to keep the pre-PR-7 synthesized spans (the overhead
        #: benchmark compares the two).
        self.capture = bool(capture)
        self._executor: ProcessPoolExecutor | None = None
        self._lanes: dict[int, int] = {}

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context(self.start_method),
            )
        return self._executor

    def _lane(self, pid: int) -> int:
        lane = self._lanes.get(pid)
        if lane is None:
            lane = self._lanes[pid] = len(self._lanes)
        return lane

    def run(self, calls: Sequence[tuple[Callable, tuple]]) -> list:
        """Execute ``(fn, args)`` pairs, results in submission order.

        Raises :class:`concurrent.futures.process.BrokenProcessPool` when
        a worker dies mid-task — callers decide the fallback policy.
        """
        if self.n_workers == 1 or len(calls) <= 1:
            results = []
            durations = []
            for i, (fn, args) in enumerate(calls):
                with _trace.span("pool_task", index=i, worker=0,
                                 queue_wait=0.0, source="measured") as rec:
                    results.append(fn(*args))
                if rec is not None:
                    durations.append(rec.duration)
            self._publish_imbalance(durations)
            return results
        executor = self._ensure_executor()
        traced = _switch.is_on("trace")
        capture = traced and self.capture
        # Ship the parent's sampling rate to the workers only when both
        # capture and profiling are live; workers then sample themselves
        # for the task's duration and return the folded stacks.
        profile_hz = None
        if capture and _switch.is_on("profile"):
            profile_hz = _profiler.active_hz() or _profiler.DEFAULT_HZ
        tracer = _switch.get("trace") if traced else None
        parent_span = _trace.current_span_id()
        submits = []
        futures = []
        for fn, args in calls:
            submits.append(tracer.now() if tracer is not None else 0.0)
            futures.append(executor.submit(_timed_call, fn, args, capture,
                                           profile_hz))
        results = []
        durations = []
        for i, future in enumerate(futures):
            result, dur, pid, payload = future.result()
            durations.append(dur)
            results.append(result)
            if tracer is None:
                continue
            if payload is not None:
                # Genuine worker-interior telemetry: align the worker
                # tracer's clock onto ours through the two wall-clock
                # epochs, record the task at its *measured* start/stop,
                # and merge the interior spans under it.
                offset = payload["wall_epoch"] - tracer.wall_epoch
                t0 = payload["t0"] + offset
                t1 = payload["t1"] + offset
                rec = _trace.record_span(
                    "pool_task", t0, t1, parent=parent_span,
                    index=i, worker=self._lane(pid),
                    queue_wait=max(t0 - submits[i], 0.0),
                    source="measured", pid=pid,
                )
                _trace.merge_subprocess_spans(
                    payload["spans"], offset=offset,
                    parent=rec.id if rec is not None else parent_span,
                    tid=pid,
                )
                counters = payload.get("counters")
                if counters is not None and any(counters.snapshot().values()):
                    _metrics.counters.add(counters)
                profile = payload.get("profile")
                if profile and profile.get("n_samples") \
                        and _switch.is_on("profile"):
                    # Same re-rooting as the spans above: worker stacks
                    # land under pool_task, one lane per pid.
                    _switch.get("profile").merge_child(
                        profile, lane=f"pid-{pid}")
            else:
                # No payload (worker ran without capture): synthesize the
                # span from the reported duration, as before PR 7, and
                # say so.
                t1 = tracer.now()
                _trace.record_span(
                    "pool_task", t1 - dur, t1, parent=parent_span,
                    index=i, worker=self._lane(pid),
                    queue_wait=max(t1 - dur - submits[i], 0.0),
                    source="synthesized", pid=pid,
                )
        self._publish_imbalance(durations)
        return results

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

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- worker-side shard kernel (module-level: picklable under spawn) ---------

def _shard_column(specs, layout, enc_meta, lo, hi, mode):
    """Mode ``mode``'s coordinates for nonzeros ``lo:hi`` (int64)."""
    if layout == "alto":
        with _trace.span("alto_decode", mode=mode, nnz=hi - lo):
            codes = attach_array(specs["codes"])[lo:hi]
            shifts, masks = enc_meta
            field = codes >> np.uint64(shifts[mode])
            if mode != 0:
                field &= np.uint64(masks[mode])
            return field.astype(np.int64, copy=False)
    return attach_array(specs["idx"])[lo:hi, mode]


def _mttkrp_shard(specs, layout, enc_meta, ndim, shape, mode,
                  lo, hi, shard):
    """One shard's partial MTTKRP, accumulated into shared memory.

    Float operation order mirrors
    :meth:`~repro.parallel.pool.ParallelCooMttkrp._partial` exactly.
    Mode 0 writes straight into the shared output — shards are aligned to
    leading-mode boundaries, so writes never overlap; other modes fill
    this shard's private slab for the parent's ordered reduction.
    """
    with _trace.span("kernel", backend=f"process-{layout}", mode=mode,
                     shard=shard, nnz=hi - lo):
        vals = attach_array(specs["vals"])
        factors = [attach_array(specs[f"factor{m}"]) for m in range(ndim)]
        with _trace.span("kernel_chunk", phase="gather_hadamard",
                         lo=lo, hi=hi):
            prod = None
            for m in range(ndim):
                if m == mode:
                    continue
                rows = factors[m][
                    _shard_column(specs, layout, enc_meta, lo, hi, m)
                ]
                if prod is None:
                    prod = rows.copy()
                else:
                    prod *= rows
            assert prod is not None
            prod *= vals[lo:hi, None]
        target = _shard_column(specs, layout, enc_meta, lo, hi, mode)
        with _trace.span("kernel_chunk", phase="scatter", lo=lo, hi=hi):
            if mode == 0:
                np.add.at(attach_array(specs["out0"]), target, prod)
            else:
                slab = attach_array(specs["partials"])[shard, : shape[mode]]
                slab.fill(0.0)
                np.add.at(slab, target, prod)
        return True


class ProcessMttkrp(MttkrpBackend):
    """Process-parallel sharded COO MTTKRP with shared-memory state.

    ``layout="numpy"`` shares the raw ``(nnz, N)`` index matrix;
    ``layout="alto"`` shares one packed ``uint64`` code per nonzero
    (``N``× smaller index traffic, two integer ops per recovered
    coordinate) — both layouts produce bitwise-identical results.  A
    worker-process death surfaces a ``repro-events/v1`` warning and the
    backend permanently falls back to an equivalent thread-tier engine
    sharing the same shard boundaries.  Usable as a context manager; all
    shared segments are unlinked on :meth:`close` (and by a finalizer if
    you forget).
    """

    name = "process-coo"

    def __init__(self, tensor: CooTensor, n_workers: int | None = None, *,
                 layout: str = "numpy", pool: ProcessPool | None = None,
                 allow_oversubscribe: bool | None = None):
        super().__init__(tensor)
        if layout not in ("numpy", "alto"):
            raise ValueError(
                f"layout must be 'numpy' or 'alto', got {layout!r}"
            )
        if layout == "alto" and not fits_alto(tensor.shape):
            raise ValueError(
                f"alto layout needs <= 63 index bits, shape {tensor.shape} "
                "does not fit; use layout='numpy'"
            )
        self.layout = layout
        self._own_pool = pool is None
        self.pool = pool or ProcessPool(
            n_workers, allow_oversubscribe=allow_oversubscribe
        )
        self._shm = SharedArrayGroup()
        self.chunks = (
            aligned_chunks(tensor.idx[:, 0], self.pool.n_workers)
            if tensor.nnz else []
        )
        self.encoding: AltoEncoding | None = None
        if layout == "alto":
            self.encoding = AltoEncoding.encode(tensor.idx, tensor.shape)
            self._shm.put("codes", self.encoding.codes)
            self._enc_meta = (self.encoding.shifts, self.encoding.masks)
        else:
            self._shm.put("idx", tensor.idx)
            self._enc_meta = None
        self._shm.put("vals", tensor.vals)
        self._fallback: ParallelCooMttkrp | None = None

    @property
    def index_nbytes(self) -> int:
        """Shared index bytes (the layout trade the cost model scores)."""
        key = "codes" if self.layout == "alto" else "idx"
        return int(self._shm.array(key).nbytes)

    def set_factors(self, factors) -> None:
        super().set_factors(factors)
        rank = self._rank
        if self._parallel and "partials" not in self._shm:
            self._shm.create(
                "partials",
                (len(self.chunks), max(self.tensor.shape), rank),
                VALUE_DTYPE,
            )
            self._shm.create("out0", (self.tensor.shape[0], rank), VALUE_DTYPE)
        for m, U in enumerate(self._factors):
            key = f"factor{m}"
            if key in self._shm:
                np.copyto(self._shm.array(key), U)
            else:
                self._shm.put(key, U)
            # Alias the backend's factor list to the mapped views: every
            # later update is a copy into shared memory, never a pickle.
            self._factors[m] = self._shm.array(key)
        if self._fallback is not None:
            self._fallback._factors = self._factors
            self._fallback._rank = rank

    def update_factor(self, mode: int, U: np.ndarray) -> None:
        mode = check_mode(mode, self.tensor.ndim)
        U = np.ascontiguousarray(U, dtype=VALUE_DTYPE)
        if U.shape != (self.tensor.shape[mode], self.rank):
            raise ValueError(
                f"factor for mode {mode} must be "
                f"{(self.tensor.shape[mode], self.rank)}, got {U.shape}"
            )
        np.copyto(self.factors[mode], U)

    @property
    def _parallel(self) -> bool:
        return self.pool.n_workers > 1 and len(self.chunks) > 1

    def mttkrp(self, mode: int) -> np.ndarray:
        mode = check_mode(mode, self.tensor.ndim)
        out_shape = (self.tensor.shape[mode], self.rank)
        if self.tensor.nnz == 0:
            return np.zeros(out_shape, dtype=VALUE_DTYPE)
        if self._fallback is not None:
            return self._fallback.mttkrp(mode)
        if not self._parallel:
            return self._inline(mode)
        specs = self._shm.specs()
        if mode == 0:
            self._shm.array("out0")[:] = 0.0
        calls = [
            (_mttkrp_shard, (specs, self.layout, self._enc_meta,
                             self.tensor.ndim, self.tensor.shape, mode,
                             lo, hi, shard))
            for shard, (lo, hi) in enumerate(self.chunks)
        ]
        try:
            self.pool.run(calls)
        except BrokenProcessPool as exc:
            self._activate_fallback(exc)
            return self._fallback.mttkrp(mode)
        if mode == 0:
            return self._shm.array("out0").copy()
        partials = self._shm.array("partials")
        rows = self.tensor.shape[mode]
        out = partials[0, :rows].copy()
        for shard in range(1, len(self.chunks)):
            out += partials[shard, :rows]
        return out

    def _inline(self, mode: int) -> np.ndarray:
        """Single-worker path: whole-range accumulation, no shm slabs."""
        tensor, factors = self.tensor, self.factors
        enc = self.encoding

        def col(m):
            return (enc.decode(m) if enc is not None else tensor.idx[:, m])

        prod = None
        for m in range(tensor.ndim):
            if m == mode:
                continue
            rows = factors[m][col(m)]
            if prod is None:
                prod = rows.copy()
            else:
                prod *= rows
        assert prod is not None
        prod *= tensor.vals[:, None]
        out = np.zeros((tensor.shape[mode], self.rank), dtype=VALUE_DTYPE)
        np.add.at(out, col(mode), prod)
        return out

    def _activate_fallback(self, exc: BaseException) -> None:
        """Worker death: warn (structured + Python), swap in threads."""
        message = (
            f"process-tier worker died mid-shard ({exc!r}); "
            f"falling back to the thread tier for the rest of the run"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        _events.emit(
            "warning", message=message, tier="process",
            fallback="thread", layout=self.layout,
            n_workers=self.pool.n_workers,
        )
        _metrics.incr("procpool.broken")
        if self._own_pool:
            self.pool.close()
        fb = ParallelCooMttkrp(self.tensor, n_workers=self.pool.n_workers)
        # Same shard boundaries and the already-shared factor views: the
        # fallback reproduces the process tier's reduction order exactly.
        fb.chunks = list(self.chunks)
        fb._factors = self._factors
        fb._rank = self._rank
        self._fallback = fb

    def close(self) -> None:
        if self._fallback is not None:
            self._fallback.close()
            self._fallback = None
        if self._own_pool:
            self.pool.close()
        self._shm.close()

    def __enter__(self) -> "ProcessMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AltoCooMttkrp(ParallelCooMttkrp):
    """Thread-tier nonzero-parallel MTTKRP over packed ALTO codes.

    Same chunking, float operation order, and reduction order as
    :class:`~repro.parallel.pool.ParallelCooMttkrp`; only the index
    *source* differs (one decoded uint64 field per coordinate instead of
    an int64 matrix column), so results are bitwise equal while index
    storage shrinks from ``N`` words per nonzero to one.
    """

    name = "alto-coo"

    def __init__(self, tensor: CooTensor, n_workers: int | None = None,
                 pool=None):
        super().__init__(tensor, n_workers, pool)
        self.encoding = AltoEncoding.encode(tensor.idx, tensor.shape)

    def _partial(self, lo: int, hi: int, mode: int) -> np.ndarray:
        tensor, factors = self.tensor, self.factors
        enc = self.encoding
        prod: np.ndarray | None = None
        for m in range(tensor.ndim):
            if m == mode:
                continue
            rows = factors[m][enc.decode(m, lo, hi)]
            if prod is None:
                prod = rows.copy()
            else:
                prod *= rows
        assert prod is not None
        prod *= tensor.vals[lo:hi, None]
        out = np.zeros((tensor.shape[mode], self.rank), dtype=VALUE_DTYPE)
        np.add.at(out, enc.decode(mode, lo, hi), prod)
        return out
