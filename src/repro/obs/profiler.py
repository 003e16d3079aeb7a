"""Sampling wall-clock stack profiler, joined to the span tracer.

The span tree (PR 2) says which *phase* spent each microsecond; the cost
attribution (PR 5) says which *tree node*; nothing so far says which
*Python frames* inside a span actually burn the time.  This module adds
the standard missing piece of a production telemetry stack: a background
sampler thread polls :func:`sys._current_frames` at a configurable rate
and folds every captured stack into ``(lane, span path, frame stack)``
buckets, where the span path comes from the tracer's live per-thread span
stack (a :func:`repro.obs.trace.set_span_observer` hook fed by the same
contextvar machinery spans already use).  Every sample is therefore
attributed to the run, the innermost open span, and the code — enough to
render a flamegraph per span kind.

Like every other instrument the profiler is **off by default** and
no-op-cheap when off: the only always-on cost is one ``None`` check per
span enter/exit in :mod:`repro.obs.trace`.  Turn it on through
:mod:`repro.obs.switch` (``REPRO_OBS=profile`` or ``profile=<hz>``
before import, ``switch.enabled("profile=199")`` in code), ``repro
profile <cmd>``, or ``repro trace --profile``.

Worker threads are sampled directly (one sampler sees every thread in
the process); :class:`repro.parallel.pool.WorkerPool` labels its threads
``worker-<lane>`` so folded stacks carry the same lane ids as the
``pool_task`` spans.

Samples carry an explicit *weight* (the sampling period in seconds), so
sampled seconds stay correct even if the rate changes mid-run; the folded
counts stay integers for flamegraph.pl / speedscope interop.  Persist
with :func:`write_profile` (``profile.json``, schema ``repro-profile/v1``
with a :func:`validate_profile_artifact` self-check, plus
``profile.folded`` collapsed-stack text).

Every sample lands in the one process-wide store,
``switch.get("profile")``.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time

from . import switch as _switch
from . import trace as _trace

__all__ = [
    "PROFILE_SCHEMA", "DEFAULT_HZ", "ProfileStore", "active_hz",
    "start_sampler", "stop_sampler", "label_thread",
    "folded_lines", "profile_artifact", "validate_profile_artifact",
    "write_profile", "hotspots", "format_hotspots",
]

PROFILE_SCHEMA = "repro-profile/v1"

#: default sampling rate (Hz).  97 is prime on purpose: a round 100 Hz
#: phase-locks with 10 ms-periodic work and over/under-samples it; a
#: prime rate decorrelates (the same reason Linux perf defaults to 99).
DEFAULT_HZ = 97

#: frames deeper than this are truncated root-side (leaf frames are the
#: interesting end of a stack for hotspot attribution).
MAX_STACK_DEPTH = 64

_log = logging.getLogger("repro.obs.profiler")


#: stdlib modules whose leaf frame means "parked, not working": a thread
#: blocked in a lock/select/queue is spending wall time but no CPU, and
#: folding those stacks in would drown real hotspots in idle pool workers
#: and server threads.  Checked against the *leaf* frame only, so user
#: code that happens to call into these still attributes its own frames.
_IDLE_MODULES = frozenset({
    "threading", "selectors", "queue", "socket", "socketserver", "ssl",
    "time", "subprocess", "concurrent.futures.thread",
    "concurrent.futures.process", "multiprocessing.connection",
    "multiprocessing.queues", "multiprocessing.synchronize",
})


def _sanitize(name: str) -> str:
    """Folded-format-safe segment: no separators (';', ' ') or newlines."""
    return (str(name).replace(";", ",").replace(" ", "_")
            .replace("\n", "_"))


def _frame_name(frame) -> str:
    code = frame.f_code
    mod = frame.f_globals.get("__name__") or os.path.splitext(
        os.path.basename(code.co_filename))[0]
    return f"{mod}.{code.co_name}"


def _walk(frame, limit: int = MAX_STACK_DEPTH) -> tuple:
    """Leaf frame -> root-first tuple of ``module.function`` names."""
    out = []
    f = frame
    while f is not None and len(out) < limit:
        out.append(_frame_name(f))
        f = f.f_back
    out.reverse()
    return tuple(out)


def _is_idle(frame) -> bool:
    return frame.f_globals.get("__name__") in _IDLE_MODULES


class ProfileStore:
    """Thread-safe folded-sample accumulator.

    Keys are ``(lane, span path, frame stack)``; each bucket accumulates
    an integer sample count (for collapsed-stack text) and weighted
    seconds (count x sampling period at capture time, so seconds survive
    rate changes).  Per-span-kind self/total tables are maintained
    incrementally: *self* credits the innermost open span, *total* every
    distinct kind on the open-span path.
    """

    def __init__(self, hz: float | None = None):
        self.hz = float(hz) if hz else float(DEFAULT_HZ)
        self.wall_epoch = time.time()
        self._lock = threading.Lock()
        #: (lane, spans, frames) -> [count, seconds]
        self._folded: dict[tuple, list] = {}
        #: kind -> [count, seconds]
        self._span_self: dict[str, list] = {}
        self._span_total: dict[str, list] = {}
        self.n_samples = 0
        self.sampled_seconds = 0.0

    def add(self, lane: str, span_path: tuple, frames: tuple,
            weight: float, count: int = 1) -> None:
        with self._lock:
            self._add_locked(lane, span_path, frames, weight, count)

    def _add_locked(self, lane, span_path, frames, weight, count):
        slot = self._folded.setdefault(
            (lane, tuple(span_path), tuple(frames)), [0, 0.0]
        )
        slot[0] += count
        slot[1] += weight
        self.n_samples += count
        self.sampled_seconds += weight
        if span_path:
            leaf = self._span_self.setdefault(span_path[-1], [0, 0.0])
            leaf[0] += count
            leaf[1] += weight
            for kind in set(span_path):
                tot = self._span_total.setdefault(kind, [0, 0.0])
                tot[0] += count
                tot[1] += weight

    def clear(self) -> None:
        with self._lock:
            self._folded.clear()
            self._span_self.clear()
            self._span_total.clear()
            self.n_samples = 0
            self.sampled_seconds = 0.0
            self.wall_epoch = time.time()

    def snapshot(self) -> dict:
        """JSON-friendly copy: folded entries (most samples first) plus
        the per-span-kind sample tables."""
        with self._lock:
            folded = [
                {"lane": lane, "spans": list(spans), "frames": list(frames),
                 "count": count, "seconds": seconds}
                for (lane, spans, frames), (count, seconds)
                in self._folded.items()
            ]
            span_samples = {
                kind: {
                    "self_samples": self._span_self.get(kind, [0, 0.0])[0],
                    "self_seconds": self._span_self.get(kind, [0, 0.0])[1],
                    "total_samples": total[0],
                    "total_seconds": total[1],
                }
                for kind, total in self._span_total.items()
            }
            n_samples = self.n_samples
            sampled_seconds = self.sampled_seconds
        folded.sort(key=lambda e: (-e["count"], e["lane"], e["frames"]))
        return {
            "hz": self.hz,
            "wall_epoch": self.wall_epoch,
            "n_samples": n_samples,
            "sampled_seconds": sampled_seconds,
            "folded": folded,
            "span_samples": span_samples,
        }

    def __len__(self) -> int:
        with self._lock:
            return self.n_samples


class _SpanObserver:
    """Live per-thread span stacks, maintained by trace enter/exit hooks.

    The tracer's contextvar span stack cannot be read from the sampler
    thread, so this observer mirrors it into a plain dict keyed by OS
    thread id.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: tid -> list of (span id, kind) innermost-last
        self._stacks: dict[int, list] = {}

    def push(self, rec) -> None:
        with self._lock:
            self._stacks.setdefault(rec.tid, []).append((rec.id, rec.kind))

    def pop(self, rec) -> None:
        with self._lock:
            stack = self._stacks.get(rec.tid)
            if not stack:
                return
            if stack[-1][0] == rec.id:
                stack.pop()
            else:
                # Observer installed mid-span, or exits out of order:
                # drop by id, never by position.
                stack[:] = [e for e in stack if e[0] != rec.id]
            if not stack:
                del self._stacks[rec.tid]

    def snapshot(self) -> dict:
        """tid -> tuple of open span kinds."""
        with self._lock:
            return {
                tid: tuple(kind for _, kind in stack)
                for tid, stack in self._stacks.items()
                if stack
            }

    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()


class _Sampler(threading.Thread):
    """Daemon thread: one :func:`sys._current_frames` sweep per period."""

    def __init__(self, hz: float):
        super().__init__(name="repro-profiler", daemon=True)
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._stop_event = threading.Event()

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=2.0)

    def run(self) -> None:
        # Weight each sweep by the *measured* period, not the nominal
        # one: after Event.wait returns the sampler still queues for the
        # GIL behind the threads it is sampling, so the effective period
        # under load runs well past 1/hz and nominal weights would
        # undercount sampled seconds by the same factor.  Capped so one
        # pathological stall cannot dump its whole gap on a single stack.
        last = time.perf_counter()
        cap = 10.0 * self.interval
        while not self._stop_event.wait(self.interval):
            now = time.perf_counter()
            weight = min(now - last, cap)
            last = now
            try:
                _sample_once(self.ident, weight)
            except Exception:  # never take the host process down
                _log.warning("sample sweep failed", exc_info=True)


def _sample_once(own_ident, weight: float) -> None:
    if not _switch.is_on("profile"):
        return
    store = _switch.get("profile")
    frames = sys._current_frames()
    spans_by_tid = _observer.snapshot()
    main_ident = threading.main_thread().ident
    thread_names = {t.ident: t.name for t in threading.enumerate()}
    for tid, frame in frames.items():
        if tid == own_ident or _is_idle(frame):
            continue
        span_path = spans_by_tid.get(tid, ())
        stack = _walk(frame)
        if not stack:
            continue
        lane = _labels.get(tid)
        if lane is None:
            lane = ("main" if tid == main_ident
                    else thread_names.get(tid) or f"thread-{tid}")
        store.add(lane, span_path, stack, weight)


# -- module lifecycle -------------------------------------------------------

_lock = threading.RLock()
_observer = _SpanObserver()
_sampler: _Sampler | None = None
#: tid -> explicit lane label (worker pools register their threads here).
_labels: dict[int, str] = {}


def active_hz() -> float | None:
    """The running sampler's rate, or None when no sampler is alive."""
    with _lock:
        if _sampler is not None and _sampler.is_alive():
            return _sampler.hz
    return None


def label_thread(tid: int, label: str) -> None:
    """Pin a lane label for an OS thread id (e.g. ``worker-0``).

    Cheap enough to call unconditionally from pool worker registration —
    one dict store per thread, not per task.
    """
    _labels[tid] = str(label)


def start_sampler(hz: float) -> None:
    """The switch's on hook: sample at ``hz`` into the process-wide store
    (an already-running sampler keeps its rate)."""
    global _sampler
    with _lock:
        if _sampler is not None and _sampler.is_alive():
            return
        _trace.set_span_observer(_observer)
        _sampler = _Sampler(hz)
        _sampler.start()


def stop_sampler() -> None:
    """The switch's off hook: stop sampling.  Collected samples are kept
    for export."""
    global _sampler
    with _lock:
        sampler, _sampler = _sampler, None
        _trace.set_span_observer(None)
        _observer.clear()
        if sampler is not None:
            sampler.stop()


# -- artifact ---------------------------------------------------------------

def folded_lines(snapshot_or_doc: dict) -> list[str]:
    """Collapsed-stack text lines (flamegraph.pl / speedscope format).

    ``lane;span:<kind>;...;module.function;... <count>`` — span-path
    segments are prefixed ``span:`` so the rendered flamegraph visually
    separates the tracer's phases from the Python frames below them.
    """
    lines = []
    for entry in snapshot_or_doc.get("folded", []):
        path = [_sanitize(entry.get("lane", "?"))]
        path.extend(f"span:{_sanitize(s)}" for s in entry.get("spans", ()))
        path.extend(_sanitize(f) for f in entry.get("frames", ()))
        lines.append(";".join(path) + f" {int(entry['count'])}")
    return lines


def profile_artifact(snapshot: dict, *, run_id: str | None = None,
                     command: str | None = None,
                     duration_seconds: float | None = None) -> dict:
    """Wrap a :meth:`ProfileStore.snapshot` as a ``repro-profile/v1`` doc."""
    spans = [
        {"kind": kind,
         "self_samples": int(row["self_samples"]),
         "self_seconds": float(row["self_seconds"]),
         "total_samples": int(row["total_samples"]),
         "total_seconds": float(row["total_seconds"])}
        for kind, row in snapshot.get("span_samples", {}).items()
    ]
    spans.sort(key=lambda r: (-r["self_seconds"], r["kind"]))
    return {
        "schema": PROFILE_SCHEMA,
        "hz": float(snapshot.get("hz") or 0.0),
        "n_samples": int(snapshot.get("n_samples", 0)),
        "sampled_seconds": float(snapshot.get("sampled_seconds", 0.0)),
        "duration_seconds": duration_seconds,
        "wall_epoch": snapshot.get("wall_epoch"),
        "run_id": run_id,
        "command": command,
        "lanes": sorted({e.get("lane", "?")
                         for e in snapshot.get("folded", [])}),
        "spans": spans,
        "folded": snapshot.get("folded", []),
    }


def validate_profile_artifact(doc: dict) -> list[str]:
    """Schema/consistency problems (empty list = valid).

    Beyond the envelope tag this checks the invariants every consumer
    leans on: folded counts sum to ``n_samples``, folded seconds sum to
    ``sampled_seconds``, per-span self never exceeds total, and every
    folded segment survives the collapsed-stack text format.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["profile artifact must be a JSON object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        errors.append(
            f"schema {doc.get('schema')!r} != {PROFILE_SCHEMA!r}"
        )
    hz = doc.get("hz")
    if not isinstance(hz, (int, float)) or not hz > 0:
        errors.append(f"hz must be > 0, got {hz!r}")
    folded = doc.get("folded")
    if not isinstance(folded, list):
        return errors + ["folded must be a list"]
    count_sum = 0
    seconds_sum = 0.0
    for i, entry in enumerate(folded):
        where = f"folded[{i}]"
        count = entry.get("count")
        if not isinstance(count, int) or count < 1:
            errors.append(f"{where}: count must be a positive int")
            continue
        count_sum += count
        seconds_sum += float(entry.get("seconds", 0.0))
        if not entry.get("frames"):
            errors.append(f"{where}: empty frame stack")
        for seg in list(entry.get("spans", ())) + list(
                entry.get("frames", ())):
            if ";" in str(seg) or " " in str(seg) or "\n" in str(seg):
                errors.append(f"{where}: segment {seg!r} breaks the "
                              "folded-stack format")
    if count_sum != int(doc.get("n_samples", -1)):
        errors.append(f"n_samples={doc.get('n_samples')} != folded count "
                      f"sum {count_sum}")
    declared = float(doc.get("sampled_seconds", 0.0))
    if abs(declared - seconds_sum) > max(1e-6, 1e-6 * abs(seconds_sum)):
        errors.append(f"sampled_seconds={declared} != folded seconds "
                      f"sum {seconds_sum}")
    for row in doc.get("spans", []):
        kind = row.get("kind")
        if row.get("self_samples", 0) > row.get("total_samples", 0):
            errors.append(f"span {kind!r}: self_samples > total_samples")
        if row.get("self_seconds", 0.0) > row.get("total_seconds", 0.0) \
                + 1e-9:
            errors.append(f"span {kind!r}: self_seconds > total_seconds")
    return errors


def write_profile(trace_dir: str, snapshot: dict | None = None, *,
                  run_id: str | None = None, command: str | None = None,
                  duration_seconds: float | None = None) -> tuple[str, str]:
    """Persist ``profile.json`` + ``profile.folded`` into ``trace_dir``.

    The artifact is self-checked with :func:`validate_profile_artifact`
    before anything touches disk; returns ``(json path, folded path)``.
    """
    if snapshot is None:
        snapshot = _switch.get("profile").snapshot()
    doc = profile_artifact(snapshot, run_id=run_id, command=command,
                           duration_seconds=duration_seconds)
    problems = validate_profile_artifact(doc)
    if problems:
        raise ValueError(f"refusing to write invalid profile artifact: "
                         f"{problems[0]}")
    os.makedirs(trace_dir, exist_ok=True)
    json_path = os.path.join(trace_dir, "profile.json")
    folded_path = os.path.join(trace_dir, "profile.folded")
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(folded_path, "w") as fh:
        for line in folded_lines(doc):
            fh.write(line + "\n")
    return json_path, folded_path


# -- hotspot reporting ------------------------------------------------------

def hotspots(doc: dict, top: int = 10) -> list[dict]:
    """Per-frame self/total seconds from the folded entries.

    *self* credits the leaf frame of each stack; *total* credits every
    distinct frame on the stack (a frame appearing twice through
    recursion is counted once per sample).
    """
    self_acc: dict[str, list] = {}
    total_acc: dict[str, list] = {}
    grand_total = 0.0
    for entry in doc.get("folded", []):
        frames = tuple(entry.get("frames", ()))
        if not frames:
            continue
        count = int(entry.get("count", 0))
        seconds = float(entry.get("seconds", 0.0))
        grand_total += seconds
        leaf = self_acc.setdefault(frames[-1], [0, 0.0])
        leaf[0] += count
        leaf[1] += seconds
        for frame in set(frames):
            tot = total_acc.setdefault(frame, [0, 0.0])
            tot[0] += count
            tot[1] += seconds
    rows = [
        {"frame": frame,
         "self_samples": self_acc.get(frame, [0, 0.0])[0],
         "self_seconds": self_acc.get(frame, [0, 0.0])[1],
         "total_seconds": total[1],
         "self_fraction": (self_acc.get(frame, [0, 0.0])[1] / grand_total
                           if grand_total else 0.0)}
        for frame, total in total_acc.items()
    ]
    rows.sort(key=lambda r: (-r["self_seconds"], -r["total_seconds"],
                             r["frame"]))
    return rows[:top]


def format_hotspots(doc: dict, top: int = 10) -> str:
    """Fixed-width "top hotspots" table (what ends ``repro report``)."""
    rows = hotspots(doc, top=top)
    if not rows:
        return "(no samples)"
    width = max([len(r["frame"]) for r in rows] + [len("frame")])
    header = (f"{'frame':<{width}}  {'self s':>8}  {'self %':>6}  "
              f"{'total s':>8}  {'samples':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['frame']:<{width}}  {r['self_seconds']:>8.3f}  "
            f"{r['self_fraction'] * 100:>5.1f}%  "
            f"{r['total_seconds']:>8.3f}  {r['self_samples']:>7d}"
        )
    return "\n".join(lines)
