"""Machine calibration: fit the time model's constants and ceilings.

Two layers share this module:

* **alpha/beta fit** — the cost model's two constants are the per-flop
  cost of a streaming Hadamard multiply-accumulate and the per-word cost
  of an indexed gather, measured by micro-benchmarks shaped exactly like
  the engine's inner kernels (:func:`calibrate_machine`).
* **roofline ceilings** — STREAM-style bandwidth microbenchmarks at
  1..N threads (triad and indexed gather) plus a dense-matmul compute
  ceiling (:func:`measure_roofline`).  The bandwidth curve yields the
  host's *saturation point*: the smallest worker count that already
  reaches the memory system's peak, which replaces the scaling model's
  former hardcoded ``bandwidth_workers = 8`` guess
  (:func:`repro.model.cost.resolve_bandwidth_workers`).

Ceilings are cached to a versioned ``repro-machine/v1`` artifact (JSON,
shared ``repro-bench/v1`` envelope) at :func:`default_machine_path` so a
one-time ``repro roofline`` calibration serves every later plan and
trace report on the same host.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..core.dtypes import INDEX_DTYPE, VALUE_DTYPE, VALUE_ITEMSIZE
from ..core.partition import contiguous_chunks
from .cost import MachineModel

#: payload schema tag for the machine-calibration artifact (bump on change).
MACHINE_SCHEMA = "repro-machine/v1"

#: a thread count "saturates" bandwidth once its triad rate is within this
#: fraction of the curve's peak — loose enough that run-to-run noise on a
#: saturated machine does not push the knee one power of two to the right.
SATURATION_FRACTION = 0.9

#: in-process memo of alpha/beta fits, keyed on the measurement parameters
#: (a second call with different sizes must re-measure, not alias the
#: first result).
_machine_cache: dict[tuple[int, int, int], MachineModel] = {}

#: in-process memo of the last roofline loaded/measured: (path, roofline).
_roofline_cache: tuple[str, "MachineRoofline"] | None = None


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_machine(
    n_elements: int = 2_000_000, rank: int = 16, repeats: int = 3,
    *, force: bool = False,
) -> MachineModel:
    """Measure alpha (per flop) and beta (per word) on this machine.

    Results are cached per process, keyed on ``(n_elements, rank,
    repeats)`` — distinct measurement sizes are distinct calibrations.
    Pass ``force=True`` to re-measure.
    """
    key = (int(n_elements), int(rank), int(repeats))
    if not force and key in _machine_cache:
        return _machine_cache[key]
    rng = np.random.default_rng(0)
    rows = n_elements // rank
    a = rng.random((rows, rank), dtype=VALUE_DTYPE)
    b = rng.random((rows, rank), dtype=VALUE_DTYPE)
    out = np.empty_like(a)

    # alpha: streaming multiply, one flop per element.
    def mul():
        np.multiply(a, b, out=out)

    mul()  # warm caches / allocator
    alpha = _best_of(mul, repeats) / (rows * rank)

    # beta: random-row gather, one word per element read plus one written.
    gather_rows = rng.integers(0, rows, size=rows)

    def gather():
        out[...] = a[gather_rows]

    gather()
    beta = _best_of(gather, repeats) / (2 * rows * rank)

    model = MachineModel(
        alpha_per_flop=float(max(alpha, 1e-12)),
        beta_per_word=float(max(beta, 1e-12)),
        name="calibrated",
    )
    _machine_cache[key] = model
    return model


def reset_calibration() -> None:
    """Drop every cached calibration — alpha/beta fits and roofline (tests).

    Disk artifacts are left alone; only the in-process memos clear.
    """
    global _roofline_cache
    _machine_cache.clear()
    _roofline_cache = None


# -- roofline ceilings -------------------------------------------------------


@dataclass(frozen=True)
class BandwidthPoint:
    """Measured memory throughput at one thread count.

    ``triad_gbs`` is the streaming (STREAM add/triad) rate; ``gather_gbs``
    the random-gather rate — the engine's scatter/gather kernels live
    between the two.
    """

    threads: int
    triad_gbs: float
    gather_gbs: float

    def to_dict(self) -> dict:
        return {"threads": self.threads, "triad_gbs": self.triad_gbs,
                "gather_gbs": self.gather_gbs}


@dataclass(frozen=True)
class MachineRoofline:
    """The host's measured ceilings: bandwidth curve + compute peak.

    ``saturation_workers`` is the smallest measured thread count whose
    triad rate reaches ``SATURATION_FRACTION`` of ``peak_bandwidth_gbs``
    — beyond it, extra workers add no memory throughput, which is the
    number the execution model's bandwidth-scaling term wants.
    """

    bandwidth_points: tuple[BandwidthPoint, ...]
    peak_bandwidth_gbs: float
    peak_gather_gbs: float
    saturation_workers: int
    peak_gflops: float
    host_cpus: int
    n_elements: int
    quick: bool = False

    def to_dict(self) -> dict:
        return {
            "bandwidth_points": [p.to_dict() for p in self.bandwidth_points],
            "peak_bandwidth_gbs": self.peak_bandwidth_gbs,
            "peak_gather_gbs": self.peak_gather_gbs,
            "saturation_workers": self.saturation_workers,
            "peak_gflops": self.peak_gflops,
            "host_cpus": self.host_cpus,
            "n_elements": self.n_elements,
            "quick": self.quick,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MachineRoofline":
        return cls(
            bandwidth_points=tuple(
                BandwidthPoint(int(p["threads"]), float(p["triad_gbs"]),
                               float(p["gather_gbs"]))
                for p in d["bandwidth_points"]
            ),
            peak_bandwidth_gbs=float(d["peak_bandwidth_gbs"]),
            peak_gather_gbs=float(d["peak_gather_gbs"]),
            saturation_workers=int(d["saturation_workers"]),
            peak_gflops=float(d["peak_gflops"]),
            host_cpus=int(d["host_cpus"]),
            n_elements=int(d["n_elements"]),
            quick=bool(d.get("quick", False)),
        )

    def summary(self) -> str:
        from .report import format_table

        rows = [
            [p.threads, round(p.triad_gbs, 2), round(p.gather_gbs, 2),
             ("<- saturates" if p.threads == self.saturation_workers else "")]
            for p in self.bandwidth_points
        ]
        table = format_table(
            ["threads", "triad GB/s", "gather GB/s", ""], rows,
            title=(f"memory-bandwidth curve ({self.host_cpus} cpus, "
                   f"{self.n_elements:,} elements"
                   f"{', quick' if self.quick else ''})"),
        )
        return (
            f"{table}\n"
            f"ceilings: bandwidth {self.peak_bandwidth_gbs:.2f} GB/s "
            f"(gather {self.peak_gather_gbs:.2f} GB/s), compute "
            f"{self.peak_gflops:.2f} GFLOP/s; bandwidth saturates at "
            f"{self.saturation_workers} worker(s)"
        )


def _thread_counts(max_threads: int | None) -> list[int]:
    """1, 2, 4, ... up to the host's cpu count (or an explicit cap)."""
    cpus = os.cpu_count() or 1
    limit = max(1, min(int(max_threads), cpus) if max_threads else cpus)
    counts = {1, limit}
    p = 2
    while p < limit:
        counts.add(p)
        p *= 2
    return sorted(counts)


def _parallel_best(worker_fns, repeats: int) -> float:
    """Best-of wall seconds running all callables concurrently.

    The calling thread takes the first share so a single-threaded point
    pays no thread start/join cost at all; NumPy releases the GIL inside
    the array ops, so the remaining shares genuinely overlap.
    """
    best = float("inf")
    for _ in range(repeats):
        threads = [threading.Thread(target=fn) for fn in worker_fns[1:]]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        worker_fns[0]()
        for th in threads:
            th.join()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_roofline(
    *,
    n_elements: int = 4_000_000,
    repeats: int = 3,
    max_threads: int | None = None,
    matmul_n: int = 384,
    quick: bool = False,
) -> MachineRoofline:
    """Measure the host's bandwidth saturation curve and compute ceiling.

    Bandwidth: for each thread count, disjoint contiguous slices of the
    same arrays are processed concurrently — a 3-stream add (``out = b +
    c``; NumPy cannot fuse STREAM's scalar multiply without a second
    pass, and the traffic is identical at 3 words/element) and an
    indexed gather (index read + gathered read + write, 3 words/element
    as a compulsory-traffic lower bound).  Compute: a dense matmul,
    ``2 n^3`` flops at whatever threading the BLAS brings — the dense
    roof sparse kernels are compared against.
    """
    if quick:
        n_elements = min(n_elements, 400_000)
        repeats = min(repeats, 2)
        matmul_n = min(matmul_n, 160)
        if max_threads is None:
            max_threads = 4
    rng = np.random.default_rng(0)
    n = int(n_elements)
    b = rng.random(n, dtype=VALUE_DTYPE)
    c = rng.random(n, dtype=VALUE_DTYPE)
    out = np.empty_like(b)
    idx = rng.integers(0, n, size=n, dtype=INDEX_DTYPE)

    points: list[BandwidthPoint] = []
    for p in _thread_counts(max_threads):
        slices = [slice(lo, hi) for lo, hi in contiguous_chunks(n, p)]

        def triad(sl):
            np.add(b[sl], c[sl], out=out[sl])

        def gather(sl):
            out[sl] = b[idx[sl]]

        triad_fns = [lambda sl=sl: triad(sl) for sl in slices]
        gather_fns = [lambda sl=sl: gather(sl) for sl in slices]
        for fn in (triad_fns[0], gather_fns[0]):
            fn()  # warm: caches, page faults, lazy thread state
        triad_s = _parallel_best(triad_fns, repeats)
        gather_s = _parallel_best(gather_fns, repeats)
        bytes_moved = 3.0 * n * VALUE_ITEMSIZE
        points.append(BandwidthPoint(
            threads=p,
            triad_gbs=bytes_moved / triad_s / 1e9,
            gather_gbs=bytes_moved / gather_s / 1e9,
        ))

    peak = max(pt.triad_gbs for pt in points)
    saturation = next(
        pt.threads for pt in points
        if pt.triad_gbs >= SATURATION_FRACTION * peak
    )

    k = int(matmul_n)
    a2 = rng.random((k, k), dtype=VALUE_DTYPE)
    b2 = rng.random((k, k), dtype=VALUE_DTYPE)
    c2 = np.empty_like(a2)

    def matmul():
        np.matmul(a2, b2, out=c2)

    matmul()
    gflops = 2.0 * k ** 3 / _best_of(matmul, repeats) / 1e9

    return MachineRoofline(
        bandwidth_points=tuple(points),
        peak_bandwidth_gbs=peak,
        peak_gather_gbs=max(pt.gather_gbs for pt in points),
        saturation_workers=saturation,
        peak_gflops=gflops,
        host_cpus=os.cpu_count() or 1,
        n_elements=n,
        quick=quick,
    )


def default_machine_path() -> str:
    """Where the host's calibration artifact lives.

    ``REPRO_MACHINE`` overrides (tests, CI); the default is a per-user
    cache path so one ``repro roofline`` serves every checkout.
    """
    env = os.environ.get("REPRO_MACHINE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "repro-machine-v1.json")


def machine_artifact(roofline: MachineRoofline,
                     machine: MachineModel | None = None) -> dict:
    """The ``repro-machine/v1`` payload in the shared artifact envelope."""
    from ..obs.buildinfo import artifact_envelope

    payload = {
        "schema": MACHINE_SCHEMA,
        "roofline": roofline.to_dict(),
        "machine": None if machine is None else {
            "name": machine.name,
            "alpha_per_flop": machine.alpha_per_flop,
            "beta_per_word": machine.beta_per_word,
        },
    }
    return artifact_envelope("machine-calibration", payload,
                             host_cpus=roofline.host_cpus,
                             quick=roofline.quick)


def validate_machine_artifact(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a sound machine artifact.

    Structural checks only — thread counts strictly increasing from 1,
    positive ceilings, the saturation point among the measured counts —
    never throughput magnitudes, so CI can validate deterministically.
    """
    from ..obs.buildinfo import ARTIFACT_SCHEMA

    if not isinstance(doc, dict):
        raise ValueError("machine artifact must be a JSON object")
    if doc.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"envelope schema {doc.get('schema')!r} != {ARTIFACT_SCHEMA!r}"
        )
    payload = doc.get("result")
    if not isinstance(payload, dict):
        raise ValueError("machine artifact has no result payload")
    if payload.get("schema") != MACHINE_SCHEMA:
        raise ValueError(
            f"payload schema {payload.get('schema')!r} != {MACHINE_SCHEMA!r}"
        )
    roof = payload.get("roofline")
    if not isinstance(roof, dict):
        raise ValueError("machine artifact has no roofline section")
    points = roof.get("bandwidth_points")
    if not points:
        raise ValueError("roofline has no bandwidth points")
    threads = [p.get("threads") for p in points]
    if threads[0] != 1 or threads != sorted(set(threads)):
        raise ValueError(
            f"bandwidth thread counts must increase from 1, got {threads}"
        )
    for p in points:
        for key in ("triad_gbs", "gather_gbs"):
            if not (isinstance(p.get(key), (int, float)) and p[key] > 0):
                raise ValueError(f"bandwidth point {p} has bad {key!r}")
    for key in ("peak_bandwidth_gbs", "peak_gather_gbs", "peak_gflops"):
        if not (isinstance(roof.get(key), (int, float)) and roof[key] > 0):
            raise ValueError(f"roofline {key!r} must be positive")
    if roof.get("saturation_workers") not in threads:
        raise ValueError(
            f"saturation_workers {roof.get('saturation_workers')!r} is not "
            f"a measured thread count {threads}"
        )
    machine = payload.get("machine")
    if machine is not None:
        for key in ("alpha_per_flop", "beta_per_word"):
            if not (isinstance(machine.get(key), (int, float))
                    and machine[key] > 0):
                raise ValueError(f"machine {key!r} must be positive")


def calibrate_roofline(
    *,
    force: bool = False,
    quick: bool = False,
    path: str | None = None,
    max_threads: int | None = None,
) -> MachineRoofline:
    """Measure-or-load the host roofline, persisting the artifact.

    Resolution order: in-process memo, then the artifact at ``path``
    (default :func:`default_machine_path`), then a fresh measurement —
    which is written back so the next process loads instead of measuring.
    ``force=True`` always re-measures and overwrites.
    """
    global _roofline_cache
    resolved = path or default_machine_path()
    if not force:
        cached = load_roofline(resolved)
        if cached is not None:
            return cached
    roofline = measure_roofline(quick=quick, max_threads=max_threads)
    machine = calibrate_machine(
        n_elements=200_000 if quick else 2_000_000,
        repeats=2 if quick else 3,
    )
    doc = machine_artifact(roofline, machine)
    directory = os.path.dirname(resolved)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(resolved, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    _roofline_cache = (resolved, roofline)
    return roofline


def load_roofline(path: str | None = None) -> MachineRoofline | None:
    """The persisted roofline, or ``None`` — never measures.

    Invalid or missing artifacts degrade to ``None`` (callers report
    "uncalibrated"), so stale or corrupt cache files cannot crash a plan.
    """
    global _roofline_cache
    resolved = path or default_machine_path()
    if _roofline_cache is not None and _roofline_cache[0] == resolved:
        return _roofline_cache[1]
    try:
        with open(resolved) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    try:
        validate_machine_artifact(doc)
        roofline = MachineRoofline.from_dict(doc["result"]["roofline"])
    except (ValueError, KeyError, TypeError):
        return None
    _roofline_cache = (resolved, roofline)
    return roofline
