"""Benchmark history store + noise-aware regression comparator.

Benchmark artifacts used to be write-once JSON: every run overwrote the
last, so the repo had no perf *trajectory* and no way to notice a
regression short of a human re-reading numbers.  This module adds both
halves of the measurement loop:

* :class:`BenchHistory` — an append-only JSONL store
  (``benchmarks/history/history.jsonl`` by convention).  Each line is one
  :class:`BenchEntry`: a bench id, a scalar value (lower is better —
  seconds per iteration, bytes, ...), a UTC timestamp, the git revision,
  a ``run_id`` grouping entries recorded by one process, and the kernel
  knobs in effect.  Entries are never rewritten, so the file *is* the
  perf trajectory.
* :func:`compare` — a noise-aware comparator.  Timings jitter, so a naive
  "current > last" check cries wolf; instead the baseline is the **min of
  the last k** matching history entries (the noise floor — min-of-k is
  the standard estimator for best-case wall time) and the current value
  must leave a configurable relative band around it before anything is
  flagged.  Entries only match when bench id *and* knob signature agree:
  a ``reference`` run is never compared against a ``numpy`` baseline.

``repro bench-diff`` exposes the comparator on the command line and CI
runs it as a soft-fail gate.  See ``docs/benchmarking.md``.
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone

__all__ = [
    "HISTORY_SCHEMA", "BenchEntry", "BenchHistory", "DiffResult",
    "compare", "format_diff_table", "default_knobs",
]

#: schema tag on every history line (bump on layout change).
HISTORY_SCHEMA = "repro-bench-history/v1"

#: groups all entries recorded by this process into one run.
_RUN_ID = uuid.uuid4().hex[:12]


def default_knobs() -> dict:
    """The kernel knobs that make two measurements comparable."""
    return {
        "kernel_backend": os.environ.get("REPRO_KERNEL", "numpy"),
        "block_rows": os.environ.get("REPRO_KERNEL_BLOCK"),
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE"),
    }


@dataclass
class BenchEntry:
    """One benchmark measurement (one JSONL line)."""

    bench_id: str
    #: the measured scalar; lower is better (seconds, bytes, ...).
    value: float
    unit: str = "seconds"
    timestamp: str = ""
    git_rev: str = "unknown"
    run_id: str = ""
    knobs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        """Comparability key: only same-signature entries are compared."""
        return (self.bench_id, self.unit,
                tuple(sorted((k, str(v)) for k, v in self.knobs.items())))

    def to_dict(self) -> dict:
        return {
            "schema": HISTORY_SCHEMA,
            "bench_id": self.bench_id,
            "value": self.value,
            "unit": self.unit,
            "timestamp": self.timestamp,
            "git_rev": self.git_rev,
            "run_id": self.run_id,
            "knobs": self.knobs,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchEntry":
        return cls(
            bench_id=str(d["bench_id"]),
            value=float(d["value"]),
            unit=str(d.get("unit", "seconds")),
            timestamp=str(d.get("timestamp", "")),
            git_rev=str(d.get("git_rev", "unknown")),
            run_id=str(d.get("run_id", "")),
            knobs=dict(d.get("knobs", {})),
            extra=dict(d.get("extra", {})),
        )


def make_entry(bench_id: str, value: float, *, unit: str = "seconds",
               **extra) -> BenchEntry:
    """A fully-stamped entry: UTC timestamp, git rev, run id, knobs."""
    from .buildinfo import git_revision

    return BenchEntry(
        bench_id=bench_id,
        value=float(value),
        unit=unit,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_rev=git_revision(),
        run_id=_RUN_ID,
        knobs=default_knobs(),
        extra=extra,
    )


class BenchHistory:
    """Append-only JSONL store of :class:`BenchEntry` lines."""

    def __init__(self, path: str):
        self.path = str(path)
        #: malformed lines skipped by the last :meth:`entries` call (e.g.
        #: the truncated final line of a killed run).
        self.n_skipped = 0

    def append(self, entry: BenchEntry) -> BenchEntry:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(entry.to_dict()) + "\n")
        return entry

    def record(self, bench_id: str, value: float, *,
               unit: str = "seconds", **extra) -> BenchEntry:
        """Stamp and append a measurement in one call."""
        return self.append(make_entry(bench_id, value, unit=unit, **extra))

    def entries(self) -> list[BenchEntry]:
        """All stored entries in file (= chronological append) order.

        Malformed lines — most commonly the truncated last line of a run
        that was killed mid-append — are skipped with a logged warning
        rather than poisoning every consumer of the whole file; the skip
        count is kept on :attr:`n_skipped`.
        """
        self.n_skipped = 0
        if not os.path.exists(self.path):
            return []
        out: list[BenchEntry] = []
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(BenchEntry.from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    self.n_skipped += 1
                    logging.getLogger("repro.obs.history").warning(
                        "skipping malformed history line %s:%d (%s)",
                        self.path, lineno, exc,
                    )
        return out

    def bench_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.entries():
            seen.setdefault(e.bench_id, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.entries())


@dataclass
class DiffResult:
    """Verdict for one bench id: current run versus the stored baseline."""

    bench_id: str
    #: "ok" | "regression" | "improvement" | "no-baseline"
    status: str
    current: float | None
    baseline: float | None
    #: current / baseline (None without a baseline).
    ratio: float | None
    rel_band: float
    n_baseline: int
    unit: str = "seconds"

    @property
    def ok(self) -> bool:
        return self.status != "regression"

    def to_dict(self) -> dict:
        return {
            "bench_id": self.bench_id,
            "status": self.status,
            "current": self.current,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "rel_band": self.rel_band,
            "n_baseline": self.n_baseline,
            "unit": self.unit,
        }


def compare(current: list[BenchEntry], history: list[BenchEntry], *,
            rel_band: float = 0.10, k: int = 5) -> list[DiffResult]:
    """Compare a run's entries against stored history, noise-aware.

    Per bench id (and knob signature): the current value is the **min**
    over the run's samples, the baseline the **min of the last k**
    matching history entries.  ``regression`` when
    ``current > baseline * (1 + rel_band)``, ``improvement`` when
    ``current < baseline * (1 - rel_band)``, ``ok`` inside the band,
    ``no-baseline`` when history has nothing comparable (first run of a
    new bench — never a failure).
    """
    if rel_band < 0:
        raise ValueError(f"rel_band must be >= 0, got {rel_band}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    current_run_ids = {e.run_id for e in current}
    by_sig: dict[tuple, list[BenchEntry]] = {}
    for e in history:
        # A pre-merged history file may already contain this run's lines;
        # they must not serve as their own baseline.
        if e.run_id and e.run_id in current_run_ids:
            continue
        by_sig.setdefault(e.signature(), []).append(e)

    results: list[DiffResult] = []
    seen: set[tuple] = set()
    for e in current:
        sig = e.signature()
        if sig in seen:
            continue
        seen.add(sig)
        cur = min(c.value for c in current if c.signature() == sig)
        base_entries = by_sig.get(sig, [])[-k:]
        if not base_entries:
            results.append(DiffResult(
                bench_id=e.bench_id, status="no-baseline", current=cur,
                baseline=None, ratio=None, rel_band=rel_band,
                n_baseline=0, unit=e.unit,
            ))
            continue
        base = min(b.value for b in base_entries)
        ratio = cur / base if base > 0 else float("inf")
        if cur > base * (1.0 + rel_band):
            status = "regression"
        elif cur < base * (1.0 - rel_band):
            status = "improvement"
        else:
            status = "ok"
        results.append(DiffResult(
            bench_id=e.bench_id, status=status, current=cur, baseline=base,
            ratio=ratio, rel_band=rel_band, n_baseline=len(base_entries),
            unit=e.unit,
        ))
    return sorted(results, key=lambda r: r.bench_id)


def format_diff_table(results: list[DiffResult]) -> str:
    """Human-readable comparator report for ``repro bench-diff``."""
    lines = [
        f"{'bench':<34s} {'current':>12s} {'baseline':>12s} "
        f"{'ratio':>7s} {'status':<12s}"
    ]
    for r in results:
        cur = f"{r.current:.6g}" if r.current is not None else "-"
        base = f"{r.baseline:.6g}" if r.baseline is not None else "-"
        ratio = f"{r.ratio:.3f}" if r.ratio is not None else "-"
        flag = {"regression": " <-- REGRESSION",
                "improvement": " (improved)"}.get(r.status, "")
        lines.append(
            f"{r.bench_id:<34s} {cur:>12s} {base:>12s} {ratio:>7s} "
            f"{r.status:<12s}{flag}"
        )
    n_reg = sum(1 for r in results if r.status == "regression")
    lines.append(
        f"\n{len(results)} benches compared, {n_reg} regression(s) "
        f"(band ±{results[0].rel_band:.0%})" if results else "(no entries)"
    )
    return "\n".join(lines)
