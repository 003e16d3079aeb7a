"""Roofline telemetry: achieved throughput vs the machine's ceilings.

The cost model predicts flops and words; the tracer measures seconds.
This module joins the two against the host's *measured* ceilings
(:mod:`repro.model.calibrate`): every kernel configuration that left
spans in a trace gets an achieved GFLOP/s and GB/s, expressed as a
fraction of the calibrated compute and bandwidth rooflines — the number
that says whether a slow config is leaving the machine idle or is
already pinned against memory bandwidth (in which case more workers
cannot help, only traffic reductions can).

Two attribution sources:

* ``node_rebuild`` spans joined to the strategy's per-node model terms
  (:func:`repro.model.cost.node_cost_terms`) — the memoized tree
  engines;
* a saved trace dir's ``metrics.json``: the run's perf-counter flop and
  word totals over its summed ``mttkrp`` span seconds.

Everything degrades gracefully: with no ``repro-machine/v1`` artifact
the report still lists achieved GB/s, marked ``uncalibrated`` instead
of a roofline fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.dtypes import VALUE_ITEMSIZE

__all__ = [
    "ROOFLINE_SCHEMA", "ConfigThroughput", "RooflineReport",
    "tree_node_terms", "throughput_from_spans",
    "roofline_report",
    "report_from_trace_dir", "publish_roofline_gauges", "report_line",
]

#: payload schema tag for roofline-report artifacts (bump on change).
ROOFLINE_SCHEMA = "repro-roofline/v1"


@dataclass
class ConfigThroughput:
    """Achieved throughput of one kernel configuration.

    ``bytes_moved`` is the *model's* traffic term for the spans' work
    (the perf counters' word total for a saved trace dir, which counts
    with the model's convention), so ``gbs`` is achieved effective
    bandwidth: model bytes over measured seconds.
    Fractions are ``None`` until a calibrated roofline scales them.
    """

    config: str
    spans: int
    seconds: float
    flops: float
    bytes_moved: float
    source: str
    bandwidth_fraction: float | None = None
    compute_fraction: float | None = None

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def gbs(self) -> float:
        return (self.bytes_moved / self.seconds / 1e9
                if self.seconds > 0 else 0.0)

    @property
    def bound(self) -> str:
        """Which roofline this config sits closer to."""
        if self.bandwidth_fraction is None or self.compute_fraction is None:
            return "unknown"
        return ("memory" if self.bandwidth_fraction >= self.compute_fraction
                else "compute")

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "spans": self.spans,
            "seconds": self.seconds,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "gflops": self.gflops,
            "gbs": self.gbs,
            "bandwidth_fraction": self.bandwidth_fraction,
            "compute_fraction": self.compute_fraction,
            "bound": self.bound,
            "source": self.source,
        }


@dataclass
class RooflineReport:
    """Roofline ceilings + per-config achieved throughput + guidance."""

    roofline: object | None  # MachineRoofline (model layer) or None
    configs: list[ConfigThroughput] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def calibrated(self) -> bool:
        return self.roofline is not None

    def best(self) -> ConfigThroughput | None:
        """The config closest to the bandwidth roofline (or fastest GB/s)."""
        if not self.configs:
            return None
        return max(self.configs,
                   key=lambda c: (c.bandwidth_fraction
                                  if c.bandwidth_fraction is not None
                                  else c.gbs))

    def guidance(self) -> list[str]:
        """Saturation advice per config, the planner's phrasing."""
        if not self.calibrated:
            return []
        sat = self.roofline.saturation_workers
        lines = []
        for c in self.configs:
            if c.bandwidth_fraction is None:
                continue
            pct = c.bandwidth_fraction * 100.0
            if c.bound == "memory" and c.bandwidth_fraction >= 0.5:
                lines.append(
                    f"{c.config} achieves {pct:.0f}% of the bandwidth "
                    f"roofline; >{sat} workers cannot help — only traffic "
                    f"reductions can"
                )
            else:
                lines.append(
                    f"{c.config} achieves {pct:.0f}% of the bandwidth "
                    f"roofline ({c.compute_fraction * 100.0:.0f}% of "
                    f"compute) — headroom remains below the "
                    f"{sat}-worker saturation point"
                )
        return lines

    def to_dict(self) -> dict:
        """JSON-ready ``repro-roofline/v1`` payload."""
        return {
            "schema": ROOFLINE_SCHEMA,
            "calibrated": self.calibrated,
            "machine": (self.roofline.to_dict()
                        if self.calibrated else None),
            "configs": [c.to_dict() for c in self.configs],
            "guidance": self.guidance(),
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        from ..model.report import format_table

        parts = []
        if self.calibrated:
            parts.append(self.roofline.summary())
        else:
            parts.append("roofline: uncalibrated — run 'repro roofline' to "
                         "measure this host's ceilings")
        if self.configs:
            rows = []
            for c in self.configs:
                rows.append([
                    c.config, c.spans, round(c.seconds * 1e3, 3),
                    round(c.gflops, 3), round(c.gbs, 3),
                    ("-" if c.bandwidth_fraction is None
                     else f"{c.bandwidth_fraction * 100.0:.1f}%"),
                    ("-" if c.compute_fraction is None
                     else f"{c.compute_fraction * 100.0:.1f}%"),
                    c.bound, c.source,
                ])
            parts.append(format_table(
                ["config", "spans", "ms", "GFLOP/s", "GB/s", "% bw roof",
                 "% comp roof", "bound", "source"],
                rows, title="achieved throughput per kernel config",
            ))
        for line in self.guidance():
            parts.append(f"  -> {line}")
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n\n".join(parts)


def tree_node_terms(strategy, node_nnz, rank: int) -> dict[int, dict]:
    """Per-node model terms shaped for the span join.

    Scatter words are excluded: ``node_rebuild`` spans cover the
    contraction only (the leaf scatter happens inside the enclosing
    ``mttkrp`` span), and the join must price exactly the work the span
    timed.
    """
    from ..model.cost import node_cost_terms

    return {
        t.node_id: {"flops": float(t.flops),
                    "words": float(t.words - t.scatter_words)}
        for t in node_cost_terms(strategy, node_nnz, rank)
    }


def throughput_from_spans(
    spans,
    *,
    node_terms: dict[int, dict] | None = None,
) -> list[ConfigThroughput]:
    """Join finished ``node_rebuild`` span seconds with the per-node model
    flop/byte terms ``node_terms`` (from :func:`tree_node_terms`).

    Spans whose join inputs are missing are skipped, never guessed.
    """
    acc: dict[str, ConfigThroughput] = {}

    def bump(config: str, seconds: float, flops: float, words: float,
             source: str) -> None:
        row = acc.get(config)
        if row is None:
            row = acc[config] = ConfigThroughput(
                config=config, spans=0, seconds=0.0, flops=0.0,
                bytes_moved=0.0, source=source,
            )
        row.spans += 1
        row.seconds += seconds
        row.flops += flops
        row.bytes_moved += words * VALUE_ITEMSIZE

    for rec in spans:
        if rec.t1 is None:
            continue
        if (rec.kind == "node_rebuild" and node_terms is not None
                and "node" in rec.attrs):
            term = node_terms.get(int(rec.attrs["node"]))
            if term is None or term["flops"] <= 0:
                continue  # the root: materialized, never rebuilt
            bump("thread/tree", rec.duration, term["flops"], term["words"],
                 "spans+model")
    return sorted(acc.values(), key=lambda c: c.config)


def roofline_report(
    configs,
    roofline=None,
    *,
    load: bool = True,
    notes=(),
) -> RooflineReport:
    """Scale achieved throughput against the calibrated ceilings.

    ``roofline=None`` with ``load=True`` loads the host artifact
    (:func:`repro.model.calibrate.load_roofline` — never measures); a
    missing artifact produces an explicitly uncalibrated report.
    """
    notes = list(notes)
    if roofline is None and load:
        from ..model.calibrate import load_roofline

        roofline = load_roofline()
    if roofline is None:
        notes.append("uncalibrated: no repro-machine/v1 artifact "
                     "(run 'repro roofline')")
    configs = list(configs)
    if roofline is not None:
        for c in configs:
            c.bandwidth_fraction = c.gbs / roofline.peak_bandwidth_gbs
            c.compute_fraction = c.gflops / roofline.peak_gflops
    return RooflineReport(roofline=roofline, configs=configs, notes=notes)


def report_from_trace_dir(trace_dir: str, roofline=None,
                          *, load: bool = True) -> RooflineReport:
    """Post-hoc roofline attribution over a saved ``repro trace`` dir.

    ``metrics.json`` contributes one config: the run's counted flops and
    words over its total ``mttkrp`` span seconds.  A trace dir without
    that file yields no configs; the report still renders the (possibly
    uncalibrated) ceilings.
    """
    import json
    import os

    notes = []
    if roofline is None:
        # Prefer the calibration the traced run itself snapshotted — a
        # trace copied off another host keeps that host's ceilings.
        from ..model.calibrate import load_roofline

        roofline = load_roofline(os.path.join(trace_dir, "machine.json"))
    configs = []
    metrics_path = os.path.join(trace_dir, "metrics.json")
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path) as fh:
                metrics = json.load(fh)["metrics"]
            counters = metrics["counters"]
            flops, words = float(counters["flops"]), float(counters["words"])
            mttkrp = metrics["spans"].get("mttkrp", {})
            seconds = float(mttkrp.get("total_seconds", 0.0))
        except (OSError, ValueError, KeyError, TypeError):
            seconds = 0.0
        if seconds > 0 and (flops > 0 or words > 0):
            configs.append(ConfigThroughput(
                config="counters", spans=int(mttkrp.get("count", 0)),
                seconds=seconds, flops=flops,
                bytes_moved=words * VALUE_ITEMSIZE, source="metrics.json",
            ))
    else:
        notes.append(f"no metrics.json under {trace_dir}")
    return roofline_report(configs, roofline, load=load, notes=notes)


def publish_roofline_gauges(roofline, configs=()) -> None:
    """Publish ceilings and achieved fractions as registry gauges.

    Gauge names are stable: ``roofline.peak_bandwidth_gbs``,
    ``roofline.fraction.<config>``, ...
    """
    from .metrics import registry

    if roofline is not None:
        registry.set_gauge("roofline.peak_bandwidth_gbs",
                           roofline.peak_bandwidth_gbs)
        registry.set_gauge("roofline.peak_gather_gbs",
                           roofline.peak_gather_gbs)
        registry.set_gauge("roofline.peak_gflops", roofline.peak_gflops)
        registry.set_gauge("roofline.saturation_workers",
                           float(roofline.saturation_workers))
        for point in roofline.bandwidth_points:
            registry.set_gauge(f"roofline.triad_gbs.t{point.threads}",
                               point.triad_gbs)
    for c in configs:
        key = c.config.replace("/", ".").replace("-", "_")
        registry.set_gauge(f"roofline.achieved_gbs.{key}", c.gbs)
        if c.bandwidth_fraction is not None:
            registry.set_gauge(f"roofline.fraction.{key}",
                               c.bandwidth_fraction)


def report_line(report: RooflineReport) -> str:
    """The one-line summary ``repro report`` prints."""
    if not report.calibrated:
        return "roofline: uncalibrated (run 'repro roofline')"
    best = report.best()
    if best is None:
        return (f"roofline: calibrated "
                f"({report.roofline.peak_bandwidth_gbs:.2f} GB/s, "
                f"{report.roofline.peak_gflops:.2f} GFLOP/s) — no "
                f"attributable kernel spans in this trace")
    return (f"roofline: best {best.config} at {best.gbs:.2f} GB/s = "
            f"{best.bandwidth_fraction * 100.0:.0f}% of the "
            f"{report.roofline.peak_bandwidth_gbs:.2f} GB/s ceiling "
            f"({best.gflops:.2f} GFLOP/s, {best.bound}-bound)")
