"""Self-contained HTML dashboard: bench history, memory series, traces.

``repro dashboard`` stitches the three observability artifacts into one
file a reviewer can open without a server, a JS bundle, or network access:

* **bench history sparklines** — one row per bench id from the
  :mod:`repro.obs.history` JSONL store, inline-SVG trend line, latest
  value, and the comparator verdict against the stored baseline;
* **memory measured-vs-predicted series** — the per-ALS-iteration
  :class:`repro.obs.memory.MemReading` list (from a ``memory.json``
  written by ``repro trace`` or passed in directly), plotted as two
  direct-labeled lines plus the full data table;
* **worker utilization lanes** — one horizontal lane per pool worker,
  each ``pool_task`` span a rectangle on the shared time axis (rectangles
  alternate color per fan-out), plus the busy/wait/imbalance tables from
  :mod:`repro.obs.utilization`;
* **per-node cost attribution** — the measured-vs-predicted per-tree-node
  flop table from an ``attribution.json`` (``repro-attr/v1``, written by
  ``repro trace`` when a run had attribution live), with out-of-band
  ratios flagged, plus the per-mode breakdown;
* **roofline panel** — the calibrated bandwidth-saturation curve (triad
  GB/s vs threads from the ``repro-machine/v1`` artifact) and each kernel
  config's achieved throughput as a horizontal bar against the ceiling,
  from a ``repro-roofline/v1`` report dict;
* **sampling-profiler panel** — an icicle chart (root at top, width
  proportional to sample count) over the folded ``lane → span path →
  frames`` stacks of a ``repro-profile/v1`` document, plus the top
  hotspots table; trace dirs recorded before the profiler existed get an
  explicit "no profile captured" note instead of a broken section;
* **numerical-health panel** — per-iteration worst-mode condition number
  on a log axis with Cholesky&rarr;pinv fallback markers, the component
  congruence sparkline (swamp indicator), and the trajectory/fallback
  summary table from a ``repro-health/v1`` document (``health.json``);
* **trace summaries** — the per-kind aggregate table and span tree of a
  saved JSONL trace.

Everything is inline SVG + CSS (light/dark via ``prefers-color-scheme``);
numbers always also appear as text tables, so nothing is color-alone.
"""

from __future__ import annotations

import html
import json
import math
import os

from .buildinfo import build_info
from .history import BenchEntry, DiffResult
from .utilization import UtilizationReport

__all__ = ["render_dashboard", "write_dashboard", "load_memory_json"]

# Palette: categorical slots 1-2 (blue/orange) for the two data series,
# the reserved status red for regressions; light/dark pairs throughout.
_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 2rem auto; max-width: 68rem; padding: 0 1rem;
  font: 14px/1.5 system-ui, sans-serif;
  background: #fcfcfb; color: #0b0b0b;
}
h1, h2 { font-weight: 600; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.2rem; }
.meta { color: #52514e; font-size: 0.85rem; }
table { border-collapse: collapse; margin: 0.8rem 0; width: 100%; }
th, td { text-align: right; padding: 0.25rem 0.7rem; }
th { color: #52514e; font-weight: 600; border-bottom: 1px solid #e8e6e3; }
td:first-child, th:first-child { text-align: left; }
tr + tr td { border-top: 1px solid #f0efec; }
.num { font-variant-numeric: tabular-nums; }
.status-regression { color: #e34948; font-weight: 600; }
.status-ok, .status-improvement { color: #52514e; }
.spark line, .spark polyline { stroke-linecap: round; }
pre {
  background: #f5f4f2; padding: 0.8rem; overflow-x: auto;
  font-size: 12px; border-radius: 6px;
}
.legend { color: #52514e; font-size: 0.85rem; margin: 0.3rem 0; }
.swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 3px;
  margin: 0 0.35rem 0 0.9rem; vertical-align: baseline;
}
@media (prefers-color-scheme: dark) {
  body { background: #1a1a19; color: #ffffff; }
  .meta, .legend, th, .status-ok, .status-improvement { color: #c3c2b7; }
  th { border-bottom-color: #383835; }
  tr + tr td { border-top-color: #2a2a28; }
  pre { background: #222220; }
  .status-regression { color: #e66767; }
}
"""

#: (light, dark) hex per role; SVG uses light + a CSS class override.
_SERIES_1 = "#2a78d6"   # measured / sparkline
_SERIES_2 = "#eb6834"   # predicted
_GRID = "#e8e6e3"


def _fmt_bytes(n: float | None) -> str:
    if n is None:
        return "-"
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024
    return f"{n:.1f} GB"


def _sparkline(values: list[float], *, width: int = 220,
               height: int = 36, color: str = _SERIES_1) -> str:
    """Inline-SVG trend line (2px stroke, 8px end marker, no axes)."""
    if not values:
        return ""
    pad = 4
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        return x, y

    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in
                   (xy(i, v) for i, v in enumerate(values)))
    ex, ey = xy(n - 1, values[-1])
    title = html.escape(
        f"{n} runs, min {min(values):.4g}, last {values[-1]:.4g}"
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" aria-label="{title}">'
        f"<title>{title}</title>"
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="2"/>'
        f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" fill="{color}"/>'
        "</svg>"
    )


def _history_section(entries: list[BenchEntry],
                     diffs: list[DiffResult] | None) -> str:
    if not entries:
        return "<p class='meta'>(no bench history recorded yet)</p>"
    by_id: dict[str, list[BenchEntry]] = {}
    for e in entries:
        by_id.setdefault(e.bench_id, []).append(e)
    verdict = {d.bench_id: d for d in diffs or []}
    rows = []
    for bench_id in sorted(by_id):
        series = by_id[bench_id]
        values = [e.value for e in series]
        last = series[-1]
        d = verdict.get(bench_id)
        if d is not None:
            mark = {"regression": "&#9650; regression",
                    "improvement": "&#9660; improvement",
                    "no-baseline": "new bench"}.get(d.status, "ok")
            status = (f'<span class="status-{html.escape(d.status)}">'
                      f"{mark}</span>")
        else:
            status = '<span class="status-ok">-</span>'
        rows.append(
            "<tr>"
            f"<td>{html.escape(bench_id)}</td>"
            f"<td>{_sparkline(values)}</td>"
            f'<td class="num">{last.value:.6g} {html.escape(last.unit)}</td>'
            f'<td class="num">{min(values):.6g}</td>'
            f'<td class="num">{len(values)}</td>'
            f"<td>{html.escape(last.git_rev)}</td>"
            f"<td>{status}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>bench</th><th>trend (older &rarr; newer)</th>"
        "<th>latest</th><th>best</th><th>runs</th><th>rev</th>"
        "<th>vs baseline</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table>"
    )


def _memory_chart(readings: list[dict]) -> str:
    """Measured vs predicted peak bytes per ALS iteration, two lines."""
    measured = [r.get("measured_peak_bytes") for r in readings]
    predicted = [r.get("predicted_peak_bytes") for r in readings]
    if not readings or not any(v for v in measured):
        return ""
    width, height, pad = 640, 200, 36
    finite = [v for v in measured + predicted if v]
    hi = max(finite) * 1.08
    n = len(readings)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
        y = (height - pad) - (height - 2 * pad) * (v / hi)
        return x, y

    def line(vals, color, label):
        pts = [(i, v) for i, v in enumerate(vals) if v]
        if not pts:
            return ""
        poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in
                        (xy(i, v) for i, v in pts))
        lx, ly = xy(*pts[-1])
        dots = "".join(
            f'<circle cx="{xy(i, v)[0]:.1f}" cy="{xy(i, v)[1]:.1f}" r="4" '
            f'fill="{color}"><title>iter {readings[i].get("iteration", i)}: '
            f"{html.escape(label)} {_fmt_bytes(v)}</title></circle>"
            for i, v in pts
        )
        return (
            f'<polyline points="{poly}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>{dots}'
            f'<text x="{min(lx + 8, width - 4):.1f}" y="{ly + 4:.1f}" '
            f'fill="{color}" font-size="11">{html.escape(label)}</text>'
        )

    gridlines = "".join(
        f'<line x1="{pad}" y1="{(height - pad) - (height - 2 * pad) * f:.1f}" '
        f'x2="{width - pad}" y2="{(height - pad) - (height - 2 * pad) * f:.1f}" '
        f'stroke="{_GRID}" stroke-width="1"/>'
        f'<text x="{pad - 6}" y="{(height - pad) - (height - 2 * pad) * f + 4:.1f}" '
        f'text-anchor="end" font-size="10" fill="#52514e">'
        f"{_fmt_bytes(hi * f)}</text>"
        for f in (0.0, 0.5, 1.0)
    )
    chart = (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="peak memoized-value bytes per ALS iteration">'
        + gridlines
        + line(predicted, _SERIES_2, "predicted")
        + line(measured, _SERIES_1, "measured")
        + f'<text x="{width // 2}" y="{height - 6}" text-anchor="middle" '
        f'font-size="10" fill="#52514e">ALS iteration</text>'
        "</svg>"
    )
    legend = (
        '<p class="legend">peak memoized-value bytes per iteration &mdash;'
        f'<span class="swatch" style="background:{_SERIES_1}"></span>measured'
        f'<span class="swatch" style="background:{_SERIES_2}"></span>'
        "predicted (cost model)</p>"
    )
    return legend + chart


def _memory_table(readings: list[dict]) -> str:
    if not readings:
        return "<p class='meta'>(no memory readings; run under " \
               "<code>repro trace</code> or enable repro.obs.memory)</p>"
    rows = []
    for r in readings:
        ratio = r.get("ratio")
        ratio_cell = f"{ratio:.4f}" if ratio is not None else "-"
        rows.append(
            "<tr>"
            f'<td class="num">{r.get("iteration", "-")}</td>'
            f'<td class="num">{_fmt_bytes(r.get("measured_peak_bytes"))}</td>'
            f'<td class="num">{_fmt_bytes(r.get("predicted_peak_bytes"))}</td>'
            f'<td class="num">{ratio_cell}</td>'
            f'<td class="num">{_fmt_bytes(r.get("workspace_bytes"))}</td>'
            f'<td class="num">{_fmt_bytes(r.get("factor_bytes"))}</td>'
            f'<td class="num">{_fmt_bytes(r.get("traced_peak_bytes"))}</td>'
            "</tr>"
        )
    return (
        "<table><thead><tr><th>iter</th><th>measured peak</th>"
        "<th>predicted peak</th><th>ratio</th><th>workspace</th>"
        "<th>factors</th><th>tracemalloc peak</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table>"
    )


def _worker_lanes(tasks: list[dict]) -> str:
    """SVG strip: one lane per pool worker, one rect per ``pool_task``.

    ``tasks`` rows carry ``worker``/``t0``/``t1`` (tracer seconds) and
    optionally ``queue_wait``/``parent``; rectangles alternate between the
    two series colors per fan-out (shared ``parent``) so the eye can
    separate consecutive ``WorkerPool.run`` calls inside a lane.
    """
    tasks = [t for t in tasks if t.get("t1") is not None]
    if not tasks:
        return ""
    t_lo = min(t["t0"] for t in tasks)
    t_hi = max(t["t1"] for t in tasks)
    span = (t_hi - t_lo) or 1.0
    workers = sorted({int(t.get("worker", 0)) for t in tasks})
    width, pad_l, pad_r = 640, 64, 8
    lane_h, gap, pad_t = 16, 6, 4
    height = pad_t + len(workers) * (lane_h + gap) + 16
    lane_y = {w: pad_t + i * (lane_h + gap) for i, w in enumerate(workers)}

    def x(t: float) -> float:
        return pad_l + (width - pad_l - pad_r) * (t - t_lo) / span

    parts = []
    for w in workers:
        y = lane_y[w]
        parts.append(
            f'<text x="{pad_l - 8}" y="{y + lane_h - 4}" text-anchor="end" '
            f'font-size="11" fill="#52514e">worker {w}</text>'
            f'<rect x="{pad_l}" y="{y}" width="{width - pad_l - pad_r}" '
            f'height="{lane_h}" fill="{_GRID}" fill-opacity="0.45"/>'
        )
    # Stable color index per fan-out, in time order of first task.
    fanout_idx: dict = {}
    for t in sorted(tasks, key=lambda t: t["t0"]):
        fanout_idx.setdefault(t.get("parent"), len(fanout_idx))
    for t in tasks:
        y = lane_y[int(t.get("worker", 0))]
        x0 = x(t["t0"])
        w_px = max(x(t["t1"]) - x0, 1.0)
        color = (_SERIES_1, _SERIES_2)[fanout_idx.get(t.get("parent"), 0) % 2]
        ms = (t["t1"] - t["t0"]) * 1e3
        wait_ms = float(t.get("queue_wait", 0.0)) * 1e3
        title = (f'worker {t.get("worker", 0)}: {ms:.3f} ms busy, '
                 f"{wait_ms:.3f} ms queued")
        parts.append(
            f'<rect x="{x0:.1f}" y="{y + 1}" width="{w_px:.1f}" '
            f'height="{lane_h - 2}" rx="2" fill="{color}">'
            f"<title>{html.escape(title)}</title></rect>"
        )
    parts.append(
        f'<text x="{width - pad_r}" y="{height - 3}" text-anchor="end" '
        f'font-size="10" fill="#52514e">'
        f"{span * 1e3:.1f} ms window &middot; {len(tasks)} tasks</text>"
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="per-worker pool task timeline">' + "".join(parts)
        + "</svg>"
    )


def _utilization_tables(report: UtilizationReport) -> str:
    """Worker + iteration tables mirroring ``format_utilization``."""
    rows = []
    for w in report.workers:
        rows.append(
            "<tr>"
            f'<td class="num">{w.worker}</td>'
            f'<td class="num">{w.n_tasks}</td>'
            f'<td class="num">{w.busy_seconds * 1e3:.2f}</td>'
            f'<td class="num">{w.busy_fraction * 100:.1f}%</td>'
            f'<td class="num">{w.queue_wait_seconds * 1e3:.2f}</td>'
            f'<td class="num">{w.queue_wait_max * 1e3:.3f}</td>'
            f"<td>{w.source}</td>"
            "</tr>"
        )
    out = (
        f"<p class='meta'>{report.n_tasks} pool tasks over "
        f"{report.window_seconds * 1e3:.2f} ms window &middot; "
        f"mean imbalance {report.mean_imbalance:.3f} (max/mean task "
        "seconds per fan-out; 1.0 = perfectly balanced) &middot; "
        f"timings <b>{report.source}</b> (measured = spans timed where "
        "the work ran)</p>"
        "<table><thead><tr><th>worker</th><th>tasks</th><th>busy ms</th>"
        "<th>busy %</th><th>wait ms</th><th>max wait ms</th>"
        "<th>timings</th></tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
    )
    if report.iterations:
        rows = []
        for it in report.iterations:
            rows.append(
                "<tr>"
                f'<td class="num">{it.iteration}</td>'
                f'<td class="num">{it.wall_seconds * 1e3:.2f}</td>'
                f'<td class="num">{it.n_tasks}</td>'
                f'<td class="num">{it.busy_seconds * 1e3:.2f}</td>'
                f'<td class="num">{it.queue_wait_seconds * 1e3:.2f}</td>'
                f'<td class="num">{it.imbalance:.3f}</td>'
                f'<td class="num">{it.worst_imbalance:.3f}</td>'
                "</tr>"
            )
        out += (
            "<table><thead><tr><th>iter</th><th>wall ms</th><th>tasks</th>"
            "<th>busy ms</th><th>wait ms</th><th>imbalance</th>"
            "<th>worst</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>"
        )
    return out


def _attribution_section(doc: dict) -> str:
    """Per-node predicted-vs-measured tables from a ``repro-attr/v1`` doc."""
    node_rows = doc.get("nodes") or []
    if not node_rows:
        return "<p class='meta'>(no attribution data)</p>"
    header = (
        f"<p class='meta'>strategy {html.escape(str(doc.get('strategy')))} "
        f"&middot; rank {doc.get('rank')} &middot; "
        f"{doc.get('n_iterations', 0)} iterations &middot; ratios are "
        "measured/predicted for the last full iteration; anything other "
        "than 1.0000 on the flop column is a model-alignment bug</p>"
    )
    rows = []
    for r in node_rows:
        ratio = r.get("flops_ratio")
        flagged = ratio is not None and abs(ratio - 1.0) > 1e-9
        ratio_cell = (
            f'<span class="status-regression">{ratio:.4f}</span>'
            if flagged else (f"{ratio:.4f}" if ratio is not None else "-")
        )
        modes = ",".join(str(m) for m in r.get("modes", []))
        rebuild = r.get("rebuild_mode")
        rows.append(
            "<tr>"
            f'<td class="num">{r.get("node")}</td>'
            f"<td>{html.escape(modes)}</td>"
            f'<td class="num">{"-" if rebuild is None else rebuild}</td>'
            f'<td class="num">{r.get("predicted_flops", 0):,}</td>'
            f'<td class="num">{r.get("measured_flops", 0):,}</td>'
            f'<td class="num">{ratio_cell}</td>'
            f'<td class="num">{r.get("seconds", 0.0) * 1e3:.3f}</td>'
            f'<td class="num">{r.get("rebuilds", 0)}</td>'
            "</tr>"
        )
    out = header + (
        "<table><thead><tr><th>node</th><th>modes</th><th>built in</th>"
        "<th>predicted flops</th><th>measured flops</th><th>ratio</th>"
        "<th>ms</th><th>rebuilds</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table>"
    )
    mode_rows = doc.get("modes") or []
    if mode_rows:
        rows = []
        for r in mode_rows:
            ratio = r.get("flops_ratio")
            ratio_cell = f"{ratio:.4f}" if ratio is not None else "-"
            rows.append(
                "<tr>"
                f'<td class="num">{r.get("mode")}</td>'
                f'<td class="num">{r.get("predicted_flops", 0):,}</td>'
                f'<td class="num">{r.get("measured_flops", 0):,}</td>'
                f'<td class="num">{ratio_cell}</td>'
                f'<td class="num">{r.get("seconds", 0.0) * 1e3:.3f}</td>'
                f'<td class="num">{r.get("mttkrps", 0)}</td>'
                "</tr>"
            )
        out += (
            "<table><thead><tr><th>mode</th><th>predicted flops</th>"
            "<th>measured flops</th><th>ratio</th><th>ms</th>"
            "<th>mttkrps</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>"
        )
    return out


def _roofline_curve(machine: dict) -> str:
    """Bandwidth-vs-threads saturation curve from a machine payload."""
    points = machine.get("bandwidth_points") or []
    if not points:
        return ""
    width, height, pad = 420, 170, 36
    peak = machine.get("peak_bandwidth_gbs") or max(
        p["triad_gbs"] for p in points
    )
    hi = peak * 1.15
    n = len(points)
    sat = machine.get("saturation_workers")

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
        y = (height - pad) - (height - 2 * pad) * (v / hi)
        return x, y

    ceiling_y = (height - pad) - (height - 2 * pad) * (peak / hi)
    parts = [
        f'<line x1="{pad}" y1="{ceiling_y:.1f}" x2="{width - pad}" '
        f'y2="{ceiling_y:.1f}" stroke="{_GRID}" stroke-width="1" '
        f'stroke-dasharray="4 3"/>'
        f'<text x="{width - pad}" y="{ceiling_y - 4:.1f}" text-anchor="end" '
        f'font-size="10" fill="#52514e">ceiling {peak:.2f} GB/s</text>'
    ]
    for series, color, label in (
        ("triad_gbs", _SERIES_1, "triad"),
        ("gather_gbs", _SERIES_2, "gather"),
    ):
        vals = [float(p.get(series, 0.0)) for p in points]
        poly = " ".join(
            f"{x:.1f},{y:.1f}" for x, y in
            (xy(i, v) for i, v in enumerate(vals))
        )
        dots = "".join(
            f'<circle cx="{xy(i, v)[0]:.1f}" cy="{xy(i, v)[1]:.1f}" r="4" '
            f'fill="{color}"><title>{points[i]["threads"]} thread(s): '
            f"{label} {v:.2f} GB/s</title></circle>"
            for i, v in enumerate(vals)
        )
        lx, ly = xy(n - 1, vals[-1])
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>{dots}'
            f'<text x="{min(lx + 8, width - 4):.1f}" y="{ly + 4:.1f}" '
            f'fill="{color}" font-size="11">{html.escape(label)}</text>'
        )
    for i, p in enumerate(points):
        x, _ = xy(i, 0.0)
        mark = " &#9650;" if p.get("threads") == sat else ""
        parts.append(
            f'<text x="{x:.1f}" y="{height - pad + 14}" text-anchor="middle" '
            f'font-size="10" fill="#52514e">{p["threads"]}{mark}</text>'
        )
    parts.append(
        f'<text x="{width // 2}" y="{height - 4}" text-anchor="middle" '
        f'font-size="10" fill="#52514e">threads '
        f"(&#9650; = saturation at {sat})</text>"
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="memory bandwidth vs thread count">'
        + "".join(parts) + "</svg>"
    )


def _roofline_section(doc: dict) -> str:
    """Panel from a ``repro-roofline/v1`` report dict.

    Renders whatever is present: the saturation curve needs a calibrated
    machine payload, the config table only needs spans; an uncalibrated
    report shows achieved GB/s with "-" fractions plus the note saying
    how to calibrate.
    """
    parts = []
    machine = doc.get("machine")
    if machine:
        parts.append(
            "<p class='meta'>measured ceilings: bandwidth "
            f"{machine.get('peak_bandwidth_gbs', 0.0):.2f} GB/s (gather "
            f"{machine.get('peak_gather_gbs', 0.0):.2f} GB/s), compute "
            f"{machine.get('peak_gflops', 0.0):.2f} GFLOP/s &middot; "
            f"saturates at {machine.get('saturation_workers')} worker(s) "
            f"&middot; {machine.get('host_cpus')} cpus"
            + (" &middot; quick calibration" if machine.get("quick") else "")
            + "</p>"
        )
        parts.append(_roofline_curve(machine))
    configs = doc.get("configs") or []
    if configs:
        peak = (machine or {}).get("peak_bandwidth_gbs")
        rows = []
        for c in configs:
            frac = c.get("bandwidth_fraction")
            if frac is not None:
                bar_w = max(min(frac, 1.0) * 160, 1.0)
                bar = (
                    f'<svg width="166" height="12" viewBox="0 0 166 12">'
                    f'<rect x="0" y="0" width="160" height="12" rx="3" '
                    f'fill="{_GRID}" fill-opacity="0.6"/>'
                    f'<rect x="0" y="0" width="{bar_w:.1f}" height="12" '
                    f'rx="3" fill="{_SERIES_1}">'
                    f"<title>{frac * 100:.1f}% of {peak:.2f} GB/s</title>"
                    f"</rect></svg> "
                    f'<span class="num">{frac * 100:.1f}%</span>'
                )
            else:
                bar = "-"
            comp = c.get("compute_fraction")
            rows.append(
                "<tr>"
                f"<td>{html.escape(str(c.get('config')))}</td>"
                f'<td class="num">{c.get("spans", 0)}</td>'
                f'<td class="num">{c.get("seconds", 0.0) * 1e3:.3f}</td>'
                f'<td class="num">{c.get("gbs", 0.0):.3f}</td>'
                f'<td class="num">{c.get("gflops", 0.0):.3f}</td>'
                f"<td>{bar}</td>"
                f'<td class="num">'
                f"{'-' if comp is None else f'{comp * 100:.1f}%'}</td>"
                f"<td>{html.escape(str(c.get('bound', 'unknown')))}</td>"
                "</tr>"
            )
        parts.append(
            "<table><thead><tr><th>config</th><th>spans</th><th>ms</th>"
            "<th>GB/s</th><th>GFLOP/s</th><th>% of bandwidth roofline</th>"
            "<th>% compute</th><th>bound</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>"
        )
    elif machine:
        parts.append("<p class='meta'>(no attributable kernel spans in "
                     "this trace)</p>")
    for line in doc.get("guidance") or []:
        parts.append(f"<p class='meta'>&rarr; {html.escape(line)}</p>")
    for note in doc.get("notes") or []:
        parts.append(f"<p class='meta'>note: {html.escape(note)}</p>")
    if not parts:
        return "<p class='meta'>(no roofline data)</p>"
    return "".join(parts)


def _profile_icicle(doc: dict, *, width: int = 640, row_h: int = 18,
                    max_depth: int = 14) -> str:
    """Icicle chart over folded profiler stacks (root row at the top).

    Each folded entry contributes its count along the path ``lane →
    span:<kind>... → frames...``; rectangle width is proportional to the
    sample count, rows are depth, colors alternate between the two
    series colors per depth.  Sub-pixel rectangles are dropped (their
    width still offsets siblings, so proportions stay honest).
    """
    folded = doc.get("folded") or []
    total = sum(int(e.get("count", 0)) for e in folded)
    if not total:
        return ""
    root: dict = {}
    for e in folded:
        path = ([str(e.get("lane", "?"))]
                + [f"span:{s}" for s in e.get("spans", [])]
                + [str(f) for f in e.get("frames", [])])[:max_depth]
        node = root
        for seg in path:
            slot = node.setdefault(seg, [0, {}])
            slot[0] += int(e.get("count", 0))
            node = slot[1]
    scale = (width - 2) / total
    parts: list[str] = []
    deepest = [1]

    def emit(node: dict, depth: int, x0: float) -> None:
        if depth >= max_depth:
            return
        x = x0
        for name, (count, children) in sorted(
                node.items(), key=lambda kv: (-kv[1][0], kv[0])):
            w = count * scale
            if w < 0.8:
                x += w
                continue
            deepest[0] = max(deepest[0], depth + 1)
            color = (_SERIES_1, _SERIES_2)[depth % 2]
            pct = 100.0 * count / total
            title = html.escape(f"{name}: {count} samples ({pct:.1f}%)")
            y = depth * row_h
            parts.append(
                f'<rect x="{x + 1:.1f}" y="{y + 1}" '
                f'width="{max(w - 1.0, 0.8):.1f}" height="{row_h - 2}" '
                f'rx="2" fill="{color}" '
                f'fill-opacity="{"0.9" if depth % 2 == 0 else "0.75"}">'
                f"<title>{title}</title></rect>"
            )
            if w > 60:
                room = max(int(w / 7) - 1, 1)
                label = name if len(name) <= room else name[:room] + "…"
                parts.append(
                    f'<text x="{x + 5:.1f}" y="{y + row_h - 6}" '
                    f'font-size="10" fill="#ffffff">'
                    f"{html.escape(label)}</text>"
                )
            emit(children, depth + 1, x)
            x += w

    emit(root, 0, 0.0)
    height = deepest[0] * row_h + 2
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="sampled stack icicle, root lane at top, '
        f'width proportional to samples">' + "".join(parts) + "</svg>"
    )


def _profile_section(doc: dict) -> str:
    """Panel from a ``repro-profile/v1`` document."""
    from .profiler import hotspots

    n = int(doc.get("n_samples", 0))
    if not n:
        return ("<p class='meta'>(profile recorded but holds no samples "
                "— the run was too short for the sampling rate; raise "
                "--hz)</p>")
    lanes = ", ".join(doc.get("lanes") or []) or "-"
    parts = [
        f"<p class='meta'>{n} samples @ {doc.get('hz', 0):g} Hz &middot; "
        f"{float(doc.get('sampled_seconds', 0.0)):.2f}s sampled &middot; "
        f"lanes: {html.escape(lanes)}</p>",
        '<p class="legend">icicle: lane &rarr; open spans &rarr; frames, '
        "top to bottom; width &prop; samples; hover for counts</p>",
        _profile_icicle(doc),
    ]
    rows = []
    for r in hotspots(doc, top=10):
        rows.append(
            "<tr>"
            f"<td>{html.escape(r['frame'])}</td>"
            f'<td class="num">{r["self_seconds"]:.3f}</td>'
            f'<td class="num">{r["self_fraction"] * 100:.1f}%</td>'
            f'<td class="num">{r["total_seconds"]:.3f}</td>'
            f'<td class="num">{r["self_samples"]}</td>'
            "</tr>"
        )
    if rows:
        parts.append(
            "<table><thead><tr><th>frame</th><th>self s</th><th>self %</th>"
            "<th>total s</th><th>samples</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>"
        )
    return "".join(parts)


def _condition_chart(readings: list[dict], *, width: int = 640,
                     height: int = 160) -> str:
    """Log-scale worst-mode κ(H) per iteration, pinv fallbacks marked.

    Iterations whose worst mode was outright singular (condition number
    serialized as null) are drawn as markers pinned to the top edge.
    """
    points: list[tuple[int, float | None]] = []
    fallback_iters: set[int] = set()
    for row in readings:
        conds = [c for c in row.get("condition_numbers", [])
                 if isinstance(c, (int, float)) and c > 0]
        points.append((int(row.get("iteration", len(points))),
                       max(conds) if conds else None))
        if int(row.get("pinv_fallbacks", 0) or 0) > 0:
            fallback_iters.add(int(row.get("iteration", len(points) - 1)))
    finite = [v for _, v in points if v is not None]
    if not finite:
        return ""
    pad = 28
    logs = [math.log10(v) for v in finite]
    lo = min(min(logs), 0.0)
    hi = max(max(logs), lo + 1.0)
    span = hi - lo
    n = len(points)

    def xy(i: int, v: float | None) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
        if v is None:  # singular: pin to the top edge
            return x, pad
        y = pad + (height - 2 * pad) * (1.0 - (math.log10(v) - lo) / span)
        return x, y

    parts = []
    # Decade gridlines with 10^k labels.
    for k in range(int(math.floor(lo)), int(math.ceil(hi)) + 1):
        if not lo <= k <= hi:
            continue
        y = pad + (height - 2 * pad) * (1.0 - (k - lo) / span)
        parts.append(
            f'<line x1="{pad}" y1="{y:.1f}" x2="{width - pad}" '
            f'y2="{y:.1f}" stroke="{_GRID}" stroke-width="1"/>'
            f'<text x="2" y="{y + 4:.1f}" font-size="10" '
            f'fill="currentColor">1e{k}</text>'
        )
    pts = " ".join(
        f"{x:.1f},{y:.1f}"
        for x, y in (xy(i, v) for i, (_, v) in enumerate(points))
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="{_SERIES_1}" '
        'stroke-width="2"/>'
    )
    for i, (iteration, v) in enumerate(points):
        x, y = xy(i, v)
        if v is None:
            parts.append(
                f'<text x="{x - 4:.1f}" y="{y:.1f}" font-size="11" '
                f'fill="{_SERIES_2}"><title>iteration {iteration}: '
                'singular Gram</title>&#215;</text>'
            )
        if iteration in fallback_iters:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                f'fill="{_SERIES_2}"><title>iteration {iteration}: '
                'Cholesky&rarr;pinv fallback</title></circle>'
            )
    title = (f"worst-mode condition number per iteration (log scale), "
             f"{len(fallback_iters)} iterations with pinv fallbacks")
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{html.escape(title)}">'
        f"<title>{html.escape(title)}</title>" + "".join(parts) + "</svg>"
    )


def _health_section(doc: dict) -> str:
    """Panel from a ``repro-health/v1`` document."""
    readings = doc.get("readings", [])
    if not readings:
        return "<p class='meta'>(health artifact holds no readings)</p>"
    last = readings[-1]
    parts = [
        f"<p class='meta'>{doc.get('n_iterations', 0)} iterations &middot; "
        f"final trajectory: <strong>"
        f"{html.escape(str(doc.get('final_trajectory') or 'n/a'))}</strong> "
        f"&middot; {doc.get('total_pinv_fallbacks', 0)} pinv fallbacks "
        f"&middot; {doc.get('total_truncated_eigenvalues', 0)} truncated "
        f"eigenvalues (rcond {doc.get('rcond', 0):g})</p>",
    ]
    chart = _condition_chart(readings)
    if chart:
        parts.append(
            '<p class="legend">worst-mode &kappa;(H) per iteration, log '
            f'axis; <span class="swatch" style="background:{_SERIES_2}">'
            "</span>marks iterations with Cholesky&rarr;pinv fallbacks"
            "</p>"
        )
        parts.append(chart)
    congruences = [r.get("congruence") for r in readings]
    congruences = [c for c in congruences if isinstance(c, (int, float))]
    if congruences:
        parts.append(
            f"<p class='legend'>component congruence (&rarr;1 signals a "
            f"swamp): last {congruences[-1]:.4f} "
            + _sparkline(congruences) + "</p>"
        )
    rows = []
    for row in readings[-10:]:
        conds = [c for c in row.get("condition_numbers", [])
                 if isinstance(c, (int, float))]
        deltas = [d for d in row.get("factor_deltas", [])
                  if isinstance(d, (int, float))]
        congruence = row.get("congruence")
        rows.append(
            "<tr>"
            f'<td class="num">{row.get("iteration")}</td>'
            + (f'<td class="num">{max(conds):.3e}</td>' if conds
               else '<td class="num">singular</td>')
            + f'<td class="num">'
              f'{sum(int(t) for t in row.get("truncated_eigenvalues", []))}'
              "</td>"
            + (f'<td class="num">{max(deltas):.3e}</td>' if deltas
               else '<td class="num">-</td>')
            + (f'<td class="num">{congruence:.4f}</td>'
               if isinstance(congruence, (int, float))
               else '<td class="num">-</td>')
            + f'<td class="num">{row.get("pinv_fallbacks", 0)}</td>'
            f"<td>{html.escape(str(row.get('trajectory', '?')))}</td></tr>"
        )
    parts.append(
        "<table><thead><tr><th>iter</th><th>max &kappa;(H)</th>"
        "<th>trunc</th><th>max &Delta;U/U</th><th>congruence</th>"
        "<th>pinv</th><th>trajectory</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table>"
    )
    if last.get("congruence_pair"):
        pair = last["congruence_pair"]
        parts.append(
            f"<p class='meta'>most congruent component pair at the final "
            f"iteration: ({pair[0]}, {pair[1]})</p>"
        )
    return "".join(parts)


def render_dashboard(*, history_entries: list[BenchEntry] | None = None,
                     diffs: list[DiffResult] | None = None,
                     memory_readings: list[dict] | None = None,
                     utilization: UtilizationReport | None = None,
                     pool_tasks: list[dict] | None = None,
                     trace_summary: str | None = None,
                     kind_table_text: str | None = None,
                     attribution: dict | None = None,
                     roofline: dict | None = None,
                     profile: dict | None = None,
                     health: dict | None = None,
                     title: str = "repro dashboard") -> str:
    """Assemble the full self-contained HTML document (returns the string)."""
    info = build_info()
    parts = [
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p class='meta'>repro {html.escape(str(info['version']))} "
        f"&middot; git {html.escape(str(info['git_rev']))} &middot; "
        f"python {html.escape(str(info['python']))} / "
        f"numpy {html.escape(str(info['numpy']))}</p>",
        "<h2>Benchmark history</h2>",
        _history_section(history_entries or [], diffs),
    ]
    parts.append("<h2>Memory: measured vs predicted</h2>")
    parts.append(_memory_chart(memory_readings or []))
    parts.append(_memory_table(memory_readings or []))
    if utilization is not None or pool_tasks:
        parts.append("<h2>Worker utilization</h2>")
        lanes = _worker_lanes(pool_tasks or [])
        if lanes:
            parts.append(
                '<p class="legend">pool task timeline, one lane per '
                "worker &mdash; rectangle color alternates per fan-out"
                "</p>"
            )
            parts.append(lanes)
        if utilization is not None:
            parts.append(_utilization_tables(utilization))
    if attribution is not None:
        parts.append("<h2>Cost attribution: predicted vs measured "
                     "per tree node</h2>")
        parts.append(_attribution_section(attribution))
    if roofline is not None:
        parts.append("<h2>Roofline: achieved throughput vs machine "
                     "ceilings</h2>")
        parts.append(_roofline_section(roofline))
    if health is not None:
        parts.append("<h2>Numerical health: conditioning, congruence, "
                     "trajectory</h2>")
        parts.append(_health_section(health))
    if profile is not None:
        parts.append("<h2>Sampling profiler: span-joined icicle</h2>")
        parts.append(_profile_section(profile))
    elif kind_table_text or trace_summary:
        # A trace was rendered but no profile artifact exists (e.g. a
        # pre-profiler trace dir): say so instead of silently omitting.
        parts.append("<h2>Sampling profiler</h2>")
        parts.append(
            "<p class='meta'>no profile captured — record one with "
            "<code>repro profile &lt;cmd&gt;</code> or "
            "<code>repro trace --profile</code></p>"
        )
    if kind_table_text:
        parts.append("<h2>Trace: per-kind aggregates</h2>")
        parts.append(f"<pre>{html.escape(kind_table_text)}</pre>")
    if trace_summary:
        parts.append("<h2>Trace: span tree</h2>")
        parts.append(f"<pre>{html.escape(trace_summary)}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(path: str, **kwargs) -> str:
    """Render and write the dashboard; returns the output path."""
    doc = render_dashboard(**kwargs)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(doc)
    return path


def load_memory_json(path: str) -> list[dict]:
    """Read the ``memory.json`` written by ``repro trace`` (readings list)."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        return list(doc.get("readings", []))
    return list(doc)
