"""OpenMetrics/Prometheus endpoint over the live metrics registry.

Production systems are *scraped*, not inspected after exit.  This module
turns the process-wide observability state — span histograms from
:mod:`repro.obs.metrics`, live memoized-value bytes from
:mod:`repro.obs.memory`, the current-run fold from
:mod:`repro.obs.events` — into a tiny stdlib :mod:`http.server` exporter:

* ``/metrics`` — OpenMetrics text (Prometheus-compatible): every counter
  and gauge in the registry, per-kind span latency histograms (the log2
  buckets rendered as cumulative ``le`` buckets), the memory tracker's
  live bytes, and the current-run gauges (iteration, fit, ETA);
* ``/healthz`` — liveness probe, always ``ok``;
* ``/runz`` — JSON snapshot of the current CP-ALS run (iteration, fit,
  trailing rate, ETA) plus the most recent events and, under ``runs``,
  every run context the :data:`~repro.obs.runctx.run_registry` knows
  about (concurrent scoped runs each appear with their own ``run_id``).

Scoped run contexts (see :mod:`repro.obs.runctx`) also show up on
``/metrics``: their private registries render as ``run_id``-labelled
samples grouped into the same metric families as the process-global
(unlabelled) series.

Two ways to use it: **live**, started by ``repro serve --port P <cmd>``
or ``python -m repro.experiments --serve`` next to a running
decomposition; or **replay**, where :func:`load_trace_dir` reconstructs
registry/event/run state from a ``repro trace`` artifact directory so a
finished run can still be scraped (CI smoke-tests the endpoint this way).

No dependencies beyond the standard library; the server threads only ever
*read* snapshots, so scraping never blocks the numeric work.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import switch as _switch
from .metrics import registry as _registry
from .runctx import run_registry

__all__ = [
    "OPENMETRICS_CONTENT_TYPE", "render_openmetrics",
    "validate_openmetrics", "ObsServer", "load_trace_dir",
]

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_BUCKET_KEY = re.compile(r"^<=2\^(-?\d+)s$")
#: one sample line: name{labels} value  (labels optional, value a float).
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+( \d+(\.\d+)?)?$"
)


def _metric_name(name: str) -> str:
    """Registry name -> OpenMetrics name: ``mem.peak_bytes`` ->
    ``repro_mem_peak_bytes``."""
    return "repro_" + _NAME_OK.sub("_", name)


def _fmt(value) -> str:
    """Sample-value rendering: integers stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Families:
    """Order-preserving family accumulator: one TYPE line per family.

    OpenMetrics requires every sample of a family grouped under a single
    ``# TYPE`` declaration — which is exactly what breaks if the global
    registry and N per-run registries each render their own copy of, say,
    ``repro_pool_imbalance``.  Samples are collected per family here and
    emitted grouped, so ``run_id``-labelled samples ride under the same
    declaration as the unlabelled global ones.
    """

    def __init__(self):
        self._fams: dict[str, list] = {}
        self._order: list[str] = []

    def sample(self, name: str, mtype: str, line: str,
               help_: str | None = None) -> None:
        fam = self._fams.get(name)
        if fam is None:
            fam = self._fams[name] = [mtype, help_, []]
            self._order.append(name)
        fam[2].append(line)

    def render(self) -> str:
        out: list[str] = []
        for name in self._order:
            mtype, help_, samples = self._fams[name]
            out.append(f"# TYPE {name} {mtype}")
            if help_:
                out.append(f"# HELP {name} {help_}")
            out.extend(samples)
        out.append("# EOF")
        return "\n".join(out) + "\n"


def _label_str(extra: dict | None, **pairs) -> str:
    """``{k="v",...}`` rendering of merged label pairs ('' when none)."""
    merged = dict(pairs)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in merged.items()
    )
    return "{" + inner + "}"


def _render_span_histograms(spans: dict, fam: _Families,
                            labels: dict | None = None) -> None:
    """SpanStats snapshots -> the labelled OpenMetrics histogram family.

    ``log2_buckets`` keys are ``<=2^{exp}s`` counts per bucket (the last
    exponent is the overflow bucket); OpenMetrics wants *cumulative*
    counts with explicit ``le`` upper bounds ending at ``+Inf``.
    """
    name = "repro_span_duration_seconds"
    help_ = "wall time per span kind"
    for kind in sorted(spans or {}):
        stats = spans[kind]
        buckets = []
        for key, n in stats.get("log2_buckets", {}).items():
            m = _BUCKET_KEY.match(key)
            if m:
                buckets.append((int(m.group(1)), int(n)))
        buckets.sort()
        cum = 0
        for exp, n in buckets:
            cum += n
            label = _label_str(labels, kind=kind, le=_fmt(2.0 ** exp))
            fam.sample(name, "histogram", f"{name}_bucket{label} {cum}",
                       help_)
        count = int(stats.get("count", cum))
        label = _label_str(labels, kind=kind, le="+Inf")
        fam.sample(name, "histogram", f"{name}_bucket{label} {count}", help_)
        label = _label_str(labels, kind=kind)
        fam.sample(name, "histogram", f"{name}_count{label} {count}", help_)
        fam.sample(
            name, "histogram",
            f"{name}_sum{label} "
            f"{_fmt(float(stats.get('total_seconds', 0.0)))}",
            help_,
        )


def _render_registry(fam: _Families, snapshot: dict, run: dict | None,
                     live_bytes: int | None,
                     labels: dict | None = None) -> None:
    """One registry snapshot (+ run fold + live bytes) into the families."""
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(f"counter.{name}")
        fam.sample(metric, "counter",
                   f"{metric}_total{_label_str(labels)} {_fmt(value)}")
    for name, value in sorted(snapshot.get("events", {}).items()):
        metric = _metric_name(name)
        fam.sample(metric, "counter",
                   f"{metric}_total{_label_str(labels)} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name)
        fam.sample(metric, "gauge",
                   f"{metric}{_label_str(labels)} {_fmt(value)}")

    if live_bytes is not None:
        fam.sample(
            "repro_memtracker_live_bytes", "gauge",
            f"repro_memtracker_live_bytes{_label_str(labels)} "
            f"{_fmt(int(live_bytes))}",
            "live memoized-value bytes",
        )

    if run is not None:
        run_gauges = {
            "repro_run_active": 1 if run.get("active") else 0,
            "repro_run_iteration": run.get("iteration"),
            "repro_run_fit": run.get("fit"),
            "repro_run_seconds_per_iteration":
                run.get("seconds_per_iteration"),
            "repro_run_eta_seconds": run.get("eta_seconds"),
        }
        for metric, value in run_gauges.items():
            if value is None:
                continue
            fam.sample(metric, "gauge",
                       f"{metric}{_label_str(labels)} {_fmt(value)}")

    _render_span_histograms(snapshot.get("spans", {}), fam, labels)


def render_openmetrics(snapshot: dict | None = None,
                       run: dict | None = None,
                       live_bytes: int | None = None,
                       include_runs: bool = True) -> str:
    """Render the registry (+ run state + mem tracker) as OpenMetrics text.

    All arguments default to the live process-global state; pass explicit
    snapshots to render saved artifacts.  With ``include_runs=True``
    (default) every *scoped* run context in the
    :data:`~repro.obs.runctx.run_registry` additionally contributes its
    own registry/run-state samples labelled ``run_id="..."`` — grouped
    into the same metric families, so two concurrent decompositions scrape
    as distinct series instead of interleaving.
    """
    if snapshot is None:
        snapshot = _registry.snapshot()
    if run is None:
        run = _switch.get("events").run.to_dict()
    if live_bytes is None:
        live_bytes = _switch.get("mem").live_bytes

    fam = _Families()
    _render_registry(fam, snapshot, run, live_bytes)
    if include_runs:
        for ctx in run_registry.runs():
            if not ctx.owns_telemetry:
                continue
            events = ctx.instruments.get("events")
            mem = ctx.instruments.get("mem")
            _render_registry(
                fam,
                ctx.metrics.snapshot(),
                events.run.to_dict() if events is not None else None,
                mem.live_bytes if mem is not None else None,
                labels={"run_id": ctx.run_id},
            )
    return fam.render()


def validate_openmetrics(text: str) -> list[str]:
    """Format errors (empty = valid) for an OpenMetrics exposition.

    Checks the structural rules a scraper relies on: a final ``# EOF``,
    a ``# TYPE`` declaration (exactly one) preceding every sample of a
    family, sample lines that parse, counter samples using the ``_total``
    suffix, and histograms ending their bucket series at ``le="+Inf"``.
    """
    errors: list[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        errors.append("missing terminal '# EOF' line")
    types: dict[str, str] = {}
    histogram_inf: dict[str, bool] = {}
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        if not line:
            errors.append(f"{where}: empty line")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"{where}: malformed TYPE line")
                    continue
                name, mtype = parts[2], parts[3]
                if name in types:
                    errors.append(f"{where}: duplicate TYPE for {name}")
                types[name] = mtype
                if mtype == "histogram":
                    histogram_inf[name] = False
            continue
        if not _SAMPLE_LINE.match(line):
            errors.append(f"{where}: unparseable sample: {line!r}")
            continue
        sample = line.split("{", 1)[0].split(" ", 1)[0]
        family = sample
        for suffix in ("_total", "_bucket", "_count", "_sum", "_created"):
            if sample.endswith(suffix) and sample[: -len(suffix)] in types:
                family = sample[: -len(suffix)]
                break
        mtype = types.get(family)
        if mtype is None:
            errors.append(f"{where}: sample {sample!r} has no TYPE")
            continue
        if mtype == "counter" and not sample.endswith(
                ("_total", "_created")):
            errors.append(f"{where}: counter sample {sample!r} "
                          "missing _total suffix")
        if mtype == "histogram" and sample.endswith("_bucket") \
                and 'le="+Inf"' in line:
            histogram_inf[family] = True
    for name, seen in histogram_inf.items():
        if not seen:
            errors.append(f"histogram {name} has no le=\"+Inf\" bucket")
    return errors


class _Handler(BaseHTTPRequestHandler):
    """Routes: /metrics (OpenMetrics), /healthz, /runz (JSON)."""

    server_version = "repro-obs/1"

    def do_GET(self):  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics().encode()
            self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
        elif path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
        elif path == "/runz":
            log = _switch.get("events")
            doc = {
                "run": log.run.to_dict(),
                "events": {
                    "buffered": len(log),
                    "dropped": log.n_dropped,
                    "sink": log.sink_path,
                },
                "last_events": log.tail(20),
                "runs": run_registry.describe(),
            }
            body = (json.dumps(doc, indent=2) + "\n").encode()
            self._reply(200, "application/json; charset=utf-8", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, status: int, ctype: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # quiet by default
        import logging

        logging.getLogger("repro.obs.serve").debug(
            "%s %s", self.address_string(), fmt % args
        )


class ObsServer:
    """Threaded HTTP exporter; binds at construction (raising ``OSError``
    immediately on an occupied port), serves from a daemon thread."""

    def __init__(self, port: int = 9464, host: str = "127.0.0.1"):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-serve", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (Ctrl-C to stop)."""
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self._httpd.server_close()

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def load_trace_dir(trace_dir: str) -> dict:
    """Reconstruct live state from a ``repro trace`` artifact directory.

    Replays ``trace.jsonl`` spans into the registry's span histograms (and
    derives the pool utilization gauges), restores ``metrics.json`` gauges
    / counters / event counts, and feeds ``events.jsonl`` back into the
    event log so ``/runz`` reflects the recorded run.  Artifact reading
    goes through :class:`~repro.obs.artifacts.TraceArtifacts`, so missing
    files are simply skipped and malformed ones warn instead of aborting
    the replay.  Returns a summary of what was loaded; raises
    ``FileNotFoundError`` when the directory has none of the expected
    artifacts.
    """
    import os

    from .artifacts import TraceArtifacts
    from .utilization import utilization_from_spans

    loaded = {"spans": 0, "events": 0, "gauges": 0, "counters": 0}
    found = False
    arts = TraceArtifacts(trace_dir)

    spans = arts.spans()
    if spans is not None:
        found = True
        for rec in spans:
            if rec.t1 is not None:
                _registry.observe_span(rec.kind, rec.duration)
        loaded["spans"] = len(spans)
        util = utilization_from_spans(spans)
        if util is not None:
            _registry.set_gauge("pool.imbalance", util.mean_imbalance)
            _registry.set_gauge("pool.busy_seconds", util.busy_seconds)
            _registry.set_gauge("pool.n_workers", len(util.workers))

    metrics_doc = arts.metrics()
    if metrics_doc is not None:
        found = True
        snap = metrics_doc.get("metrics", {})
        for name, value in snap.get("gauges", {}).items():
            _registry.set_gauge(name, value)
            loaded["gauges"] += 1
        for name, value in snap.get("events", {}).items():
            _registry.incr(name, int(value))
        counters = _registry.counters
        for name, value in snap.get("counters", {}).items():
            if hasattr(counters, name) and name != "extra":
                setattr(counters, name, value)
            else:
                counters.extra[name] = value
            loaded["counters"] += 1

    events = arts.events()
    if events is not None:
        found = True
        log = _switch.get("events")
        loaded["events"] = log.replay(events)

    # Per-mode prediction-error gauges from a recorded attribution doc, so
    # a replayed /metrics carries the same attr.* series as a live run.
    attr_doc = arts.attribution()
    if attr_doc is not None:
        found = True
        max_err = None
        for row in attr_doc.get("modes", []):
            ratio = row.get("flops_ratio")
            if ratio is not None:
                _registry.set_gauge(
                    f"attr.mode{row['mode']}.flops_ratio", ratio
                )
                loaded["gauges"] += 1
        for row in attr_doc.get("nodes", []):
            ratio = row.get("flops_ratio")
            if ratio is not None:
                err = abs(ratio - 1.0)
                max_err = err if max_err is None else max(max_err, err)
        if max_err is not None:
            _registry.set_gauge("attr.max_node_flops_err", max_err)
            loaded["gauges"] += 1

    # Roofline gauges: the trace dir snapshots the calibration it ran
    # under (machine.json), so a replayed /metrics serves the same
    # repro_roofline_* families as the original host — ceilings plus the
    # achieved fractions recomputed from the replayed spans.
    machine_path = os.path.join(trace_dir, "machine.json")
    if os.path.exists(machine_path):
        from .roofline import publish_roofline_gauges, report_from_trace_dir

        report = report_from_trace_dir(trace_dir, load=False)
        if report.calibrated:
            found = True
            publish_roofline_gauges(report.roofline, report.configs)
            loaded["gauges"] += 4 + len(report.roofline.bandwidth_points)

    # Sampling-profiler gauges from profile.json: overall sample stats
    # plus per-span-kind self seconds for the hottest kinds, so a
    # replayed /metrics answers "where did the time go" without the
    # artifact in hand.
    profile_doc = arts.profile()
    if profile_doc is not None:
        found = True
        _registry.set_gauge("profile.n_samples",
                            int(profile_doc.get("n_samples", 0)))
        _registry.set_gauge("profile.hz",
                            float(profile_doc.get("hz", 0.0)))
        _registry.set_gauge("profile.sampled_seconds",
                            float(profile_doc.get("sampled_seconds", 0.0)))
        loaded["gauges"] += 3
        for row in profile_doc.get("spans", [])[:8]:
            _registry.set_gauge(
                f"profile.span.{row['kind']}.self_seconds",
                float(row.get("self_seconds", 0.0)),
            )
            loaded["gauges"] += 1

    # Numerical-health gauges from health.json: the final iteration's
    # conditioning/congruence state plus run totals, so a replayed
    # /metrics carries the same repro_health_* families as a live run.
    health_doc = arts.health()
    if health_doc is not None:
        from .health import TRAJECTORY_CODES

        found = True
        readings = health_doc.get("readings", [])
        if readings:
            last = readings[-1]
            conds = [c for c in last.get("condition_numbers", [])
                     if c is not None]
            if conds:
                _registry.set_gauge("health.max_condition_number",
                                    max(conds))
                loaded["gauges"] += 1
            deltas = [d for d in last.get("factor_deltas", [])
                      if d is not None]
            if deltas:
                _registry.set_gauge("health.max_factor_delta", max(deltas))
                loaded["gauges"] += 1
            if last.get("congruence") is not None:
                _registry.set_gauge("health.congruence",
                                    float(last["congruence"]))
                loaded["gauges"] += 1
            code = TRAJECTORY_CODES.get(last.get("trajectory"))
            if code is not None:
                _registry.set_gauge("health.trajectory_code", code)
                loaded["gauges"] += 1
        _registry.set_gauge(
            "health.total_pinv_fallbacks",
            int(health_doc.get("total_pinv_fallbacks", 0)))
        _registry.set_gauge(
            "health.total_truncated_eigenvalues",
            int(health_doc.get("total_truncated_eigenvalues", 0)))
        loaded["gauges"] += 2

    if not found:
        raise FileNotFoundError(
            f"no trace artifacts (trace.jsonl / metrics.json / "
            f"events.jsonl) in {trace_dir!r}"
        )
    return loaded
