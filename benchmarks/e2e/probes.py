"""Outside-in layer trace: spans around calls into repro's public functions.

A traced job wraps each probe target at run time from this file; nothing
under ``src/`` carries a probe.  A span records ``run_id``, ``span_id``,
``parent_id``, ``name``, start/end in ``time.monotonic_ns`` (one clock for
every process on the host) and ``attrs``.  Spans stay in memory and are
written as JSON lines when the job ends.

A traced job switches the probes off for every other iteration, so the
same process measures its iterations with and without them; that
difference is ``trace.overhead_frac``.

The second half of the module turns one job's spans, iteration ticks and
operation counts into the per-layer metrics.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import time
from bisect import bisect_left
from contextlib import contextmanager
from statistics import median

#: Layer name, module, attribute path.  ``KERNEL_MODULE`` stands for the
#: class of the kernel backend the engine resolves by default.
KERNEL_MODULE = "<active kernel backend>"
PROBES = (
    ("io.read_tns", "repro.io.frostt", "read_tns"),
    ("core.coo.canonicalize", "repro.core.coo", "CooTensor.__init__"),
    ("model.planner.plan", "repro.model.planner", "plan"),
    ("core.symbolic.build", "repro.core.symbolic", "SymbolicTree.__init__"),
    ("core.cpals.initialize_factors", "repro.core.cpals",
     "initialize_factors"),
    ("core.engine.mttkrp", "repro.core.engine", "MemoizedMttkrp.mttkrp"),
    ("kernels.rebuild", KERNEL_MODULE, "rebuild"),
    # cpals binds these by name at import, so they are wrapped there.
    ("linalg.solve", "repro.core.cpals", "solve_normal_equations"),
    ("linalg.normalize", "repro.core.cpals", "normalize_columns"),
    ("linalg.fit", "repro.core.cpals", "innerprod_from_mttkrp"),
    # Imported by module name: the package attribute ``repro.linalg.gram``
    # is the function ``gram``, not the module.
    ("linalg.gram.update", "repro.linalg.gram", "GramCache.update"),
    ("linalg.gram.combined", "repro.linalg.gram", "GramCache.combined"),
    ("io.save_model", "repro.io.model", "save_model"),
)


def _plan_attrs(args, kwargs, result):
    return {"candidates": len(result.scored)}


def _symbolic_attrs(args, kwargs, result):
    tree = args[0]
    return {"nonroot_nnz": sum(
        sym.nnz for sym in tree.nodes
        if not tree.strategy.nodes[sym.node_id].is_root)}


def _rebuild_attrs(args, kwargs, result):
    ctx = args[1]
    return {"node": int(ctx.node_id), "nnz": int(ctx.sym.nnz)}


#: Attributes read from a call's arguments and result, after its span ends.
ATTRS = {
    "model.planner.plan": _plan_attrs,
    "core.symbolic.build": _symbolic_attrs,
    "kernels.rebuild": _rebuild_attrs,
}


class Recorder:
    """In-memory span store for one job process (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        #: ``(owner, attr, original, probe)`` of every wrapped target.
        self._wrapped: list[tuple] = []

    def record(self, name: str, start_ns: int, end_ns: int, *,
               span_id: int | None = None, parent_id: int | None = None,
               **attrs) -> None:
        """Store a span whose interval was timed elsewhere."""
        self.spans.append({
            "run_id": self.run_id,
            "span_id": next(self._ids) if span_id is None else span_id,
            "parent_id": parent_id, "name": name,
            "start_ns": start_ns, "end_ns": end_ns, "attrs": attrs,
        })

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = next(self._ids)
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.record(name, start, end, span_id=span_id,
                        parent_id=parent_id, **attrs)

    def wrap(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call."""
        target = getattr(owner, attr)
        stack, ids = self._stack, self._ids

        @functools.wraps(target)
        def probe(*args, **kwargs):
            span_id = next(ids)
            parent_id = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            attrs = {}
            if attrs_fn is not None:
                try:
                    attrs = attrs_fn(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    attrs = {"attrs_error": True}
            self.record(name, start, end, span_id=span_id,
                        parent_id=parent_id, **attrs)
            return result

        setattr(owner, attr, probe)
        self._wrapped.append((owner, attr, target, probe))

    def set_enabled(self, on: bool) -> None:
        """Put every probe in place, or the original callables back so that
        calls cost nothing extra until the next ``set_enabled(True)``."""
        for owner, attr, original, probe in self._wrapped:
            setattr(owner, attr, probe if on else original)

    def current(self) -> int | None:
        """``span_id`` of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def install(self, probes=PROBES) -> list[str]:
        """Wrap every probe target; return the names of those not found."""
        missing = []
        for name, module, path in probes:
            try:
                owner, attr = _resolve(module, path)
                if not callable(getattr(owner, attr)):
                    raise AttributeError(f"{module}:{path} is not callable")
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            self.wrap(owner, attr, name, ATTRS.get(name))
        return missing

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(module: str, path: str):
    if module == KERNEL_MODULE:
        from repro.kernels import get_kernel

        owner = type(get_kernel(None))
    else:
        owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def union_ns(intervals, lo: int | None = None, hi: int | None = None) -> int:
    """Length of the union of ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        if lo is not None:
            a = max(a, lo)
        if hi is not None:
            b = min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, int]:
    """``span_id`` -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append(
                (s["start_ns"], s["end_ns"]))
    return {
        s["span_id"]: (s["end_ns"] - s["start_ns"]) - union_ns(
            children.get(s["span_id"], ()), s["start_ns"], s["end_ns"])
        for s in spans
    }


def steady_windows(ticks, skip: int = 2, traced: bool | None = None
                   ) -> list[tuple[int, int, int, int]]:
    """``(lo_ns, hi_ns, i_prev, i)``: callback-to-callback intervals of each
    model's iterations ``>= skip``; ``i_prev``/``i`` index ``ticks``.

    A tick is ``(model, iteration, t_ns, traced)``; with ``traced`` given,
    only iterations that ran with (True) or without (False) probes count.
    """
    out = []
    for i in range(1, len(ticks)):
        model, iteration, t, probed = ticks[i]
        if (iteration >= skip and ticks[i - 1][0] == model
                and (traced is None or probed == traced)):
            out.append((ticks[i - 1][2], t, i - 1, i))
    return out


#: Per-iteration layers: span names summed into each ``<layer>.ms_per_iter``.
ITER_LAYERS = {
    "kernels.rebuild": ("kernels.rebuild",),
    "core.engine.mttkrp": ("core.engine.mttkrp",),
    "linalg.solve": ("linalg.solve",),
    "linalg.gram": ("linalg.gram.update", "linalg.gram.combined"),
    "linalg.normalize": ("linalg.normalize",),
    "linalg.fit": ("linalg.fit",),
}

#: Spans a metric needs; the metric reads ``None`` ("missing") when a
#: probe it depends on could not be installed.
NEEDS = {
    "io.read_tns.s": ("io.read_tns",),
    "core.coo.canonicalize.s": ("core.coo.canonicalize",),
    "model.planner.plan.s": ("model.planner.plan",),
    "model.planner.candidates": ("model.planner.plan",),
    "core.symbolic.build.s": ("core.symbolic.build",),
    "core.symbolic.memo_mb": ("core.symbolic.build",),
    "kernels.rebuild.ms_per_iter": ("kernels.rebuild",),
    "kernels.gbps_computed": ("kernels.rebuild",),
    "core.engine.mttkrp.self_ms_per_iter": ("core.engine.mttkrp",),
    "linalg.solve.ms_per_iter": ("linalg.solve",),
    "linalg.gram.ms_per_iter": ("linalg.gram.update", "linalg.gram.combined"),
    "linalg.normalize.ms_per_iter": ("linalg.normalize",),
    "linalg.fit.ms_per_iter": ("linalg.fit",),
    "core.cpals.loop_ms_per_iter": tuple(
        n for names in ITER_LAYERS.values() for n in names),
    "algos.restarts.shared_setup_s": ("core.engine.mttkrp",),
    "algos.restarts.model_s": ("core.engine.mttkrp",),
    "io.save_model.s": ("io.save_model",),
}


def layer_metrics(job: dict, spans: list[dict], *, rank: int,
                  fit_span: str) -> dict:
    """Per-layer metrics of one traced job.

    ``job`` is the job's result record (``t_spawn_ns``, ``t_saved_ns``,
    ``ticks``, ``counters``, ``missing``); ``fit_span`` names the span
    around the ``cp_als``/``cp_als_restarts`` call.  Values are floats,
    or ``None`` for metrics whose probes are missing.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total_self_s(name: str) -> float:
        return sum(selfs[s["span_id"]] for s in by_name.get(name, ())) / 1e9

    job_ns = job["t_saved_ns"] - job["t_spawn_ns"]
    # Per-iteration numbers come from the iterations that ran with probes.
    windows = steady_windows(job["ticks"], traced=True)
    n_win = max(len(windows), 1)
    starts = [w[0] for w in windows]

    def window_of(t_ns: int) -> int | None:
        k = bisect_left(starts, t_ns) - 1
        if k >= 0 and t_ns <= windows[k][1]:
            return k
        return None

    def per_iter_ms(names) -> float:
        ns = 0
        for name in names:
            for s in by_name.get(name, ()):
                if window_of(s["start_ns"]) is not None:
                    ns += selfs[s["span_id"]]
        return ns / n_win / 1e6

    out: dict[str, float | None] = {}
    imports = by_name.get("import", ())
    out["import.s"] = sum(s["end_ns"] - s["start_ns"] for s in imports) / 1e9
    out["io.read_tns.s"] = total_self_s("io.read_tns")
    out["core.coo.canonicalize.s"] = total_self_s("core.coo.canonicalize")
    out["model.planner.plan.s"] = total_self_s("model.planner.plan")
    plans = by_name.get("model.planner.plan", ())
    out["model.planner.candidates"] = float(sum(
        s["attrs"].get("candidates", 0) for s in plans))
    out["core.symbolic.build.s"] = total_self_s("core.symbolic.build")
    out["core.symbolic.memo_mb"] = sum(
        s["attrs"].get("nonroot_nnz", 0)
        for s in by_name.get("core.symbolic.build", ())) * rank * 8 / 2**20

    for layer, names in ITER_LAYERS.items():
        key = ("core.engine.mttkrp.self_ms_per_iter"
               if layer == "core.engine.mttkrp" else f"{layer}.ms_per_iter")
        out[key] = per_iter_ms(names)
    node_ns: dict[int, int] = {}
    for s in by_name.get("kernels.rebuild", ()):
        if window_of(s["start_ns"]) is not None and "node" in s["attrs"]:
            node = s["attrs"]["node"]
            node_ns[node] = node_ns.get(node, 0) + selfs[s["span_id"]]
    for node in sorted(node_ns):
        out[f"kernels.rebuild.node{node}.ms_per_iter"] = \
            node_ns[node] / n_win / 1e6

    counters = job.get("counters") or []
    if counters and windows:
        def delta(key: str) -> float:
            return sum(counters[i].get(key, 0) - counters[p].get(key, 0)
                       for _, _, p, i in windows) / n_win

        flops, words = delta("flops"), delta("words")
        out["kernels.node_builds_per_iter"] = delta("node_builds")
        out["kernels.gflop_per_iter"] = flops / 1e9
        out["kernels.gb_per_iter"] = words * 8 / 1e9
        out["kernels.flop_per_byte"] = flops / (words * 8) if words else None
        rebuild_s = out["kernels.rebuild.ms_per_iter"] / 1e3
        out["kernels.gbps_computed"] = (
            out["kernels.gb_per_iter"] / rebuild_s if rebuild_s else None)
        out["core.engine.mttkrps_per_iter"] = delta("mttkrps")
        out["linalg.pinv_fallbacks"] = float(
            counters[-1].get("pinv_fallbacks", 0))

    # The ALS loop's own time: each steady window minus what the probed
    # spans inside the fit call cover.
    fit_calls = by_name.get(fit_span, ())
    fit_ids = {s["span_id"] for s in fit_calls}
    inner = [(s["start_ns"], s["end_ns"]) for s in spans
             if s["parent_id"] in fit_ids]
    loop_ns = sum((hi - lo) - union_ns(inner, lo, hi)
                  for lo, hi, _, _ in windows)
    out["core.cpals.loop_ms_per_iter"] = loop_ns / n_win / 1e6

    mttkrps = by_name.get("core.engine.mttkrp", ())
    if fit_calls and mttkrps:
        call = fit_calls[0]
        first = min(s["start_ns"] for s in mttkrps)
        n_models = len({t[0] for t in job["ticks"]}) or 1
        out["algos.restarts.shared_setup_s"] = (first - call["start_ns"]) / 1e9
        out["algos.restarts.model_s"] = \
            (call["end_ns"] - first) / n_models / 1e9
    out["io.save_model.s"] = total_self_s("io.save_model")
    out["remainder.frac"] = 1.0 - sum(selfs.values()) / job_ns

    missing = set(job.get("missing", ()))
    for metric, needs in NEEDS.items():
        if missing.intersection(needs):
            out[metric] = None
    if "kernels.rebuild" in missing:
        out = {k: v for k, v in out.items()
               if not k.startswith("kernels.rebuild.node")}
    return out


def overhead_pairs(ticks) -> list[float]:
    """Traced ÷ untraced − 1, once per untraced steady iteration: the mean
    of the traced iterations just before and just after it, over its own
    time.  Neighbours in one process share the host's slow periods, and the
    mean of both sides cancels a steady trend across the iterations."""
    traced = {i: hi - lo for lo, hi, _, i in steady_windows(ticks, traced=True)}
    out = []
    for lo, hi, _, i in steady_windows(ticks, traced=False):
        if i - 1 in traced and i + 1 in traced:
            out.append((traced[i - 1] + traced[i + 1]) / 2 / (hi - lo) - 1.0)
    return out


def median_ci95(samples: list[float]) -> tuple[float, float]:
    """Approximate 95% interval of the median: the order statistics
    ``n/2 ± 0.98·√n`` (normal approximation to the binomial)."""
    srt = sorted(samples)
    n = len(srt)
    half = 0.98 * n ** 0.5
    return (srt[max(0, math.floor(n / 2 - half))],
            srt[min(n - 1, math.ceil(n / 2 + half))])


def layer_table(spans: list[dict]) -> list[tuple[str, float]]:
    """``(span name, self seconds)`` summed per name, largest first.  With
    the remainder they add up to the job's wall time."""
    selfs = self_times(spans)
    totals: dict[str, int] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0) + selfs[s["span_id"]]
    return sorted(((k, v / 1e9) for k, v in totals.items()),
                  key=lambda kv: -kv[1])


def median_metrics(rows: list[dict]) -> dict:
    """Per-metric median over jobs; ``None`` if any job lacks the metric."""
    keys = {k for row in rows for k in row}
    out = {}
    for k in sorted(keys):
        vals = [row.get(k) for row in rows]
        out[k] = None if any(v is None for v in vals) else median(vals)
    return out
