"""Command-line interface: decompose / plan / inspect tensors.

Usage::

    python -m repro decompose data.tns --rank 16 --out factors.npz
    python -m repro plan data.tns --rank 16 --top 8
    python -m repro info delicious --scale 0.2
    python -m repro datasets
    python -m repro trace --trace-dir out/ decompose data.tns --rank 16
    python -m repro profile --trace-dir out/ decompose data.tns --rank 16
    python -m repro report out/trace.jsonl
    python -m repro tail out/events.jsonl

Tensor inputs are ``.tns``/``.tns.gz`` (FROSTT), ``.npz`` (this library's
cache format), or a registry dataset name (generated on the fly; use
``--scale``).

``repro trace <command> ...`` runs any other subcommand with the span
tracer, memory tracker, and metrics registry enabled and writes
``trace.chrome.json`` (Chrome ``trace_event`` format — load in
``chrome://tracing`` or Perfetto, with a live-bytes counter track),
``trace.jsonl``, ``memory.json``, ``metrics.json``, and a text summary;
``repro profile <command>`` (or ``repro trace --profile``) additionally
runs the sampling stack profiler and writes ``profile.json`` +
``profile.folded`` (span-joined flamegraph data; see
``docs/observability.md``).  ``repro report`` pretty-prints a saved
JSONL trace (including per-worker pool utilization when the trace has
``pool_task`` spans, and the profiler's top-hotspots table when one was
recorded).  ``repro tail`` renders an ``events.jsonl`` structured
event log.  ``repro bench-diff`` compares benchmark history entries
against the stored baseline with the noise-aware comparator (see
``docs/benchmarking.md``) and exits non-zero on regression.
``--log-level`` controls the ``repro.*`` loggers (artifact loading,
benchmark history and the profiler log there), and ``--version`` prints
build info (version, git revision, toolchain).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from .core.coo import CooTensor


def load_input(path_or_name: str, scale: float = 1.0) -> CooTensor:
    """Resolve a CLI tensor argument to a CooTensor."""
    lower = path_or_name.lower()
    if lower.endswith((".tns", ".tns.gz")):
        from .io.frostt import read_tns

        return read_tns(path_or_name)
    if lower.endswith(".npz"):
        from .io.cache import load_npz

        return load_npz(path_or_name)
    from .synth.datasets import dataset_names, load_dataset

    if path_or_name in dataset_names():
        return load_dataset(path_or_name, scale=scale)
    if os.path.exists(path_or_name):
        raise ValueError(
            f"unrecognized tensor file extension: {path_or_name!r} "
            "(expected .tns, .tns.gz, or .npz)"
        )
    raise ValueError(
        f"{path_or_name!r} is neither an existing file nor a registry "
        f"dataset; datasets: {', '.join(dataset_names())}"
    )


def _save_model(model, path: str) -> None:
    from .io.model import save_model

    save_model(model, path)


def cmd_info(args) -> int:
    tensor = load_input(args.input, args.scale)
    print(tensor)
    print(f"  shape      : {tensor.shape}")
    print(f"  nnz        : {tensor.nnz:,}")
    print(f"  density    : {tensor.density:.3e}")
    print(f"  fro norm   : {tensor.norm():.6g}")
    print(f"  memory     : {tensor.nbytes() / 1e6:.2f} MB (COO)")
    from .core.stats import mode_skew, pairwise_overlap

    for n in range(tensor.ndim):
        used = int((tensor.slice_nnz(n) > 0).sum())
        skew = mode_skew(tensor, n)
        print(f"  mode {n}: size {tensor.shape[n]:>8,}  used slices "
              f"{used:,}  skew {skew:.2f}")
    if tensor.ndim >= 2 and tensor.nnz:
        overlaps = pairwise_overlap(tensor)
        best_pair = max(overlaps, key=overlaps.get)
        print(f"  max pairwise overlap: {overlaps[best_pair]:.2f} "
              f"(modes {best_pair[0]},{best_pair[1]})")
    return 0


def cmd_datasets(args) -> int:
    from .model.report import format_table
    from .synth.datasets import dataset_names, get_spec

    rows = []
    for name in dataset_names():
        spec = get_spec(name)
        rows.append([
            name,
            spec.order,
            "x".join(map(str, spec.shape)),
            spec.nnz,
            spec.analog_of or "synthetic",
        ])
    print(format_table(
        ["name", "order", "shape (scale=1)", "nnz", "analog of"], rows
    ))
    return 0


def cmd_plan(args) -> int:
    from .model.calibrate import calibrate_machine
    from .model.planner import plan

    tensor = load_input(args.input, args.scale)
    machine = calibrate_machine() if args.calibrate else None
    if args.explain or args.json:
        from .obs.explain import explain_plan

        expl = explain_plan(
            tensor, args.rank, memory_budget=args.memory_budget,
            machine=machine,
        )
        if args.json:
            import json as _json

            print(_json.dumps(
                expl.to_artifact(input=args.input, scale=args.scale),
                indent=2,
            ))
        else:
            print(expl.summary(top=args.top))
        return 0
    report = plan(
        tensor, args.rank, memory_budget=args.memory_budget, machine=machine
    )
    print(report.summary(top=args.top))
    best = report.best
    print(f"\nselected: {best.strategy.name}  "
          f"spec={best.strategy.to_nested()}")
    return 0


def cmd_explain(args) -> int:
    from .model.calibrate import calibrate_machine
    from .obs.explain import explain_plan, validate_plan_artifact

    tensor = load_input(args.input, args.scale)
    machine = calibrate_machine() if args.calibrate else None
    expl = explain_plan(
        tensor, args.rank, memory_budget=args.memory_budget, machine=machine,
    )
    measured = None
    if args.measure:
        from .core.cpals import cp_als
        from .obs import switch
        from .obs.attribution import attribution_from_spans

        with switch.enabled("trace") as on:
            cp_als(
                tensor, args.rank, strategy=expl.report.best.strategy,
                n_iter_max=args.iters, tol=0.0, random_state=args.seed,
            )
        measured = attribution_from_spans(on["trace"].finished())
    artifact = expl.to_artifact(input=args.input, scale=args.scale)
    if measured is not None:
        artifact["result"]["measured"] = measured
    validate_plan_artifact(artifact)
    import json as _json

    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(artifact, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(_json.dumps(artifact, indent=2))
        return 0
    print(expl.summary(top=args.top))
    if measured is not None:
        from .obs.attribution import format_attribution

        rendered = format_attribution(measured)
        if rendered:
            print()
            print(rendered)
    if args.out:
        print(f"\nwrote {args.out}")
    return 0


def cmd_decompose(args) -> int:
    from .core.cpals import cp_als
    from .core.validate import check_positive_int

    if args.workers is not None:
        check_positive_int(args.workers, "--workers")
    if args.min_chunk_rows is not None:
        check_positive_int(args.min_chunk_rows, "--min-chunk-rows")
    tensor = load_input(args.input, args.scale)
    closeables: list = []
    engine_factory = None
    if args.workers is not None and args.workers > 1:
        # Parallel memoized engine: resolve 'auto' through the planner
        # here, since engine_factory bypasses cp_als's own planning path.
        def engine_factory(t, _w=args.workers):
            from .parallel.engine import ParallelMemoizedMttkrp

            strategy = args.strategy
            if isinstance(strategy, str) and strategy.lower() == "auto":
                from .model.planner import plan

                strategy = plan(t, args.rank).best.strategy
            engine = ParallelMemoizedMttkrp(
                t, strategy, n_workers=_w,
                min_chunk_rows=args.min_chunk_rows,
            )
            closeables.append(engine)
            return engine

    try:
        result = cp_als(
            tensor, args.rank, strategy=args.strategy,
            n_iter_max=args.iters, tol=args.tol, random_state=args.seed,
            engine_factory=engine_factory,
        )
    finally:
        for engine in closeables:
            engine.close()
    print(f"strategy   : {result.strategy_name}")
    print(f"iterations : {result.n_iterations} (converged={result.converged})")
    print(f"fit        : {result.fit:.6f}")
    if args.out:
        _save_model(result.ktensor, args.out)
        print(f"model written to {args.out}")
    return 0


def cmd_trace(args) -> int:
    from .obs import events as obs_events
    from .obs import health as obs_health
    from .obs import profiler as obs_profiler
    from .obs import switch
    from .obs.buildinfo import build_info
    from .obs.export import (kind_table, tree_summary, write_chrome_trace,
                             write_jsonl)
    from .obs.metrics import registry
    from .perf import counters as perf_counters

    verb = getattr(args, "verb", "trace")
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest.pop(0)
    if not rest:
        raise ValueError(
            f"{verb}: missing command to run, e.g. "
            f"'repro {verb} decompose data.tns --rank 16'"
        )
    if rest[0] in ("trace", "profile", "report", "bench-diff", "tail"):
        raise ValueError(f"{verb}: cannot {verb} the {rest[0]!r} command")
    inner = build_parser().parse_args(rest)
    os.makedirs(args.trace_dir, exist_ok=True)

    spec = "all,mem=tracemalloc"
    profile_on = (bool(getattr(args, "profile", False))
                  or "profile" in switch.active())
    if profile_on:
        spec += f",profile={getattr(args, 'profile_hz', None) or ''}"
    registry.reset()
    t0 = time.perf_counter()
    # One run id for the events and every artifact written below.
    with switch.enabled(spec) as on, \
            perf_counters.counting(registry.counters), \
            obs_events.running() as run_id:
        rc = inner.fn(inner)
    elapsed = time.perf_counter() - t0

    spans = on["trace"].finished()
    mem = on["mem"]
    chrome_path = os.path.join(args.trace_dir, "trace.chrome.json")
    jsonl_path = os.path.join(args.trace_dir, "trace.jsonl")
    summary_path = os.path.join(args.trace_dir, "trace_summary.txt")
    metrics_path = os.path.join(args.trace_dir, "metrics.json")
    memory_path = os.path.join(args.trace_dir, "memory.json")
    events_path = os.path.join(args.trace_dir, "events.jsonl")
    write_chrome_trace(chrome_path, spans, mem_samples=mem.samples)
    write_jsonl(jsonl_path, spans)
    on["events"].write_jsonl(events_path)
    with open(summary_path, "w") as fh:
        fh.write(tree_summary(spans) + "\n\n" + kind_table(spans) + "\n")
    import json as _json

    with open(metrics_path, "w") as fh:
        _json.dump(
            {"build": build_info(), "wall_seconds": elapsed,
             "run_id": run_id,
             "metrics": registry.snapshot()},
            fh, indent=2,
        )
        fh.write("\n")
    with open(memory_path, "w") as fh:
        _json.dump(mem.snapshot(), fh, indent=2)
        fh.write("\n")
    health_collector = on["health"]
    health_path = None
    if health_collector.has_data:
        health_path = obs_health.write_health(
            args.trace_dir, run_id=run_id,
        )
    # Snapshot the host calibration (load-only, never measures) so the
    # trace dir is self-contained for later roofline attribution.
    from .model.calibrate import load_roofline, machine_artifact

    roofline = load_roofline()
    if roofline is not None:
        with open(os.path.join(args.trace_dir, "machine.json"), "w") as fh:
            _json.dump(machine_artifact(roofline), fh, indent=2)
            fh.write("\n")
    profile_path = None
    profile_doc = None
    if profile_on:
        snapshot = on["profile"].snapshot()
        profile_doc = obs_profiler.profile_artifact(
            snapshot, run_id=run_id, command=rest[0],
            duration_seconds=elapsed,
        )
        profile_path, _folded = obs_profiler.write_profile(
            args.trace_dir, snapshot, run_id=run_id,
            command=rest[0], duration_seconds=elapsed,
        )

    print(f"\n-- traced {len(spans)} spans in {elapsed:.2f}s "
          f"({run_id})")
    print(kind_table(spans))
    if mem.readings:
        last = mem.readings[-1]
        print(f"\nmemory: peak memoized values {mem.peak_bytes:,} B "
              f"(predicted {last.predicted_peak_bytes:,} B, "
              f"{len(mem.readings)} iteration readings)")
    if health_path is not None:
        last = health_collector.readings[-1]
        import math as _math

        max_cond = last.max_condition_number
        print(f"\nhealth: {len(health_collector.readings)} iteration "
              f"readings, final trajectory {last.trajectory!r}, "
              f"max κ(H) "
              + (f"{max_cond:.3e}" if _math.isfinite(max_cond)
                 else "singular")
              + f", congruence {last.congruence:.4f}, "
              f"{health_collector.total_pinv_fallbacks} pinv fallbacks")
    if profile_doc is not None:
        print(f"\nprofile: {profile_doc['n_samples']} samples @ "
              f"{profile_doc['hz']:g} Hz "
              f"({profile_doc['sampled_seconds']:.2f}s sampled, lanes: "
              f"{', '.join(profile_doc['lanes']) or 'none'})")
        hot = obs_profiler.format_hotspots(profile_doc, top=5)
        if hot != "(no samples)":
            print(hot)
    print(f"\nwrote {chrome_path} (open in chrome://tracing or "
          f"https://ui.perfetto.dev), {jsonl_path}, {memory_path}, "
          f"{metrics_path}, {events_path}"
          + (f", {health_path}" if health_path else "")
          + (f", {profile_path} (+ profile.folded for flamegraph.pl/"
             "speedscope)" if profile_path else ""))
    return rc


def cmd_profile(args) -> int:
    """``repro profile <cmd>``: ``repro trace`` with the sampler forced on."""
    args.profile = True
    args.verb = "profile"
    return cmd_trace(args)


def cmd_report(args) -> int:
    from .obs.artifacts import TraceArtifacts
    from .obs.events import format_event
    from .obs.export import kind_table, read_jsonl, tree_summary
    from .obs.utilization import format_utilization, utilization_from_spans

    path = args.trace
    if os.path.isdir(path):
        path = os.path.join(path, "trace.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no trace file at {path!r} (run "
                                "'repro trace <command>' first)")
    trace_dir = os.path.dirname(path) or "."
    arts = TraceArtifacts(trace_dir)
    spans = read_jsonl(path)
    print(f"{len(spans)} spans from {path}\n")
    print(kind_table(spans))
    print()
    print(tree_summary(spans, max_children=args.max_children))
    util = utilization_from_spans(spans)
    if util is not None:
        print()
        print(format_utilization(util))
    events = arts.events()
    if events is not None:
        print(f"\n{len(events)} events from {arts.path('events')} (last 5):")
        for event in events[-5:]:
            print("  " + format_event(event))
    metrics_doc = arts.metrics()
    if metrics_doc is not None:
        counters = metrics_doc.get("metrics", {}).get("counters", {})
        gauges = metrics_doc.get("metrics", {}).get("gauges", {})
        if counters:
            print("\ncounters: " + ", ".join(
                f"{k}={v:,}" for k, v in counters.items()
            ))
        if gauges:
            print("gauges  : " + ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(gauges.items())
            ))
    from .obs.attribution import attribution_from_spans, format_attribution

    doc = attribution_from_spans(spans)
    if doc is not None:
        print()
        print(format_attribution(doc))
    # One-line achieved-throughput summary; trace dirs recorded before
    # calibration existed simply report "uncalibrated".
    from .obs.roofline import report_from_trace_dir, report_line

    print()
    print(report_line(report_from_trace_dir(trace_dir)))
    # Top hotspots from the sampling profiler, when the run recorded one;
    # pre-profiler trace dirs degrade to an explicit note, not an error.
    from .obs.profiler import format_hotspots

    profile_doc = arts.profile()
    if profile_doc is not None:
        print(f"\nsampling profile: {profile_doc.get('n_samples', 0)} "
              f"samples @ {profile_doc.get('hz', 0):g} Hz — top hotspots:")
        print(format_hotspots(profile_doc))
    else:
        print("\nno profile captured (run 'repro profile <cmd>' or "
              "'repro trace --profile' to record one)")
    # Numerical-health section; pre-health trace dirs degrade to an
    # explicit note rather than an error.
    from .obs.health import format_health

    health_doc = arts.health()
    if health_doc is not None:
        print(f"\nnumerical health from {arts.path('health')}:")
        print(format_health(health_doc))
    else:
        print("\nno numerical-health readings (pre-health trace dir; "
              "re-run 'repro trace <cmd>' or set REPRO_OBS=health to "
              "record them)")
    for filename, reason in arts.skipped:
        print(f"warning: skipped malformed {filename}: {reason}",
              file=sys.stderr)
    return 0


def cmd_roofline(args) -> int:
    from .model.calibrate import calibrate_roofline, default_machine_path
    from .obs.roofline import (publish_roofline_gauges, report_from_trace_dir,
                               roofline_report)

    path = args.out or default_machine_path()
    roofline = calibrate_roofline(
        force=args.force, quick=args.quick, path=path,
        max_threads=args.max_threads,
    )
    if args.trace_dir:
        report = report_from_trace_dir(args.trace_dir, roofline)
    else:
        report = roofline_report([], roofline)
    publish_roofline_gauges(report.roofline, report.configs)
    if args.json:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        print(f"\nmachine artifact: {path}")
    return 0


def cmd_bench_diff(args) -> int:
    from .obs.history import BenchHistory, compare, format_diff_table

    history = BenchHistory(args.history).entries()
    if args.current:
        current = BenchHistory(args.current).entries()
    else:
        # No separate run file: the newest run recorded in the history
        # itself is the "current" run, everything before it the baseline.
        if not history:
            print(f"error: no benchmark history at {args.history} — run a "
                  "benchmark first (e.g. 'python benchmarks/"
                  "bench_kernels.py') or pass --history",
                  file=sys.stderr)
            return 2
        last_run = history[-1].run_id
        current = [e for e in history if e.run_id == last_run]
    if not current:
        print("error: no current entries to compare", file=sys.stderr)
        return 2
    results = compare(current, history, rel_band=args.band, k=args.k)
    if args.json:
        import json as _json

        print(_json.dumps([r.to_dict() for r in results], indent=2))
    else:
        print(format_diff_table(results))
    return 1 if any(r.status == "regression" for r in results) else 0


def cmd_tail(args) -> int:
    from .obs.events import format_event, read_events, validate_events

    if args.n is not None and args.n < 0:
        raise ValueError(f"-n must be >= 0, got {args.n}")
    path = args.events
    if os.path.isdir(path):
        path = os.path.join(path, "events.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no event log at {path!r} (run under "
                                "'repro trace', or set "
                                "REPRO_OBS=events=<sink path>)")
    events = read_events(path)
    problems = validate_events(events)
    start = 0 if args.n is None else max(len(events) - args.n, 0)
    shown = events[start:]
    for event in shown:
        print(format_event(event))
    if problems:
        print(f"warning: {len(problems)} schema problems "
              f"(first: {problems[0]})", file=sys.stderr)
    if not args.follow:
        return 1 if problems else 0
    # Follow mode: poll for appended lines (the sink flushes per event).
    with open(path) as fh:
        fh.seek(0, os.SEEK_END)
        try:
            while True:
                line = fh.readline()
                if not line:
                    time.sleep(args.interval)
                    continue
                line = line.strip()
                if line:
                    import json as _json

                    print(format_event(_json.loads(line)), flush=True)
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    from .obs.buildinfo import version_string

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=version_string())
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="configure the 'repro' loggers (default: leave logging as-is)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="tensor file or registry dataset name")
        p.add_argument("--scale", type=float, default=1.0,
                       help="scale for registry datasets")

    p = sub.add_parser("info", help="print tensor statistics")
    add_input(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("datasets", help="list registry datasets")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("plan", help="rank memoization strategies")
    add_input(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--memory-budget", type=int, default=None,
                   help="cap on memoization memory (bytes)")
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--calibrate", action="store_true",
                   help="micro-benchmark this machine first")
    p.add_argument("--json", action="store_true",
                   help="machine-readable repro-plan/v1 artifact in the "
                   "repro-bench/v1 envelope")
    p.add_argument("--explain", action="store_true",
                   help="full decision trace: margins, dominant cost "
                   "terms, the winner's per-node predicted costs")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "explain",
        help="explain a plan: full candidate search + per-node costs",
        description="Run the planner and keep the whole decision trace: "
        "every candidate with its tree shape, per-node and per-mode "
        "predicted flop/word/byte terms, the winner's margin over each "
        "runner-up and which cost term dominates it.  --measure then runs "
        "CP-ALS on the winner under the span tracer and appends the "
        "measured per-node and per-mode wall time.  --json emits the "
        "repro-plan/v1 artifact in the shared repro-bench/v1 envelope.",
    )
    add_input(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--memory-budget", type=int, default=None,
                   help="cap on memoization memory (bytes)")
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--calibrate", action="store_true",
                   help="micro-benchmark this machine first")
    p.add_argument("--measure", action="store_true",
                   help="run CP-ALS on the winner and attach its measured "
                   "per-node and per-mode time")
    p.add_argument("--iters", type=int, default=3,
                   help="iterations for --measure (default: 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the artifact JSON instead of tables")
    p.add_argument("--out", default=None,
                   help="also write the artifact JSON to this path")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("decompose", help="CP-ALS")
    add_input(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="run CP-ALS on the parallel engine with this many "
                   "pool workers (default: sequential engine)")
    p.add_argument("--min-chunk-rows", type=int, default=None,
                   help="parallel-engine chunking threshold override "
                   "(lower it to force pool fan-out on small tensors)")
    p.add_argument("--out", default=None, help="write factors to .npz")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser(
        "trace", help="run another subcommand with tracing enabled",
        description="Run any other repro subcommand with the span tracer "
        "and metrics registry enabled, then export the trace (Chrome "
        "trace_event JSON + JSONL + text summary + metrics snapshot).",
    )
    p.add_argument("--trace-dir", default="repro-trace",
                   help="directory for trace artifacts (default: "
                   "./repro-trace)")
    p.add_argument("--profile", action="store_true",
                   help="also run the sampling stack profiler and write "
                   "profile.json + profile.folded")
    p.add_argument("--profile-hz", type=float, default=None,
                   help="sampling rate for --profile (default: 97)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="the command to trace, e.g. 'decompose data.tns "
                   "--rank 16'")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run another subcommand under the sampling stack profiler",
        description="'repro trace' with the wall-clock sampling profiler "
        "forced on: runs the wrapped subcommand with every instrument "
        "enabled, then writes the usual trace artifacts plus "
        "profile.json (repro-profile/v1: folded stacks joined to the "
        "span tree, per-span sampled seconds) and profile.folded "
        "(collapsed-stack text for flamegraph.pl / speedscope).  Worker "
        "threads appear as worker-<n> lanes under their pool_task "
        "spans.",
    )
    p.add_argument("--trace-dir", default="repro-trace",
                   help="directory for trace + profile artifacts "
                   "(default: ./repro-trace)")
    p.add_argument("--hz", type=float, default=None, dest="profile_hz",
                   help="sampling rate (default: 97; raise for short runs, "
                   "lower for long ones)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="the command to profile, e.g. 'decompose data.tns "
                   "--rank 16'")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "tail",
        help="render an events.jsonl log as human-readable lines",
        description="Pretty-print a structured event log "
        "(repro-events/v1): one line per event with timestamp, kind, and "
        "fields.  --follow polls for appended events (the sink flushes "
        "per event, so a live run streams).  Exits 1 when the log has "
        "schema problems.",
    )
    p.add_argument("events",
                   help="events.jsonl file (or a trace directory)")
    p.add_argument("-n", type=int, default=None,
                   help="only show the last N events")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep polling for appended events (Ctrl-C stops)")
    p.add_argument("--interval", type=float, default=0.5,
                   help="poll interval for --follow (default: 0.5s)")
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser(
        "bench-diff",
        help="compare benchmark history against the stored baseline",
        description="Noise-aware benchmark regression check: per bench id "
        "the current value (min over the run's samples) is compared to the "
        "min of the last k matching baseline entries; a regression is "
        "flagged only outside the relative band.  Exit code 1 on "
        "regression (CI runs this soft-fail).  See docs/benchmarking.md.",
    )
    p.add_argument("current", nargs="?", default=None,
                   help="JSONL file with the current run's entries "
                   "(default: the newest run inside --history)")
    p.add_argument("--history",
                   default=os.path.join("benchmarks", "history",
                                        "history.jsonl"),
                   help="baseline history JSONL (default: "
                   "benchmarks/history/history.jsonl)")
    p.add_argument("--band", type=float, default=0.10,
                   help="relative tolerance band (default: 0.10 = ±10%%)")
    p.add_argument("--k", type=int, default=5,
                   help="baseline = min of the last k matching entries")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(fn=cmd_bench_diff)

    p = sub.add_parser("report", help="summarize a saved JSONL trace")
    p.add_argument("trace", help="trace.jsonl file (or the trace directory)")
    p.add_argument("--max-children", type=int, default=12,
                   help="sibling spans shown per node before eliding")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "roofline",
        help="measure machine ceilings / attribute achieved throughput",
        description="STREAM-style bandwidth saturation curve + dense "
        "compute ceiling, cached as a repro-machine/v1 artifact that "
        "'repro plan' prices bandwidth scaling from.  With --trace-dir, "
        "joins a saved trace's kernel spans with the cost model's "
        "flop/byte terms to report achieved GB/s and GFLOP/s per kernel "
        "config as roofline fractions.",
    )
    p.add_argument("--quick", action="store_true",
                   help="small measurement sizes (CI smoke; still a valid "
                   "artifact)")
    p.add_argument("--force", action="store_true",
                   help="re-measure even when a cached artifact exists")
    p.add_argument("--max-threads", type=int, default=None,
                   help="cap the bandwidth curve's thread counts")
    p.add_argument("--trace-dir", default=None,
                   help="a 'repro trace' output directory to attribute")
    p.add_argument("--out", default=None,
                   help="artifact path (default: $REPRO_MACHINE or "
                   "~/.cache/repro/repro-machine-v1.json)")
    p.add_argument("--json", action="store_true",
                   help="print the repro-roofline/v1 report as JSON")
    p.set_defaults(fn=cmd_roofline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(
            getattr(logging, args.log_level.upper())
        )
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
