"""Tracer overhead: the observability layer must be free when off.

Times one full memoized CP-ALS iteration on the acceptance workload
(order-4, >=1M nnz, R=16 — the same tensor as ``bench_kernels.py``, so the
disabled numbers are directly comparable to ``BENCH_kernels.json``) under
three configurations:

* ``disabled`` — tracing off, the shipped default (guards short-circuit);
* ``enabled``  — spans recorded for every iteration/MTTKRP/rebuild/kernel;
* ``enabled_profile`` — spans plus the sampling stack profiler
  (:mod:`repro.obs.profiler`) at its default 97 Hz: one
  ``sys._current_frames`` sweep per period joined to the live span
  path, i.e. what ``repro profile`` turns on.  Its budget is asserted
  against an *interleaved* sampler-off baseline measured in the same
  window — median of paired on/off iteration ratios
  (``profile.ab_overhead_pct``) — which cancels the clock drift and
  per-iteration noise of shared hosts that the sequential rows above
  inherit;
* ``enabled_memtrack`` — spans plus the memoized-value memory tracker
  (store/free events + per-iteration windows), i.e. everything
  ``repro trace`` turns on except tracemalloc sampling;
* ``enabled_health`` — spans plus the numerical-health collector
  (:mod:`repro.obs.health`): per-mode Gram conditioning (one ``R x R``
  ``eigh``), factor deltas, cross-mode congruence, and the
  fit-trajectory classifier, mirrored mode-for-mode off ``cp_als``'s
  wiring, i.e. what ``REPRO_OBS=health`` and ``repro trace`` turn on;
* ``enabled_roofline`` — spans plus a per-iteration roofline
  attribution pass (:func:`repro.obs.roofline.throughput_from_spans`
  joining every finished span so far with the model's per-node terms,
  then republishing the achieved-throughput gauges), i.e. what a live
  roofline panel costs; the pass runs *inside* the timed window;
* ``enabled_events`` — spans plus the structured event log (the
  engine's ``node_rebuild`` events and one ``iteration`` event per
  iteration), i.e. what ``REPRO_OBS=trace,events`` turns on.

Writes ``benchmarks/results/BENCH_obs_overhead.json`` (shared
``repro-bench/v1`` envelope) with per-config ms/iteration and overhead
percentages relative to ``disabled``, and appends the per-config timings
to ``benchmarks/history/history.jsonl`` for ``repro bench-diff``::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

The acceptance bar: enabled overhead < 3%, memory tracking, numerical
health, and the sampling profiler (at default
hz) < 2% each on top, disabled within timer noise of an uninstrumented
build (the guard is one switch check per call site — profiler off
means one ``None`` check in the span hooks).
"""

import json
import os
import time

import numpy as np

from repro.core.engine import MemoizedMttkrp
from repro.core.strategy import balanced_binary
from repro.linalg.solve import set_solve_site
from repro.obs import events as obs_events
from repro.obs import switch
from repro.obs.buildinfo import artifact_envelope
from repro.obs.observer import IterationRecord

ACCEPT_SHAPE = (800,) * 4
ACCEPT_NNZ = 1_200_000
ACCEPT_RANK = 16
REPEATS = 5


def _als_iteration(engine: MemoizedMttkrp) -> None:
    for n in engine.mode_order:
        engine.mttkrp(n)
        engine.update_factor(n, engine.factors[n])


def _best_iteration_seconds(engine, repeats: int, *,
                            mem_tracker=None,
                            roofline_pass=None,
                            health_collector=None,
                            health_grams=None,
                            emit_iteration_events: bool = False) -> float:
    _als_iteration(engine)  # warm: caches, arena, (when tracing) span path
    best = float("inf")
    for i in range(repeats):
        if mem_tracker is not None:
            mem_tracker.begin_iteration(i)
        if health_collector is not None:
            health_collector.begin_iteration(i)
        t0 = time.perf_counter()
        _als_iteration(engine)
        if health_collector is not None:
            # Mirror cp_als's per-mode/per-iteration observation inside
            # the timed window: solve-site contextvar + Gram conditioning
            # + factor delta per mode, then congruence + trajectory at
            # iteration close.  The Hadamard combine is charged to health
            # here even though ALS pays it anyway for the solve —
            # conservative.
            for n in engine.mode_order:
                set_solve_site(i, n)
                health_collector.observe_mode(
                    n, health_grams.combined(skip=n),
                    engine.factors[n], engine.factors[n],
                )
            set_solve_site(None, None)
            health_collector.end_iteration(IterationRecord(
                i, grams=health_grams, fit=1.0 - 0.5 ** (i + 1)
            ))
        if roofline_pass is not None:
            roofline_pass()  # part of the cost under test: stay timed
        seconds = time.perf_counter() - t0
        if mem_tracker is not None:
            mem_tracker.end_iteration(IterationRecord(i, engine=engine))
        if emit_iteration_events:
            # Mirror cp_als's per-iteration event on top of the engine's
            # own node_rebuild events.
            obs_events.emit("iteration", iteration=i, fit=0.0,
                            seconds=seconds)
        best = min(best, seconds)
    return best


def run_overhead_bench(repeats: int = REPEATS) -> dict:
    from repro.synth.skewed import skewed_random_tensor

    tensor = skewed_random_tensor(ACCEPT_SHAPE, ACCEPT_NNZ, 1.1,
                                  random_state=0)
    rng = np.random.default_rng(42)
    factors = [rng.standard_normal((d, ACCEPT_RANK)) for d in tensor.shape]
    engine = MemoizedMttkrp(
        tensor, balanced_binary(4), [f.copy() for f in factors]
    )

    switch.disable("trace")
    disabled = _best_iteration_seconds(engine, repeats)

    switch.enable("trace", clear=True)
    enabled = _best_iteration_seconds(engine, repeats)
    span_count = len(switch.get("trace"))

    # Sampling profiler, measured as an interleaved A/B: alternate
    # sampler-off / sampler-on iterations inside one window so the
    # minutes-scale clock drift of shared hosts cancels out of the
    # comparison instead of landing on whichever config ran last (the
    # shared ``disabled`` baseline above is minutes stale by now).
    switch.get("trace").clear()
    _als_iteration(engine)  # warm
    switch.enable("profile", clear=True)  # default 97 Hz; warm sampler path
    _als_iteration(engine)
    switch.disable("profile")
    profile_base = float("inf")
    with_profile = float("inf")
    profile_ratios = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _als_iteration(engine)
        off = time.perf_counter() - t0
        switch.enable("profile")
        t0 = time.perf_counter()
        _als_iteration(engine)
        on = time.perf_counter() - t0
        switch.disable("profile")
        profile_base = min(profile_base, off)
        with_profile = min(with_profile, on)
        profile_ratios.append(on / off)
    profile_samples = switch.get("profile").n_samples
    profile_hz = switch.get("profile").hz
    # Median of the paired ratios: per-iteration noise on shared hosts
    # runs +-15%, which a best-of ratio amplifies (the two minima land
    # on different noise excursions) while the paired median averages
    # away.
    profile_ab_pct = (float(np.median(profile_ratios)) - 1.0) * 100.0

    switch.get("trace").clear()
    switch.enable("mem", clear=True)
    tracker = switch.get("mem")
    with_memtrack = _best_iteration_seconds(
        engine, repeats, mem_tracker=tracker
    )
    mem_peak = tracker.peak_bytes
    mem_events = tracker.n_stores + tracker.n_frees
    switch.disable("mem")
    tracker.reset()

    # Re-measure the disabled baseline mid-run: on drifting shared hosts
    # the start-of-run baseline is minutes stale by the time the later
    # configs measure, and a 2% budget is not resolvable against it.
    # The health/roofline budgets below assert against this
    # adjacent re-measurement; both baselines are reported so the drift
    # itself is visible in the artifact.
    switch.disable("trace")
    disabled_recheck = _best_iteration_seconds(engine, repeats)
    switch.enable("trace", clear=True)

    from repro.linalg.gram import GramCache

    switch.get("trace").clear()
    switch.enable("health", clear=True)
    health_collector = switch.get("health")
    health_collector.start_run(n_modes=len(ACCEPT_SHAPE))
    with_health = _best_iteration_seconds(
        engine, repeats, health_collector=health_collector,
        health_grams=GramCache(engine.factors),
    )
    health_readings = len(health_collector.readings)
    health_trajectory = (
        health_collector.readings[-1].trajectory if health_readings
        else None
    )
    switch.disable("health")
    health_collector.reset()

    from repro.obs.roofline import (publish_roofline_gauges,
                                    throughput_from_spans, tree_node_terms)

    switch.get("trace").clear()
    node_terms = tree_node_terms(
        engine.strategy, engine.symbolic.node_nnz(), ACCEPT_RANK
    )
    tracer = switch.get("trace")

    def _roofline_pass() -> None:
        publish_roofline_gauges(None, throughput_from_spans(
            tracer.finished(), node_terms=node_terms,
        ))

    with_roofline = _best_iteration_seconds(
        engine, repeats, roofline_pass=_roofline_pass
    )
    roofline_configs = len(throughput_from_spans(
        tracer.finished(), node_terms=node_terms,
    ))

    switch.get("trace").clear()
    switch.enable("events", clear=True)
    with_events = _best_iteration_seconds(
        engine, repeats, emit_iteration_events=True
    )
    n_events = len(switch.get("events"))
    switch.disable("events")
    switch.get("events").clear()
    switch.disable("trace")
    switch.get("trace").clear()

    def pct(seconds: float) -> float:
        return (seconds / disabled - 1.0) * 100.0

    return {
        "workload": {
            "shape": list(ACCEPT_SHAPE),
            "nnz": int(tensor.nnz),
            "rank": ACCEPT_RANK,
            "strategy": "balanced_binary",
            "skew": 1.1,
            "repeats": repeats,
        },
        "runs": {
            "disabled": {"seconds_per_iteration": disabled,
                         "overhead_pct": 0.0},
            "enabled": {"seconds_per_iteration": enabled,
                        "overhead_pct": pct(enabled)},
            "enabled_profile": {
                "seconds_per_iteration": with_profile,
                "overhead_pct": pct(with_profile),
            },
            "enabled_memtrack": {
                "seconds_per_iteration": with_memtrack,
                "overhead_pct": pct(with_memtrack),
            },
            "disabled_recheck": {
                "seconds_per_iteration": disabled_recheck,
                "overhead_pct": pct(disabled_recheck),
            },
            "enabled_health": {
                "seconds_per_iteration": with_health,
                "overhead_pct": pct(with_health),
            },
            "enabled_roofline": {
                "seconds_per_iteration": with_roofline,
                "overhead_pct": pct(with_roofline),
            },
            "enabled_events": {
                "seconds_per_iteration": with_events,
                "overhead_pct": pct(with_events),
            },
        },
        "spans_per_measured_block": span_count,
        "memtrack": {"peak_bytes": mem_peak, "events": mem_events},
        "health": {"readings": health_readings,
                   "final_trajectory": health_trajectory},
        "roofline": {"configs": roofline_configs},
        "profile": {"samples": profile_samples, "hz": profile_hz,
                    "ab_baseline_seconds": profile_base,
                    "ab_overhead_pct": profile_ab_pct},
        "events_logged": n_events,
    }


def main() -> None:
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    # Best-of-N needs enough samples to resolve the ~2% budgets on noisy
    # (virtualized, single-core) hosts; bump via REPRO_BENCH_REPEATS.
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", REPEATS))
    print(f"tracer overhead: shape={ACCEPT_SHAPE} nnz~{ACCEPT_NNZ} "
          f"rank={ACCEPT_RANK} repeats={repeats}")
    report = run_overhead_bench(repeats)
    base = os.path.join(results_dir, "BENCH_obs_overhead")
    with open(base + ".json", "w") as fh:
        json.dump(artifact_envelope("BENCH_obs_overhead", report), fh,
                  indent=2)
        fh.write("\n")
    lines = [f"{'config':<22s} {'ms/iter':>9s} {'overhead':>9s}"]
    for name, run in report["runs"].items():
        lines.append(
            f"{name:<22s} {run['seconds_per_iteration'] * 1e3:9.1f} "
            f"{run['overhead_pct']:8.2f}%"
        )
    with open(base + ".txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {base}.json")
    recheck = report["runs"]["disabled_recheck"]["seconds_per_iteration"]
    profile_ab = report["profile"]["ab_overhead_pct"]
    assert profile_ab < 2.0, (
        f"sampling profiler costs {profile_ab:.2f}% over the interleaved "
        f"tracing baseline at {report['profile']['hz']:g} Hz, exceeding "
        f"the 2% budget"
    )
    assert report["profile"]["samples"] > 0, (
        "profiler collected no samples across the profiled iterations"
    )
    health = report["runs"]["enabled_health"]
    health_cost = (health["seconds_per_iteration"] / recheck - 1.0) * 100.0
    assert health_cost < 2.0, (
        f"numerical-health collection costs {health_cost:.2f}% (vs the "
        f"adjacent re-measured baseline), exceeding the 2% budget"
    )
    assert report["health"]["readings"] >= 1, (
        "health collector produced no readings on an enabled run"
    )
    roofline = report["runs"]["enabled_roofline"]
    roofline_cost = (roofline["seconds_per_iteration"] / recheck
                     - 1.0) * 100.0
    assert roofline_cost < 2.0, (
        f"roofline attribution pass costs {roofline_cost:.2f}% (vs the "
        f"adjacent re-measured baseline), exceeding the 2% budget"
    )
    assert report["roofline"]["configs"] >= 1, (
        "roofline pass attributed no kernel configs on a traced run"
    )
    if not os.environ.get("REPRO_BENCH_NO_HISTORY"):
        from repro.obs.history import BenchHistory

        history = BenchHistory(
            os.path.join(os.path.dirname(__file__), "history",
                         "history.jsonl")
        )
        for name, run in report["runs"].items():
            history.record(f"obs_overhead.{name}.seconds_per_iteration",
                           run["seconds_per_iteration"])
        print(f"recorded {len(report['runs'])} timings into {history.path}")


if __name__ == "__main__":
    main()
