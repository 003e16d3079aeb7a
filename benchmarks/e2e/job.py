"""One benchmark job, run in a fresh process as a user's run would be.

Reads a ``.tns`` input with ``repro.cli.load_input``, fits it with
``cp_als`` (or ``cp_als_restarts``), and writes the model with
``repro.io.model.save_model``.  The runner starts it as::

    python3 job.py '<spec as JSON>'

with ``PYTHONPATH`` pointing at the repository's ``src``.  The spec names
the input, the work directory, the decomposition parameters, the runner's
``time.monotonic_ns()`` just before the spawn, and whether to trace.  The
job writes ``result.json`` (timestamps of import, load, every iteration
callback and the saved model; fits; ``ru_maxrss``) and, when traced,
``spans.jsonl`` plus the operation counts at every callback.

A traced job runs iteration 0 of each model, every even iteration, and
everything outside the iterations with probes and operation counting on;
odd iterations run with both off, inside a ``trace.off`` span.  Each tick
is ``(model, iteration, t_ns, traced)``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import ExitStack, nullcontext


def main(argv: list[str]) -> int:
    t_main = time.monotonic_ns()
    spec = json.loads(argv[1])
    recorder = None
    if spec["trace"]:
        import probes

        recorder = probes.Recorder(spec["run_id"])
        recorder.record("interpreter.start", spec["t_spawn_ns"], t_main)

    def span(name):
        return recorder.span(name) if recorder is not None else nullcontext()

    with span("import"):
        import repro.algos.restarts
        import repro.cli
        import repro.core.cpals
        import repro.io.model
        from repro.perf import counters as perf
    t_imported = time.monotonic_ns()

    ticks: list[tuple[int, int, int, bool]] = []
    snapshots: list[dict] = []
    counters = perf.Counters()
    counting = ExitStack()
    traced = recorder is not None
    off_since = 0
    missing = []
    if traced:
        missing = recorder.install()
        counting.enter_context(perf.counting(counters))

    def set_traced(on: bool, now: int) -> None:
        nonlocal traced, off_since
        if on == traced:
            return
        recorder.set_enabled(on)
        if on:
            counting.enter_context(perf.counting(counters))
            recorder.record("trace.off", off_since, now,
                            parent_id=recorder.current())
        else:
            counting.close()
            off_since = now
        traced = on

    tensor = repro.cli.load_input(spec["tns"])
    t_loaded = time.monotonic_ns()

    def callback(iteration, fit, model):
        now = time.monotonic_ns()
        model_index = ticks[-1][0] + (iteration == 0) if ticks else 0
        ticks.append((model_index, iteration, now, traced))
        if recorder is not None:
            snapshots.append(counters.snapshot())
            # On for the next model's iteration 0, which holds its set-up.
            following = iteration + 1
            set_traced(following % 2 == 0 or following == spec["iters"], now)
        return False

    options = dict(n_iter_max=spec["iters"], tol=0.0,
                   random_state=spec["seed"], callback=callback)
    fit_span = ("algos.restarts.cp_als_restarts" if spec["restarts"]
                else "core.cpals.cp_als")
    with span(fit_span):
        if spec["restarts"]:
            result = repro.algos.restarts.cp_als_restarts(
                tensor, spec["rank"], spec["restarts"], **options).best
        else:
            result = repro.core.cpals.cp_als(tensor, spec["rank"], **options)
        if recorder is not None:
            set_traced(True, time.monotonic_ns())
    counting.close()

    repro.io.model.save_model(
        result.ktensor, os.path.join(spec["workdir"], "model.npz"))
    t_saved = time.monotonic_ns()

    record = {
        "t_spawn_ns": spec["t_spawn_ns"], "t_main_ns": t_main,
        "t_imported_ns": t_imported, "t_loaded_ns": t_loaded,
        "t_saved_ns": t_saved, "ticks": ticks, "counters": snapshots,
        "fit_span": fit_span,
        "fit": float(result.fit), "strategy": result.strategy_name,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing": missing,
    }
    if recorder is not None:
        recorder.write(os.path.join(spec["workdir"], "spans.jsonl"))
    with open(os.path.join(spec["workdir"], "result.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
