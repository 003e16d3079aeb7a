"""Roofline benchmark: calibration cost + attribution cost + ceilings.

Times the two moving parts of the roofline telemetry stack and records
what they measured, so regressions in either the microbenchmarks or the
span-join show up in ``repro bench-diff``:

* **calibration** — one full :func:`repro.model.calibrate.measure_roofline`
  sweep (triad + gather saturation curve, dense matmul ceiling), the cost
  a user pays for ``repro roofline --force``;
* **attribution** — one :func:`repro.obs.roofline.throughput_from_spans`
  pass over a traced memoized CP-ALS iteration on the acceptance workload
  (order-4, >=1M nnz, R=16 — the ``bench_kernels.py`` tensor), the
  post-hoc join ``repro report`` / ``repro roofline --trace-dir`` run.

Writes ``benchmarks/results/BENCH_roofline.json`` (shared
``repro-bench/v1`` envelope whose payload carries the ``repro-machine/v1``
machine document plus the attributed configs) and appends the
lower-is-better timing series ``roofline.calibrate.seconds`` and
``roofline.attribution.seconds`` to ``benchmarks/history/history.jsonl``::

    PYTHONPATH=src python benchmarks/bench_roofline.py

``--quick`` (or ``REPRO_BENCH_QUICK=1``) shrinks the calibration sweep —
same artifact structure, CI-friendly runtime.
"""

import argparse
import json
import os
import time

import numpy as np

from repro.core.engine import MemoizedMttkrp
from repro.core.strategy import balanced_binary
from repro.model.calibrate import (machine_artifact, measure_roofline,
                                   validate_machine_artifact)
from repro.obs import switch
from repro.obs.buildinfo import artifact_envelope
from repro.obs.roofline import (roofline_report, throughput_from_spans,
                                tree_node_terms)

ACCEPT_SHAPE = (800,) * 4
ACCEPT_NNZ = 1_200_000
ACCEPT_RANK = 16


def _traced_iteration_spans(tensor, rank: int):
    """One traced memoized iteration; returns (finished spans, node terms)."""
    rng = np.random.default_rng(42)
    factors = [rng.standard_normal((d, rank)) for d in tensor.shape]
    engine = MemoizedMttkrp(tensor, balanced_binary(tensor.ndim), factors)
    node_terms = tree_node_terms(
        engine.strategy, engine.symbolic.node_nnz(), rank
    )
    switch.enable("trace", clear=True)
    try:
        for n in engine.mode_order:
            engine.mttkrp(n)
            engine.update_factor(n, factors[n])
        return list(switch.get("trace").finished()), node_terms
    finally:
        switch.disable("trace")
        switch.get("trace").clear()


def run_roofline_bench(quick: bool = False) -> dict:
    from repro.synth.skewed import skewed_random_tensor

    t0 = time.perf_counter()
    roofline = measure_roofline(quick=quick)
    calibrate_seconds = time.perf_counter() - t0

    tensor = skewed_random_tensor(ACCEPT_SHAPE, ACCEPT_NNZ, 1.1,
                                  random_state=0)
    spans, node_terms = _traced_iteration_spans(tensor, ACCEPT_RANK)
    t0 = time.perf_counter()
    configs = throughput_from_spans(spans, node_terms=node_terms)
    attribution_seconds = time.perf_counter() - t0
    report = roofline_report(configs, roofline, load=False)

    return {
        "machine": machine_artifact(roofline),
        "workload": {
            "shape": list(ACCEPT_SHAPE),
            "nnz": int(tensor.nnz),
            "rank": ACCEPT_RANK,
            "strategy": "balanced_binary",
            "spans_joined": len(spans),
        },
        "configs": [c.to_dict() for c in report.configs],
        "guidance": report.guidance(),
        "timings": {
            "calibrate_seconds": calibrate_seconds,
            "attribution_seconds": attribution_seconds,
        },
        "quick": quick,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        default=bool(os.environ.get("REPRO_BENCH_QUICK")),
                        help="shrink the calibration sweep (CI smoke)")
    args = parser.parse_args()

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    report = run_roofline_bench(quick=args.quick)
    # The payload's machine document must satisfy the same validator the
    # CLI applies to the cached artifact (structure, not throughput).
    validate_machine_artifact(report["machine"])

    base = os.path.join(results_dir, "BENCH_roofline")
    with open(base + ".json", "w") as fh:
        json.dump(artifact_envelope("BENCH_roofline", report), fh, indent=2)
        fh.write("\n")

    roof = report["machine"]["result"]["roofline"]
    lines = [
        f"ceilings: bandwidth {roof['peak_bandwidth_gbs']:.2f} GB/s "
        f"(gather {roof['peak_gather_gbs']:.2f}), compute "
        f"{roof['peak_gflops']:.2f} GFLOP/s, saturation at "
        f"{roof['saturation_workers']} worker(s) "
        f"[{roof['host_cpus']} cpus{', quick' if report['quick'] else ''}]",
        f"calibrate: {report['timings']['calibrate_seconds'] * 1e3:.1f} ms, "
        f"attribution pass: "
        f"{report['timings']['attribution_seconds'] * 1e3:.3f} ms over "
        f"{report['workload']['spans_joined']} spans",
        f"{'config':<16s} {'GB/s':>8s} {'% bw roof':>10s} {'bound':>8s}",
    ]
    for c in report["configs"]:
        frac = c["bandwidth_fraction"]
        lines.append(
            f"{c['config']:<16s} {c['gbs']:8.3f} "
            f"{frac * 100.0 if frac is not None else 0.0:9.1f}% "
            f"{c['bound']:>8s}"
        )
    with open(base + ".txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {base}.json")

    assert report["configs"], "no kernel configs attributed from the trace"
    if not os.environ.get("REPRO_BENCH_NO_HISTORY"):
        from repro.obs.history import BenchHistory

        history = BenchHistory(
            os.path.join(os.path.dirname(__file__), "history",
                         "history.jsonl")
        )
        for name in ("calibrate", "attribution"):
            history.record(f"roofline.{name}.seconds",
                           report["timings"][f"{name}_seconds"])
        print(f"recorded 2 timings into {history.path}")


if __name__ == "__main__":
    main()
