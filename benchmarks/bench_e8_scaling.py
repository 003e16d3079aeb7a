"""E8 — multicore strong scaling (figure).

Times the thread-parallel memoized engine at 1 and 4 workers, recording
one ``repro-bench-history/v1`` series per worker count so
``repro bench-diff`` gates regressions, then regenerates the E8 table.
"""

import pytest
from conftest import record_history, save_result

from repro.core.cpals import initialize_factors
from repro.core.strategy import balanced_binary
from repro.experiments import e8_scaling
from repro.parallel.engine import ParallelMemoizedMttkrp
from repro.parallel.pool import available_cpus
from repro.synth.datasets import load_dataset

HOST_CPUS = available_cpus()


@pytest.mark.parametrize("n_workers", [1, 4])
def test_parallel_iteration(benchmark, bench_scale, bench_rank, n_workers):
    tensor = load_dataset("delicious", scale=bench_scale)
    with ParallelMemoizedMttkrp(
        tensor, balanced_binary(tensor.ndim),
        initialize_factors(tensor, bench_rank, random_state=0),
        n_workers=n_workers,
    ) as engine:

        def one_iteration():
            for n in engine.mode_order:
                engine.mttkrp(n)
                engine.update_factor(n, engine.factors[n])

        one_iteration()
        benchmark(one_iteration)
    record_history(
        f"e8.thread.p{n_workers}", benchmark.stats.stats.min,
        workers=n_workers, host_cpus=HOST_CPUS,
    )


def test_e8_table(benchmark, bench_scale, bench_rank, results_dir):
    result = benchmark.pedantic(
        lambda: e8_scaling.run(scale=bench_scale, rank=bench_rank),
        rounds=1, iterations=1,
    )
    save_result(result, results_dir)
    obs = result.observations
    assert obs["modeled_monotone"]
    # From the available CPUs on, the model adds no speedup.
    capped = {v for p, v in obs["modeled_speedup"].items()
              if p >= obs["host_cpus"]}
    assert len(capped) <= 1, obs["modeled_speedup"]
