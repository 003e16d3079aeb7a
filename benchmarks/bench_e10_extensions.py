"""E10 — restart amortization through a shared symbolic tree."""

from conftest import save_result

from repro.experiments import e10_extensions


def test_e10b_table(benchmark, bench_scale, bench_rank, results_dir):
    result = benchmark.pedantic(
        lambda: e10_extensions.run_restart_amortization(
            scale=bench_scale, rank=bench_rank
        ),
        rounds=1, iterations=1,
    )
    save_result(result, results_dir)
    assert result.observations["restart_speedup"] > 0.9
