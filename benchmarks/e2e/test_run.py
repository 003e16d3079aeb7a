"""The runner end to end (``--smoke``), its result line, and ``compare``."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run


def run_bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_every_workload(tmp_path, trace):
    t0 = time.monotonic()
    proc = run_bench("--smoke", "--trace", trace, "--cache-dir",
                     str(tmp_path), "--out", str(tmp_path / "r.json"))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30
    line = last_json(proc.stdout)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 4 * run.SMOKE_JOBS
    bench = run.load_benchmark()
    listed = bench["per_layer" if trace == "1" else "end_to_end"]
    expected = {f"{w}.{m['name']}" for w in run.wl.WORKLOADS for m in listed}
    assert set(line["metrics"]) == expected
    for key, metric in line["metrics"].items():
        assert isinstance(metric["value"], float), key
    doc = run.load_results(str(tmp_path / "r.json"))
    assert [r["workload"] for r in doc["runs"]] == list(run.wl.WORKLOADS)
    for r in doc["runs"]:
        assert r["env"]["nproc"] >= 1 and r["env"]["git_rev"]
        assert (r["seed"], r["smoke"], r["trace"]) == (0, True, trace == "1")


def test_one_workload_prints_unprefixed_metrics(tmp_path):
    proc = run_bench("--smoke", "--workload", "plan8d", "--seed", "4",
                     "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = last_json(proc.stdout)
    names = {m["name"] for m in run.load_benchmark()["end_to_end"]}
    assert set(line["metrics"]) == names


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "als4d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


#: Seed-to-seed differences that pairing cancels: 10, 20, 30, ... .
BASE = [10.0 * (k + 1) for k in range(10)]


@pytest.mark.parametrize("b, better, expected", [
    ([x * 1.02 for x in BASE], "lower", "within bound"),
    ([x * 1.2 for x in BASE], "lower", "regressed"),
    ([x * 1.2 for x in BASE], "higher", "improved"),
    ([x * 0.8 for x in BASE], "lower", "improved"),
    ([x * 0.8 for x in BASE[:9]], "lower", "within bound"),
    ([x * (1.3 if k % 2 else 0.8) for k, x in enumerate(BASE)], "lower",
     "unresolved"),
    ([x * 1.05 for x in BASE[:1]], "lower", "unresolved"),
])
def test_verdict_on_paired_samples(b, better, expected):
    assert run.verdict(BASE[:len(b)], b, better, 0.1)[0] == expected


def result_file(path, job_s, seconds=24.0):
    runs = [{"workload": "w", "seed": seed, "seconds": seconds,
             "trace": False, "smoke": False, "generator_version": 1,
             "env": {"git_rev": "abc", "cpu_model": "cpu", "nproc": 2},
             "metrics": {"job_s": {"value": value}}}
            for seed, value in enumerate(job_s)]
    run.add_runs(path, runs)


BENCH = {"end_to_end": [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def test_compare_pairs_runs_by_seed_and_exits_nonzero_on_regression(
        tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    result_file(a, BASE)
    result_file(b, [x * 1.5 for x in BASE])
    assert run.compare(str(a), str(b), BENCH) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare(str(a), str(a), BENCH) == 0
    # Appending runs on seeds 0-9 again adds a second pair per seed.
    result_file(a, BASE)
    assert len(run.load_results(str(a))["runs"]) == 20
    assert len(run.pair_runs(run.load_results(str(a))["runs"],
                             run.load_results(str(b))["runs"])["w"]) == 10


def test_compare_refuses_runs_with_different_settings(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    result_file(a, BASE)
    result_file(b, BASE, seconds=10.0)
    assert run.compare(str(a), str(b), BENCH) == 2
    assert "seconds" in capsys.readouterr().err
    (tmp_path / "old.json").write_text(json.dumps({"workloads": {}}))
    assert run.compare(str(a), str(tmp_path / "old.json"), BENCH) == 2
