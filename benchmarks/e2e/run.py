"""End-to-end benchmark: whole CP-ALS jobs, each in a fresh process.

Each workload (see ``workloads.py``) runs as a closed loop with one client:
one job process at a time (``job.py``: read a ``.tns``, ``cp_als`` or
``cp_als_restarts``, save the model), started again as soon as the last one
ends, for ``--seconds`` and at least five jobs.  After every job the runner
recomputes the fit from the saved model against its own copy of the input.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py                      # every workload, timed
    python3 benchmarks/e2e/run.py --workload als4d --seed 3 --seconds 24
    python3 benchmarks/e2e/run.py --trace 1            # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke              # ~1% inputs, seconds
    python3 benchmarks/e2e/run.py --out results/x.json # add the runs to x.json
    python3 benchmarks/e2e/run.py compare A.json B.json

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace 1``).  The
exit code is 0 only when every job ran and passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import workloads as wl  # noqa: E402

#: Jobs per invocation at least; per-job values are reported as their
#: median, and setup time varies most from job to job.
MIN_JOBS = 5
SMOKE_JOBS = 2
#: No job starts after START_CAP_S; with the job timeout, an invocation ends
#: within about 150 s even when jobs become ten times slower.
JOB_TIMEOUT_S = 60
START_CAP_S = 90
#: Recomputed and reported fit must agree to this relative tolerance.
FIT_RTOL = 1e-9
#: Percentiles of the pooled steady iteration times that are reported.
ITER_PERCENTILES = (10, 50, 90)
#: Units of the metrics BENCHMARK.json does not list; the listed ones take
#: theirs from it, and per-node ``kernels.rebuild.node<id>`` metrics are ms.
OTHER_UNITS = {"iter_ms_p10": "ms", "fit_final": "1", "failed_frac": "1",
               "trace.overhead_frac.lo95": "1",
               "trace.overhead_frac.hi95": "1"}
#: Result files hold a list of runs, one per (invocation, workload).
SCHEMA = "repro-e2e-bench/v2"
#: Settings two runs must share for ``compare`` to pair them.
RUN_SETTINGS = ("seconds", "trace", "smoke", "generator_version")
#: ``compare`` reports a gain only over at least this many pairs.
MIN_PAIRS = 10


def metric_units(bench: dict) -> dict:
    """Unit of every metric the runner reports, by name."""
    units = dict(OTHER_UNITS)
    units.update((m["name"], m["unit"])
                 for m in bench["end_to_end"] + bench["per_layer"])
    return units


def unit_of(units: dict, name: str) -> str:
    if name.startswith("kernels.rebuild.node"):
        return "ms"
    return units[name]


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------
def run_job(workload: wl.Workload, seed: int, tns: str, workdir: Path,
            traced: bool) -> dict:
    """Start one job process, wait for it, and return its result record
    (``{"error": message}`` when it crashed or timed out)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spec = dict(rank=workload.rank, iters=workload.iters,
                restarts=workload.restarts, tns=tns, seed=seed, trace=traced,
                workdir=str(workdir), run_id=uuid.uuid4().hex[:12])
    spec["t_spawn_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    with open(workdir / "result.json") as fh:
        record = json.load(fh)
    record["traced"] = traced
    return record


def check_job(record: dict, workload: wl.Workload, idx, vals,
              model_path: Path) -> str | None:
    """Why the job's output is wrong, or None when it passes."""
    expected = workload.iters * max(workload.restarts, 1)
    if len(record["ticks"]) != expected:
        return f"ran {len(record['ticks'])} iterations, expected {expected}"
    try:
        weights, factors = wl.load_model(str(model_path))
        fit = wl.recompute_fit(idx, vals, weights, factors)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"saved model unreadable: {exc}"
    reported = record["fit"]
    if not abs(fit - reported) <= FIT_RTOL * abs(reported):
        return f"recomputed fit {fit!r} != reported {reported!r}"
    return None


def steady_ms(record: dict) -> list[float]:
    """The job's steady iteration times, in ms."""
    return [(hi - lo) / 1e6
            for lo, hi, _, _ in probes.steady_windows(record["ticks"])]


def job_metrics(record: dict) -> dict:
    """Per-job end-to-end numbers of one untraced job."""
    spawn = record["t_spawn_ns"]
    first_iteration_s = statistics.median(steady_ms(record)) / 1e3
    return {
        "job_s": (record["t_saved_ns"] - spawn) / 1e9,
        "setup_s": (record["ticks"][0][2] - spawn) / 1e9 - first_iteration_s,
        "peak_rss_mb": record["maxrss_kb"] / 1024,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def run_workload(workload: wl.Workload, seed: int, seconds: float, *,
                 trace: bool, cache_dir: Path, min_jobs: int,
                 units: dict) -> dict:
    """One run: jobs of one workload on one seed, every job traced or
    none."""
    paths = wl.materialize(workload, seed, str(cache_dir))
    idx, vals = wl.load_input(paths["npz"])
    jobs: list[dict] = []
    t0 = time.monotonic()
    while len(jobs) < min_jobs or time.monotonic() - t0 < seconds:
        if time.monotonic() - t0 > START_CAP_S:
            break
        workdir = cache_dir / "jobs" / workload.name / str(len(jobs))
        record = run_job(workload, seed, paths["tns"], workdir, traced=trace)
        if "error" not in record:
            model = workdir / "model.npz"
            record["error"] = check_job(record, workload, idx, vals, model)
            model.unlink(missing_ok=True)
        if record["error"] is None and trace:
            spans = probes.read_spans(str(workdir / "spans.jsonl"))
            record["layers"] = probes.layer_metrics(
                record, spans, rank=workload.rank,
                fit_span=record["fit_span"])
            record["layer_table"] = probes.layer_table(spans)
        jobs.append(record)

    good = [j for j in jobs if j["error"] is None]
    for j in good[1:]:
        if j["fit"] != good[0]["fit"]:
            j["error"] = f"fit {j['fit']!r} differs from {good[0]['fit']!r}"
    if seed == 0 and workload.ref_fit is not None:
        for j in good:
            if j["error"] is None and not (
                    abs(j["fit"] - workload.ref_fit) <= wl.REF_FIT_TOL):
                j["error"] = (f"fit {j['fit']!r} is not within "
                              f"{wl.REF_FIT_TOL} of the seed-0 reference "
                              f"{workload.ref_fit!r}")
    res = summarize(workload, jobs, units, trace)
    res.update(seed=seed, trace=trace, seconds=seconds,
               generator_version=wl.GENERATOR_VERSION)
    return res


def summarize(workload: wl.Workload, jobs: list[dict], units: dict,
              trace: bool) -> dict:
    """A run's metrics: end-to-end ones from untraced jobs, per-layer ones
    from traced jobs.  Each keeps ``samples``, its per-job values, and
    ``n``, the number of values behind it."""
    good = [j for j in jobs if j["error"] is None]
    metrics: dict[str, dict] = {}

    def put(name, value, samples, n=None):
        metrics[name] = {"value": value, "unit": unit_of(units, name),
                         "n": len(samples) if n is None else n,
                         "samples": samples}

    if good and not trace:
        per_job = [job_metrics(j) for j in good]
        for name in ("job_s", "setup_s"):
            samples = [m[name] for m in per_job]
            put(name, statistics.median(samples), samples)
        iters = [steady_ms(j) for j in good]
        pool = [ms for job in iters for ms in job]
        for q in ITER_PERCENTILES:
            put(f"iter_ms_p{q}", float(np.percentile(pool, q)),
                [float(np.percentile(job, q)) for job in iters], len(pool))
        samples = [m["peak_rss_mb"] for m in per_job]
        put("peak_rss_mb", statistics.median(samples), samples)
        # Identical in every good job.
        put("fit_final", good[0]["fit"], [j["fit"] for j in good])
    put("failed_frac", (len(jobs) - len(good)) / max(len(jobs), 1),
        [float(j["error"] is not None) for j in jobs])

    layer_table = None
    if good and trace:
        rows = [j["layers"] for j in good]
        for name, value in probes.median_metrics(rows).items():
            put(name, value, [row.get(name) for row in rows])
        # Pooled over the run's jobs: one pair per untraced iteration.
        pairs = [x for j in good for x in probes.overhead_pairs(j["ticks"])]
        if pairs:
            lo, hi = probes.median_ci95(pairs)
            put("trace.overhead_frac", statistics.median(pairs), pairs)
            put("trace.overhead_frac.lo95", lo, [], len(pairs))
            put("trace.overhead_frac.hi95", hi, [], len(pairs))
        by_length = sorted(
            good, key=lambda j: j["t_saved_ns"] - j["t_spawn_ns"])
        middle = by_length[len(by_length) // 2]
        layer_table = {
            "job_s": (middle["t_saved_ns"] - middle["t_spawn_ns"]) / 1e9,
            "layers": middle["layer_table"],
        }
    return {
        "workload": workload.name,
        "correct": bool(jobs) and len(good) == len(jobs),
        "attempted": len(jobs),
        "failed": len(jobs) - len(good),
        "failures": [j["error"] for j in jobs if j["error"] is not None],
        "strategy": good[0]["strategy"] if good else None,
        "fit": good[0]["fit"] if good else None,
        "metrics": metrics,
        "layer_table": layer_table,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def print_workload(res: dict, workload: wl.Workload) -> None:
    kind = "traced" if res["trace"] else "timed"
    print(f"== {res['workload']}  seed {res['seed']}  {kind}  "
          f"{res['attempted']} jobs ({res['failed']} failed)  "
          f"nnz {workload.nnz}  R={workload.rank}  "
          f"strategy {res['strategy']}")
    for name, m in res["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value:>14} {m['unit']:<7} n={m['n']}")
    table = res["layer_table"]
    if table:
        job_s = table["job_s"]
        print(f"  self time by layer, median traced job ({job_s:.3f} s):")
        covered = 0.0
        for name, secs in table["layers"]:
            covered += secs
            print(f"    {name:<38} {secs:>9.4f} s {100 * secs / job_s:6.1f}%")
        rest = job_s - covered
        print(f"    {'(remainder)':<38} {rest:>9.4f} s "
              f"{100 * rest / job_s:6.1f}%")
    if res["failures"]:
        for failure in res["failures"]:
            print(f"  FAILED: {failure}")
    else:
        ref = ("; matches the seed-0 reference"
               if res["seed"] == 0 and workload.ref_fit is not None else "")
        print(f"  correct: fit {res['fit']!r} recomputed from every saved "
              f"model within {FIT_RTOL:g}, identical in every job{ref}")


def result_line(results: list[dict], listed: list[dict],
                prefix: bool) -> dict:
    """The final JSON line: the ``listed`` metrics of every result."""
    metrics = {}
    for res in results:
        for metric in listed:
            m = res["metrics"].get(metric["name"])
            key = (f"{res['workload']}.{metric['name']}" if prefix
                   else metric["name"])
            metrics[key] = {"value": None if m is None else m["value"],
                            "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def add_runs(path: Path, runs: list[dict]) -> None:
    """Append ``runs`` to the result file at ``path``, creating it."""
    doc = {"schema": SCHEMA, "runs": []}
    if path.exists():
        doc = load_results(str(path))
    doc["runs"].extend(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def environment() -> dict:
    """Where a result was measured: host, libraries, source revision."""
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpuinfo("model name"),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": next(
            (f"{k}={os.environ[k]}" for k in
             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
             if os.environ.get(k)), f"default (nproc={os.cpu_count()})"),
        "git_rev": _git_rev(),
    }
    try:
        from importlib.metadata import version

        env["scipy"] = version("scipy")
    except ImportError:
        env["scipy"] = None
    return env


def _cpuinfo(key: str) -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _llc() -> str | None:
    """Size of the highest-level CPU cache, as sysfs reports it."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def load_results(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} result file")
    return doc


def pair_runs(runs_a: list[dict], runs_b: list[dict]) -> dict:
    """``{workload: [(run_a, run_b), ...]}``: runs matched by workload and
    seed, and by order among runs that share both."""
    def keyed(runs):
        out: dict[tuple, list] = {}
        for r in runs:
            out.setdefault((r["workload"], r["seed"]), []).append(r)
        return out

    ka, kb = keyed(runs_a), keyed(runs_b)
    pairs: dict[str, list] = {}
    for key, side_a in ka.items():
        for ra, rb in zip(side_a, kb.get(key, ())):
            pairs.setdefault(key[0], []).append((ra, rb))
    return pairs


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, tuple[float, float, float], int]:
    """Verdict on B against A from paired samples ``a[i]``, ``b[i]``.

    Returns the verdict, the quartiles of the paired relative changes
    (positive is worse), and the number of pairs B wins.  A gain needs
    ``MIN_PAIRS`` pairs, B winning nine in ten of them, and a median change
    larger than the distance between the changes' quartiles.
    """
    sign = 1.0 if better == "lower" else -1.0
    changes = [sign * (y - x) / abs(x) for x, y in zip(a, b)]
    change = quartiles(changes)
    wins = sum(c < 0 for c in changes)
    if (len(changes) >= MIN_PAIRS and wins >= 0.9 * len(changes)
            and -change[1] > change[2] - change[0]):
        return "improved", change, wins
    if change[1] > bound:
        return "regressed", change, wins
    if wins < len(changes) and (
            len(changes) < 2 or change[2] - change[0] > bound):
        return "unresolved", change, wins
    return "within bound", change, wins


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Print a verdict per (workload, gated metric); 1 if any regressed,
    2 if the files cannot be compared."""
    try:
        runs_a = load_results(path_a)["runs"]
        runs_b = load_results(path_b)["runs"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    pairs = pair_runs(runs_a, runs_b)
    for name, matched in pairs.items():
        for ra, rb in matched:
            differ = [k for k in RUN_SETTINGS if ra.get(k) != rb.get(k)]
            if differ:
                print(f"compare: {name} seed {ra['seed']} was run with "
                      f"different {', '.join(differ)} in the two files",
                      file=sys.stderr)
                return 2
    if not pairs:
        print("compare: no (workload, seed) run in both files",
              file=sys.stderr)
        return 2
    for label, path, runs in (("A", path_a, runs_a), ("B", path_b, runs_b)):
        revs = sorted({r["env"]["git_rev"][:12] for r in runs})
        env = runs[0]["env"]
        print(f"{label}: {path}  {len(runs)} runs  rev {', '.join(revs)}  "
              f"{env['cpu_model']}  nproc {env['nproc']}")
    print(f"{'workload':<15} {'metric':<12} {'pairs':>5} "
          f"{'A median [q1, q3]':>28} {'B median [q1, q3]':>28} "
          f"{'paired change [q1, q3]':>26} {'wins':>5} {'bound':>6}  verdict")
    regressed = 0
    for name, matched in pairs.items():
        for metric in bench["end_to_end"]:
            key = metric["name"]
            a = [ra["metrics"].get(key, {}).get("value") for ra, _ in matched]
            b = [rb["metrics"].get(key, {}).get("value") for _, rb in matched]
            if None in a or None in b:
                print(f"{name:<15} {key:<12} missing on one side")
                continue
            word, change, wins = verdict(a, b, metric["better"],
                                         metric["bound"])
            regressed += word == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{name:<15} {key:<12} {len(a):>5} "
                  f"{qa[1]:>10.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:>10.5g} [{qb[0]:.5g}, {qb[2]:.5g}] "
                  f"{100 * change[1]:>+8.2f}% [{100 * change[0]:+.1f}, "
                  f"{100 * change[2]:+.1f}] {wins:>5} "
                  f"{metric['bound']:>6g}  {word}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end CP-ALS benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input generator seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1%% of each input, two jobs each")
    parser.add_argument("--cache-dir", type=Path, default=HERE / ".cache",
                        help="where inputs and job outputs are kept")
    parser.add_argument("--out", type=Path,
                        help="result file to add this invocation's runs to")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], load_benchmark())
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    bench = load_benchmark()
    units = metric_units(bench)
    import compileall

    # Bytecode is built once per checkout, not inside a measured job.
    compileall.compile_dir(str(SRC), quiet=1)
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    chosen = [wl.WORKLOADS[n] for n in names]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    min_jobs = MIN_JOBS
    if args.smoke:
        chosen = [w.smoke() for w in chosen]
        seconds, min_jobs = 0.0, SMOKE_JOBS
    results = []
    for workload in chosen:
        res = run_workload(workload, args.seed, seconds,
                           trace=bool(args.trace), cache_dir=args.cache_dir,
                           min_jobs=min_jobs, units=units)
        res["smoke"] = args.smoke
        print_workload(res, workload)
        results.append(res)
    if args.out:
        env = environment()
        add_runs(args.out, [dict(r, env=env) for r in results])
    listed = bench["per_layer" if args.trace else "end_to_end"]
    line = result_line(results, listed, prefix=args.workload is None)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
