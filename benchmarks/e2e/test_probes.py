"""Span arithmetic, per-layer metrics and probe installation."""

import sys
import types

import pytest

import probes


def span(span_id, name, start, end, parent=None, **attrs):
    return {"run_id": "r", "span_id": span_id, "parent_id": parent,
            "name": name, "start_ns": start, "end_ns": end, "attrs": attrs}


def test_union_merges_overlaps_and_clips():
    assert probes.union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert probes.union_ns([(0, 10), (5, 15), (20, 30)], lo=8, hi=25) == 12
    assert probes.union_ns([]) == 0


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        span(1, "outer", 0, 100),
        span(2, "a", 10, 40, parent=1),
        span(3, "b", 30, 60, parent=1),   # overlaps a: union is 10..60
        span(4, "leaf", 12, 20, parent=2),
    ]
    assert probes.self_times(spans) == {1: 50, 2: 22, 3: 30, 4: 8}


def test_steady_windows_skip_first_two_iterations_of_every_model():
    ticks = [(0, 0, 10, True), (0, 1, 20, False), (0, 2, 35, True),
             (0, 3, 50, False), (1, 0, 70, True), (1, 1, 80, False),
             (1, 2, 95, True)]
    assert probes.steady_windows(ticks) == [
        (20, 35, 1, 2), (35, 50, 2, 3), (80, 95, 5, 6)]
    assert probes.steady_windows(ticks, traced=True) == [
        (20, 35, 1, 2), (80, 95, 5, 6)]
    assert probes.steady_windows(ticks, traced=False) == [(35, 50, 2, 3)]


def synthetic_job(missing=()):
    """Iterations 0-5; the even ones are traced and take 10 ms, the odd ones
    run without probes in 8 ms.  A traced steady iteration holds mttkrp
    6 ms (around a 5 ms rebuild) and solve 2 ms; the loop's own code is the
    other 2 ms.  Operation counts grow in traced iterations only."""
    ms = 1_000_000
    ends = (10, 20, 30, 38, 48, 56)
    ticks = [(0, k, t * ms, k % 2 == 0) for k, t in enumerate(ends)]
    spans = [span(1, "core.cpals.cp_als", 1 * ms, 61 * ms),
             span(2, "model.planner.plan", 2 * ms, 5 * ms, parent=1,
                  candidates=7)]
    sid = 3
    for lo in (20, 38):
        spans.append(span(sid, "core.engine.mttkrp", (lo + 1) * ms,
                          (lo + 7) * ms, parent=1))
        spans.append(span(sid + 1, "kernels.rebuild", (lo + 1) * ms,
                          (lo + 6) * ms, parent=sid, node=1, nnz=100))
        spans.append(span(sid + 2, "linalg.solve", (lo + 7) * ms,
                          (lo + 9) * ms, parent=1))
        spans.append(span(sid + 3, "trace.off", (lo + 10) * ms,
                          (lo + 18) * ms, parent=1))
        sid += 4
    counters = []
    for k in range(len(ends)):
        traced_so_far = k // 2 + 1
        counters.append({"flops": 1000 * traced_so_far,
                         "words": 100 * traced_so_far,
                         "node_builds": 3 * traced_so_far,
                         "mttkrps": 4 * traced_so_far})
    job = {"t_spawn_ns": 0, "t_saved_ns": 75 * ms, "ticks": ticks,
           "counters": counters, "missing": list(missing)}
    return job, spans


def test_layer_metrics_on_synthetic_spans():
    job, spans = synthetic_job()
    m = probes.layer_metrics(job, spans, rank=4, fit_span="core.cpals.cp_als")
    assert m["kernels.rebuild.ms_per_iter"] == pytest.approx(5.0)
    assert m["kernels.rebuild.node1.ms_per_iter"] == pytest.approx(5.0)
    assert m["core.engine.mttkrp.self_ms_per_iter"] == pytest.approx(1.0)
    assert m["linalg.solve.ms_per_iter"] == pytest.approx(2.0)
    assert m["core.cpals.loop_ms_per_iter"] == pytest.approx(2.0)
    assert m["model.planner.candidates"] == 7
    assert m["kernels.node_builds_per_iter"] == 3
    assert m["kernels.gb_per_iter"] == pytest.approx(800 / 1e9)
    assert m["kernels.flop_per_byte"] == pytest.approx(1000 / 800)
    assert m["algos.restarts.shared_setup_s"] == pytest.approx(0.020)
    # Spans cover 60 of the job's 75 ms.
    assert m["remainder.frac"] == pytest.approx(0.2)
    table = dict(probes.layer_table(spans))
    assert sum(table.values()) == pytest.approx(0.060)
    assert table["trace.off"] == pytest.approx(0.016)


def test_overhead_pairs_each_untraced_iteration_with_both_neighbours():
    job, _ = synthetic_job()
    # Iteration 3 sits between traced 2 and 4; iteration 5 has no traced
    # iteration after it.
    assert probes.overhead_pairs(job["ticks"]) == [pytest.approx(10 / 8 - 1)]
    # A steady trend cancels: 10, 12, 14 ms with the middle one untraced.
    ms = 1_000_000
    ticks = [(0, k, t * ms, k != 3) for k, t in
             enumerate((0, 10, 20, 32, 46, 62))]
    assert probes.overhead_pairs(ticks) == [pytest.approx(0.0)]


def test_median_interval_brackets_the_median():
    samples = [float(k) for k in range(100)]
    lo, hi = probes.median_ci95(samples)
    assert 38 <= lo < 49.5 < hi <= 61
    assert probes.median_ci95([1.0]) == (1.0, 1.0)


def test_missing_probe_target_is_reported_not_raised(monkeypatch):
    module = types.ModuleType("e2e_probe_target")
    module.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "e2e_probe_target", module)
    rec = probes.Recorder("r")
    missing = rec.install((
        ("x.present", "e2e_probe_target", "present"),
        ("x.absent", "e2e_probe_target", "renamed_away"),
        ("x.module", "e2e_no_such_module", "f"),
    ))
    assert missing == ["x.absent", "x.module"]
    assert module.present(1) == 2
    assert [s["name"] for s in rec.spans] == ["x.present"]

    job, spans = synthetic_job(missing=["kernels.rebuild"])
    m = probes.layer_metrics(job, spans, rank=4, fit_span="core.cpals.cp_als")
    assert m["kernels.rebuild.ms_per_iter"] is None
    assert m["kernels.gbps_computed"] is None
    assert m["core.cpals.loop_ms_per_iter"] is None
    assert not any(k.startswith("kernels.rebuild.node") for k in m)
    assert m["linalg.solve.ms_per_iter"] == pytest.approx(2.0)
    assert probes.median_metrics([m, m])["kernels.rebuild.ms_per_iter"] is None


def test_disabled_probes_restore_the_original_callables(monkeypatch):
    module = types.ModuleType("e2e_probe_target")
    original = module.f = lambda x: 2 * x
    monkeypatch.setitem(sys.modules, "e2e_probe_target", module)
    rec = probes.Recorder("r")
    assert rec.install((("x.f", "e2e_probe_target", "f"),)) == []
    rec.set_enabled(False)
    assert module.f is original and module.f(3) == 6
    rec.set_enabled(True)
    assert module.f is not original and module.f(3) == 6
    assert [s["name"] for s in rec.spans] == ["x.f"]


def test_traced_job_runs_odd_iterations_without_probes(tmp_path):
    import run
    import workloads as wl

    workload = wl.WORKLOADS["restarts4d_r8"].smoke()
    paths = wl.materialize(workload, 0, str(tmp_path))
    job = run.run_job(workload, 0, paths["tns"], tmp_path / "job",
                      traced=True)
    assert "error" not in job, job
    spans = probes.read_spans(str(tmp_path / "job" / "spans.jsonl"))
    traced = probes.steady_windows(job["ticks"], skip=0, traced=True)
    plain = probes.steady_windows(job["ticks"], skip=0, traced=False)
    assert traced and plain
    assert [t[3] for t in job["ticks"]] == [
        t[1] % 2 == 0 for t in job["ticks"]]

    def inside(s, windows):
        return any(lo <= s["start_ns"] <= hi for lo, hi, _, _ in windows)

    probed = [s for s in spans if s["name"] in
              {name for name, _, _ in probes.PROBES}]
    assert not any(inside(s, plain) for s in probed)
    assert any(s["name"] == "kernels.rebuild" and inside(s, traced)
               for s in probed)
    assert len([s for s in spans if s["name"] == "trace.off"]) == len(plain)
    # Counts grow only while tracing is on.
    for _, _, p, i in plain:
        assert job["counters"][i]["flops"] == job["counters"][p]["flops"]


def test_every_probe_target_resolves():
    for name, module, path in probes.PROBES:
        owner, attr = probes._resolve(module, path)
        assert callable(getattr(owner, attr)), name
