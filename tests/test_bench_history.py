"""Tests for the benchmark history store and the noise-aware comparator."""

import json

import pytest

from repro.obs.history import (BenchEntry, BenchHistory, compare,
                               format_diff_table, make_entry)


def entry(bench_id="b", value=1.0, run_id="r0", unit="seconds",
          knobs=None) -> BenchEntry:
    return BenchEntry(
        bench_id=bench_id, value=value, unit=unit, timestamp="t",
        git_rev="rev", run_id=run_id, knobs=knobs or {},
    )


def history_of(values, bench_id="b", knobs=None) -> list[BenchEntry]:
    """One entry per value, each its own run (r0, r1, ...)."""
    return [entry(bench_id, v, run_id=f"r{i}", knobs=knobs)
            for i, v in enumerate(values)]


class TestStore:
    def test_append_and_reload(self, tmp_path):
        h = BenchHistory(str(tmp_path / "nested" / "h.jsonl"))
        h.append(entry("a", 1.5))
        h.record("b", 2.5, note="x")
        assert len(h) == 2
        back = h.entries()
        assert back[0].bench_id == "a" and back[0].value == 1.5
        assert back[1].extra == {"note": "x"}
        assert h.bench_ids() == ["a", "b"]

    def test_append_only_preserves_order(self, tmp_path):
        h = BenchHistory(str(tmp_path / "h.jsonl"))
        for v in (3.0, 1.0, 2.0):
            h.append(entry("a", v))
        assert [e.value for e in h.entries()] == [3.0, 1.0, 2.0]

    def test_missing_file_is_empty(self, tmp_path):
        h = BenchHistory(str(tmp_path / "absent.jsonl"))
        assert h.entries() == [] and len(h) == 0

    def test_jsonl_round_trip(self, tmp_path):
        e = make_entry("bench.x", 0.123, unit="bytes", note="hello")
        h = BenchHistory(str(tmp_path / "h.jsonl"))
        h.append(e)
        (back,) = h.entries()
        assert back == e
        with open(h.path) as fh:
            doc = json.loads(fh.readline())
        assert doc["schema"] == "repro-bench-history/v1"
        assert doc["unit"] == "bytes"

    def test_make_entry_stamps_everything(self):
        e = make_entry("bench.x", 1.0)
        assert e.timestamp and e.git_rev and e.run_id
        assert "kernel_backend" in e.knobs


class TestCompare:
    def test_regression_flagged(self):
        base = history_of([1.00, 0.98, 1.02])
        cur = [entry(value=1.25, run_id="new")]  # +27% over min 0.98
        (r,) = compare(cur, base, rel_band=0.10)
        assert r.status == "regression" and not r.ok
        assert r.baseline == 0.98
        assert r.ratio == pytest.approx(1.25 / 0.98)

    def test_injected_ten_percent_slowdown_flagged(self):
        # the acceptance scenario: a 10% slowdown must trip a 5% band
        base = history_of([1.0, 1.0, 1.0])
        cur = [entry(value=1.10, run_id="new")]
        (r,) = compare(cur, base, rel_band=0.05)
        assert r.status == "regression"

    def test_clean_rerun_not_flagged(self):
        # normal timer jitter around the baseline stays inside the band
        base = history_of([1.00, 0.97, 1.03, 0.99])
        for v in (0.98, 1.01, 1.05):
            (r,) = compare([entry(value=v, run_id="new")], base,
                           rel_band=0.10)
            assert r.status == "ok" and r.ok

    def test_improvement(self):
        base = history_of([1.0, 1.0])
        (r,) = compare([entry(value=0.8, run_id="new")], base,
                       rel_band=0.10)
        assert r.status == "improvement" and r.ok

    def test_band_edges_are_ok(self):
        base = history_of([1.0])
        for v in (1.10, 0.90):  # exactly on the band boundary: inside
            (r,) = compare([entry(value=v, run_id="new")], base,
                           rel_band=0.10)
            assert r.status == "ok"

    def test_no_baseline_is_not_a_failure(self):
        (r,) = compare([entry("brand.new", 5.0, run_id="new")], [])
        assert r.status == "no-baseline" and r.ok
        assert r.baseline is None and r.ratio is None

    def test_min_of_current_samples(self):
        # run the bench twice, only the best counts
        base = history_of([1.0])
        cur = [entry(value=1.5, run_id="new"),
               entry(value=1.02, run_id="new")]
        (r,) = compare(cur, base, rel_band=0.10)
        assert r.current == 1.02 and r.status == "ok"

    def test_min_of_last_k_baseline(self):
        # an ancient fast outlier beyond the k-window must not count
        base = history_of([0.5] + [1.0] * 5)
        (r,) = compare([entry(value=1.05, run_id="new")], base, k=5)
        assert r.baseline == 1.0 and r.status == "ok"
        (r,) = compare([entry(value=1.05, run_id="new")], base, k=10)
        assert r.baseline == 0.5 and r.status == "regression"

    def test_current_run_excluded_from_baseline(self):
        # a pre-merged history containing the current run's own (slow)
        # lines must not let the run baseline itself
        base = history_of([1.0, 1.0]) + [entry(value=2.0, run_id="new")]
        (r,) = compare([entry(value=2.0, run_id="new")], base,
                       rel_band=0.10)
        assert r.baseline == 1.0 and r.status == "regression"

    def test_knob_signature_isolation(self):
        # a numba baseline never serves a numpy run
        base = history_of([0.1], knobs={"kernel_backend": "numba"})
        cur = [entry(value=1.0, run_id="new",
                     knobs={"kernel_backend": "numpy"})]
        (r,) = compare(cur, base)
        assert r.status == "no-baseline"
        cur2 = [entry(value=1.0, run_id="new",
                      knobs={"kernel_backend": "numba"})]
        (r2,) = compare(cur2, base)
        assert r2.status == "regression"

    def test_unit_mismatch_isolated(self):
        base = history_of([1000.0])
        cur = [entry(value=900.0, run_id="new", unit="bytes")]
        (r,) = compare(cur, base)
        assert r.status == "no-baseline"

    def test_multiple_benches_sorted(self):
        base = history_of([1.0], bench_id="z") + history_of([1.0],
                                                            bench_id="a")
        cur = [entry("z", 2.0, run_id="new"), entry("a", 1.0, run_id="new")]
        results = compare(cur, base)
        assert [r.bench_id for r in results] == ["a", "z"]
        assert [r.status for r in results] == ["ok", "regression"]

    def test_zero_baseline_guard(self):
        (r,) = compare([entry(value=1.0, run_id="new")],
                       history_of([0.0]))
        assert r.ratio == float("inf") and r.status == "regression"

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError, match="rel_band"):
            compare([], [], rel_band=-0.1)
        with pytest.raises(ValueError, match="k"):
            compare([], [], k=0)

    def test_diff_result_json(self):
        (r,) = compare([entry(value=1.0, run_id="new")], history_of([1.0]))
        json.dumps(r.to_dict())


class TestFormatting:
    def test_table_marks_regressions(self):
        base = history_of([1.0])
        results = compare([entry(value=2.0, run_id="new"),
                           entry("other", 1.0, run_id="new")], base)
        text = format_diff_table(results)
        assert "REGRESSION" in text
        assert "no-baseline" in text
        assert "1 regression(s)" in text

    def test_empty_results(self):
        assert "(no entries)" in format_diff_table([])


class TestCli:
    def _seed_history(self, path, values, bench_id="bench.t"):
        h = BenchHistory(str(path))
        for i, v in enumerate(values):
            h.append(entry(bench_id, v, run_id=f"r{i}"))
        return h

    def test_bench_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        hist = tmp_path / "h.jsonl"
        self._seed_history(hist, [1.0, 1.0])
        # newest run inside the history is clean -> exit 0
        BenchHistory(str(hist)).append(
            entry("bench.t", 1.01, run_id="current")
        )
        assert main(["bench-diff", "--history", str(hist)]) == 0
        assert "ok" in capsys.readouterr().out
        # a separate current file with a big regression -> exit 1
        cur = tmp_path / "cur.jsonl"
        BenchHistory(str(cur)).append(
            entry("bench.t", 2.0, run_id="slow")
        )
        assert main(["bench-diff", str(cur), "--history", str(hist)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_diff_json_output(self, tmp_path, capsys):
        from repro.cli import main

        hist = tmp_path / "h.jsonl"
        self._seed_history(hist, [1.0, 1.05])
        rc = main(["bench-diff", "--history", str(hist), "--json"])
        docs = json.loads(capsys.readouterr().out)
        assert rc in (0, 1)
        assert docs[0]["bench_id"] == "bench.t"

    def test_bench_diff_missing_history(self, tmp_path):
        from repro.cli import main

        rc = main(["bench-diff", "--history",
                   str(tmp_path / "nope.jsonl")])
        assert rc == 2
