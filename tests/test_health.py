"""Tests for numerical-health telemetry (repro.obs.health)."""

import json

import numpy as np
import pytest

import repro
from repro.core.coo import CooTensor
from repro.linalg import gram
from repro.linalg.solve import PINV_RCOND
from repro.obs import health
from repro.obs import switch
from repro.obs.artifacts import TraceArtifacts
from repro.obs.health import (FactorDeltaTracker, FitTrajectory,
                              HealthCollector, TRAJECTORY_CONVERGING,
                              TRAJECTORY_STALLED, TRAJECTORY_SWAMPED,
                              TRAJECTORY_WARMUP, congruence_from_factors,
                              congruence_from_grams, gram_conditioning,
                              health_artifact, rel_delta,
                              validate_health_artifact, write_health)
from repro.obs.observer import IterationRecord
from repro.synth.lowrank import lowrank_tensor

from .helpers import random_coo


class TestRelDelta:
    def test_no_baseline_is_inf(self):
        assert rel_delta(np.ones((3, 2)), None) == float("inf")

    def test_shape_change_is_inf(self):
        assert rel_delta(np.ones((3, 2)), np.ones((4, 2))) == float("inf")

    def test_identical_is_zero(self):
        U = np.arange(6.0).reshape(3, 2)
        assert rel_delta(U, U.copy()) == 0.0

    def test_relative_scaling(self):
        U = np.eye(3)
        assert rel_delta(2.0 * U, U) == pytest.approx(1.0)

    def test_zero_baseline(self):
        Z = np.zeros((2, 2))
        assert rel_delta(Z, Z) == 0.0
        assert rel_delta(np.ones((2, 2)), Z) == float("inf")


class TestGramConditioning:
    def test_identity_is_one(self):
        cond, n_trunc = gram_conditioning(np.eye(4))
        assert cond == pytest.approx(1.0)
        assert n_trunc == 0

    def test_known_spectrum(self):
        H = np.diag([4.0, 2.0, 1.0])
        cond, n_trunc = gram_conditioning(H)
        assert cond == pytest.approx(4.0)
        assert n_trunc == 0

    def test_rank_deficient_counts_truncated(self):
        # Exact-zero eigenvalue: singular, one eigenvalue under the cutoff.
        H = np.diag([1.0, 1.0, 0.0])
        cond, n_trunc = gram_conditioning(H)
        assert cond == float("inf")
        assert n_trunc == 1

    def test_near_singular_truncation_matches_rcond(self):
        H = np.diag([1.0, 0.5 * PINV_RCOND])
        cond, n_trunc = gram_conditioning(H)
        assert n_trunc == 1
        H = np.diag([1.0, 10.0 * PINV_RCOND])
        cond, n_trunc = gram_conditioning(H)
        assert n_trunc == 0
        assert cond == pytest.approx(0.1 / PINV_RCOND)

    def test_zero_matrix(self):
        cond, n_trunc = gram_conditioning(np.zeros((3, 3)))
        assert cond == float("inf")
        assert n_trunc == 3


class TestCongruence:
    def test_rank_one_has_none(self):
        factors = [np.ones((4, 1)) for _ in range(3)]
        c, pair = congruence_from_factors(factors)
        assert c == 0.0 and pair is None

    def test_orthogonal_components_near_zero(self):
        factors = [np.eye(4)[:, :2] for _ in range(3)]
        c, pair = congruence_from_factors(factors)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_pair_near_one(self):
        # Two nearly collinear components in every mode: the classic
        # swamp signature.
        rng = np.random.default_rng(0)
        factors = []
        for s in (6, 5, 4):
            u = rng.standard_normal(s)
            v = u + 1e-6 * rng.standard_normal(s)
            w = rng.standard_normal(s)
            factors.append(np.column_stack([u, v, w]))
        c, pair = congruence_from_factors(factors)
        assert c > 0.999
        assert pair == (0, 1)

    def test_grams_and_factors_agree(self):
        rng = np.random.default_rng(1)
        factors = [rng.standard_normal((s, 3)) for s in (5, 4, 6)]
        via_factors = congruence_from_factors(factors)
        via_grams = congruence_from_grams([gram(U) for U in factors])
        assert via_factors[0] == pytest.approx(via_grams[0])
        assert via_factors[1] == via_grams[1]

    def test_zero_column_does_not_nan(self):
        U = np.column_stack([np.zeros(4), np.ones(4)])
        c, _pair = congruence_from_factors([U, U])
        assert np.isfinite(c)


class TestFactorDeltaTracker:
    def test_first_observation_is_inf(self):
        t = FactorDeltaTracker()
        assert t.update(0, np.ones((3, 2))) == float("inf")

    def test_snapshot_style(self):
        t = FactorDeltaTracker(n_modes=1)
        U = np.eye(3)
        t.update(0, U)
        assert t.update(0, 2.0 * U) == pytest.approx(1.0)
        assert t.delta(0) == pytest.approx(1.0)

    def test_caller_baseline_style_keeps_no_snapshot(self):
        t = FactorDeltaTracker(n_modes=1)
        U = np.eye(3)
        assert t.update(0, 2.0 * U, previous=U) == pytest.approx(1.0)
        # No snapshot was stored, so a snapshot-style update is "first".
        assert t.update(0, U) == float("inf")

    def test_peek_does_not_record(self):
        t = FactorDeltaTracker(n_modes=1)
        U = np.eye(2)
        t.update(0, U)
        assert t.peek(0, 3.0 * U) == pytest.approx(2.0)
        assert t.delta(0) == float("inf")

    def test_deltas_and_reset(self):
        t = FactorDeltaTracker(n_modes=2)
        t.update(0, np.ones((2, 2)))
        assert len(t.deltas()) == 2
        t.reset()
        assert t.deltas() == [float("inf")] * 2


class TestFitTrajectory:
    def test_warmup_then_converging(self):
        traj = FitTrajectory()
        label, _ = traj.observe(0.1)
        assert label == TRAJECTORY_WARMUP
        traj.observe(0.2)
        label, rate = traj.observe(0.3)
        assert label == TRAJECTORY_CONVERGING
        assert rate == pytest.approx(1.0)

    def test_stalled_on_flat_series(self):
        traj = FitTrajectory(window=3, stall_tol=1e-6)
        for _ in range(5):
            label, _ = traj.observe(0.5)
        assert label == TRAJECTORY_STALLED

    def test_swamped_requires_congruence(self):
        flat = FitTrajectory(window=3, stall_tol=1e-6)
        for _ in range(5):
            label, _ = flat.observe(0.5, congruence=0.1)
        assert label == TRAJECTORY_STALLED
        swamp = FitTrajectory(window=3, stall_tol=1e-6)
        for _ in range(5):
            label, _ = swamp.observe(0.5, congruence=0.99)
        assert label == TRAJECTORY_SWAMPED

    def test_swamped_on_slow_crawl(self):
        # Fit still rising, but with decay ratio ~0.99 and degenerate
        # components: a swamp, not honest convergence.
        traj = FitTrajectory(window=5, stall_tol=1e-9, swamp_rate=0.95)
        fit, step = 0.5, 1e-3
        label = None
        for _ in range(8):
            fit += step
            step *= 0.99
            label, _ = traj.observe(fit, congruence=0.99)
        assert label == TRAJECTORY_SWAMPED

    def test_reset(self):
        traj = FitTrajectory()
        for _ in range(4):
            traj.observe(0.5)
        traj.reset()
        assert traj.label == TRAJECTORY_WARMUP
        assert traj.rate is None


class TestHealthCollector:
    def test_observe_cycle(self):
        hc = HealthCollector()
        hc.start_run(n_modes=2)
        hc.begin_iteration(0)
        H = np.diag([2.0, 1.0])
        U0, U1 = np.eye(3)[:, :2], np.eye(4)[:, :2]
        hc.observe_mode(0, H, U0, U0)
        hc.observe_mode(1, H, U1, 2.0 * U1)
        reading = hc.end_iteration(
            IterationRecord(0, grams=[gram(U0), gram(U1)], fit=0.5)
        )
        assert reading.condition_numbers == [pytest.approx(2.0)] * 2
        assert reading.factor_deltas[0] == 0.0
        assert reading.factor_deltas[1] == pytest.approx(1.0)
        assert reading.worst_mode in (0, 1)
        assert hc.has_data

    def test_record_fallback_sites(self):
        hc = HealthCollector()
        hc.start_run(n_modes=2)
        hc.begin_iteration(3)
        hc.record_fallback(1, mode=1, iteration=3)
        assert hc.total_pinv_fallbacks == 1
        assert hc.fallback_sites == [(3, 1)]
        reading = hc.end_iteration(IterationRecord(3, fit=0.1))
        assert reading.pinv_fallbacks == 1

    def test_reset(self):
        hc = HealthCollector()
        hc.start_run(n_modes=1)
        hc.end_iteration(IterationRecord(0, fit=0.1))
        hc.reset()
        assert not hc.has_data
        assert hc.total_pinv_fallbacks == 0


class TestCpAlsHealth:
    @pytest.fixture(scope="class")
    def planted(self):
        shape = (9, 8, 7)
        return lowrank_tensor(shape, rank=2, nnz=int(np.prod(shape)),
                              random_state=5)

    def test_off_by_default(self, planted):
        res = repro.cp_als(planted.tensor, rank=2, n_iter_max=3,
                           strategy="bdt", random_state=0)
        assert res.health_readings is None

    def test_collecting_populates_readings(self, planted):
        with switch.enabled("health") as _on:
            hc = _on["health"]
            res = repro.cp_als(planted.tensor, rank=2, n_iter_max=5,
                               tol=0.0, strategy="bdt", random_state=0)
        assert res.health_readings is not None
        assert len(res.health_readings) == 5
        assert len(hc.readings) == 5
        r = hc.readings[-1]
        assert len(r.condition_numbers) == planted.tensor.ndim
        assert all(c >= 1.0 for c in r.condition_numbers)
        assert all(np.isfinite(d) for d in r.factor_deltas)
        assert 0.0 <= r.congruence <= 1.0
        assert r.trajectory in (TRAJECTORY_CONVERGING, TRAJECTORY_STALLED,
                                TRAJECTORY_SWAMPED)
        assert [x.iteration for x in hc.readings] == list(range(5))

    @pytest.mark.parametrize("how", ["switch:health", "switch:all",
                                     "env:all"])
    def test_factors_bitwise_identical_with_telemetry(self, planted, how,
                                                      tmp_path):
        """Telemetry must not perturb the numeric path at all: the same
        factors and fits with ``REPRO_OBS`` unset, with the switch on in
        code, and with ``REPRO_OBS`` set."""
        kwargs = dict(rank=2, n_iter_max=6, tol=0.0, strategy="bdt",
                      random_state=42)
        off = repro.cp_als(planted.tensor, **kwargs)
        where, spec = how.split(":")
        if where == "switch":
            with switch.enabled(spec):
                on = repro.cp_als(planted.tensor, **kwargs)
        else:
            on = _cp_als_in_fresh_process(planted.tensor, kwargs,
                                          {"REPRO_OBS": spec}, tmp_path)
        assert (off.ktensor.weights == on.ktensor.weights).all()
        for a, b in zip(off.ktensor.factors, on.ktensor.factors):
            assert (a == b).all()
        assert off.fits == on.fits

    def test_events_carry_health_fields(self, planted):
        with switch.enabled("health,events") as on:
            log = on["events"]
            repro.cp_als(planted.tensor, rank=2, n_iter_max=3, tol=0.0,
                         strategy="bdt", random_state=0)
        iterations = [e for e in log.tail() if e["kind"] == "iteration"]
        assert iterations
        assert "health_congruence" in iterations[-1]
        assert "health_trajectory" in iterations[-1]
        assert "health_max_condition" in iterations[-1]


def _cp_als_in_fresh_process(tensor, kwargs, env, tmp_path):
    """``cp_als`` in a new interpreter with ``env`` set before import."""
    import os
    import pickle
    import subprocess
    import sys

    job = tmp_path / "job.pkl"
    out = tmp_path / "result.pkl"
    with open(job, "wb") as fh:
        pickle.dump((tensor, kwargs), fh)
    code = (
        "import pickle, sys; import repro; "
        "tensor, kwargs = pickle.load(open(sys.argv[1], 'rb')); "
        "result = repro.cp_als(tensor, **kwargs); "
        "assert result.health_readings is not None; "
        "pickle.dump(result, open(sys.argv[2], 'wb'))"
    )
    subprocess.run([sys.executable, "-c", code, str(job), str(out)],
                   check=True, env={**os.environ, **env})
    with open(out, "rb") as fh:
        return pickle.load(fh)


class TestEarlyStopCallback:
    def test_truthy_callback_return_stops(self):
        rng = np.random.default_rng(2)
        t = random_coo(rng, (8, 7, 6), 200)
        seen = []

        def stop_at_two(iteration, fit, model):
            seen.append(iteration)
            return iteration >= 2

        res = repro.cp_als(t, rank=2, n_iter_max=20, tol=0.0,
                           strategy="bdt", random_state=0,
                           callback=stop_at_two)
        assert seen == [0, 1, 2]
        assert res.n_iterations == 3


class TestHealthArtifact:
    def _readings(self, tensor):
        with switch.enabled("health") as _on:
            hc = _on["health"]
            repro.cp_als(tensor, rank=2, n_iter_max=4, tol=0.0,
                         strategy="bdt", random_state=0)
        return list(hc.readings)

    def test_round_trip_validates_and_loads(self, tmp_path):
        rng = np.random.default_rng(3)
        t = random_coo(rng, (7, 6, 5), 150)
        readings = self._readings(t)
        path = write_health(str(tmp_path), readings, run_id="run-x",
                            rank=2, strategy="bdt")
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_health_artifact(doc) == []
        assert doc["run_id"] == "run-x"
        assert doc["n_iterations"] == len(readings)
        arts = TraceArtifacts(str(tmp_path))
        assert arts.health() == doc

    def test_validate_catches_problems(self):
        doc = health_artifact([], run_id="r")
        doc["schema"] = "bogus/v9"
        assert any("schema" in e for e in validate_health_artifact(doc))
        doc = health_artifact(
            [dict(iteration=0, condition_numbers=[2.0],
                  truncated_eigenvalues=[0], factor_deltas=[0.1],
                  congruence=0.5, congruence_pair=None, pinv_fallbacks=0,
                  fit=0.5, fit_delta=None, trajectory="warmup",
                  convergence_rate=None)]
        )
        doc["total_pinv_fallbacks"] = 7
        assert any("total_pinv_fallbacks" in e
                   for e in validate_health_artifact(doc))
        bad = health_artifact(
            [dict(iteration=0, condition_numbers=[0.5],
                  truncated_eigenvalues=[0], factor_deltas=[0.1],
                  congruence=1.7, congruence_pair=None, pinv_fallbacks=0,
                  fit=0.5, fit_delta=None, trajectory="sideways",
                  convergence_rate=None)]
        )
        errors = validate_health_artifact(bad)
        assert any("condition number" in e for e in errors)
        assert any("congruence" in e for e in errors)
        assert any("trajectory" in e for e in errors)

    def test_artifacts_loader_skips_wrong_schema(self, tmp_path):
        with open(tmp_path / "health.json", "w") as fh:
            json.dump({"schema": "not-health/v1"}, fh)
        arts = TraceArtifacts(str(tmp_path))
        assert arts.health() is None
        assert any(name == "health.json" for name, _ in arts.skipped)

    def test_pre_health_trace_dir_is_none(self, tmp_path):
        arts = TraceArtifacts(str(tmp_path))
        assert arts.health() is None
        assert arts.skipped == []

    def test_write_refuses_invalid(self, tmp_path):
        bad = [dict(iteration=0, condition_numbers=[2.0],
                    truncated_eigenvalues=[0], factor_deltas=[0.1],
                    congruence=0.5, congruence_pair=None, pinv_fallbacks=0,
                    fit=0.5, fit_delta=None, trajectory="sideways",
                    convergence_rate=None)]
        with pytest.raises(ValueError, match="invalid health artifact"):
            write_health(str(tmp_path), bad)

    def test_format_health_renders(self):
        rng = np.random.default_rng(4)
        t = random_coo(rng, (7, 6, 5), 150)
        doc = health_artifact(self._readings(t), rank=2, strategy="bdt")
        text = health.format_health(doc)
        assert "trajectory" in text
        assert "pinv fallbacks" in text


class TestLiveGauges:
    def test_health_gauges_in_registry(self):
        from repro.obs.metrics import registry

        rng = np.random.default_rng(6)
        t = random_coo(rng, (7, 6, 5), 150)
        registry.reset()
        try:
            with switch.enabled("health") as _on:
                hc = _on["health"]
                repro.cp_als(t, rank=2, n_iter_max=4, tol=0.0,
                             strategy="bdt", random_state=0)
            gauges = registry.snapshot()["gauges"]
        finally:
            registry.reset()
        last = hc.readings[-1]
        assert gauges["health.max_condition_number"] == \
            last.max_condition_number
        assert gauges["health.max_factor_delta"] == last.max_factor_delta
        assert gauges["health.congruence"] == last.congruence
        assert gauges["health.truncated_eigenvalues"] == last.n_truncated
        assert gauges["health.trajectory_code"] == \
            health.TRAJECTORY_CODES[last.trajectory]
