"""Tests for closed-loop model fitting (repro.model.fit) and model I/O."""

import numpy as np
import pytest

from repro.core import strategy as S
from repro.core.kruskal import KruskalTensor
from repro.io.model import load_model, save_model
from repro.model.cost import MachineModel
from repro.model.fit import (WorkSample, collect_samples, fit_machine_model,
                             fitted_machine)
from repro.synth.skewed import skewed_random_tensor

from .helpers import random_factors


class TestFitMachineModel:
    def test_exact_recovery(self):
        """Noise-free samples recover the generating alpha/beta."""
        true = MachineModel(alpha_per_flop=3e-10, beta_per_word=7e-10)
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(6):
            f = int(rng.integers(10**6, 10**8))
            w = int(rng.integers(10**6, 10**8))
            samples.append(WorkSample(f, w, true.seconds(f, w)))
        fitted = fit_machine_model(samples)
        assert fitted.alpha_per_flop == pytest.approx(3e-10, rel=1e-6)
        assert fitted.beta_per_word == pytest.approx(7e-10, rel=1e-6)

    def test_noisy_recovery_close(self):
        true = MachineModel(alpha_per_flop=2e-10, beta_per_word=5e-10)
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(20):
            f = int(rng.integers(10**7, 10**9))
            w = int(rng.integers(10**7, 10**9))
            t = true.seconds(f, w) * (1 + 0.05 * rng.standard_normal())
            samples.append(WorkSample(f, w, max(t, 0)))
        fitted = fit_machine_model(samples)
        assert fitted.alpha_per_flop == pytest.approx(2e-10, rel=0.3)
        assert fitted.beta_per_word == pytest.approx(5e-10, rel=0.3)

    def test_nonnegative_coefficients(self):
        # Adversarial samples that would push OLS negative.
        samples = [
            WorkSample(100, 100, 1.0),
            WorkSample(200, 100, 1.0),
        ]
        fitted = fit_machine_model(samples)
        assert fitted.alpha_per_flop >= 0
        assert fitted.beta_per_word >= 0

    def test_nnls_imported_on_first_fit_only(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.model.fit import WorkSample, fit_machine_model\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "m = fit_machine_model([WorkSample(10, 0, 2.0),"
            " WorkSample(0, 10, 3.0)])\n"
            "assert 'scipy.optimize' in sys.modules\n"
            "print(m.alpha_per_flop, m.beta_per_word)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        alpha, beta = map(float, out.stdout.split())
        assert alpha == pytest.approx(0.2)
        assert beta == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_machine_model([])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fit_machine_model([WorkSample(1, 1, -1.0)])

    def test_degenerate_zero_work(self):
        fitted = fit_machine_model([WorkSample(0, 0, 0.0)])
        assert fitted.alpha_per_flop > 0


class TestCollectSamples:
    @pytest.fixture(scope="class")
    def tensor(self):
        return skewed_random_tensor((60, 70, 50, 40), 4000, 1.0,
                                    random_state=0)

    def test_counts_and_times_populated(self, tensor):
        samples = collect_samples(
            tensor, [S.star(4), S.balanced_binary(4)], rank=4, repeats=1
        )
        assert len(samples) == 2
        for s in samples:
            assert s.flops > 0
            assert s.words > 0
            assert s.seconds > 0

    def test_star_has_more_flops(self, tensor):
        samples = collect_samples(
            tensor, [S.star(4), S.balanced_binary(4)], rank=4, repeats=1
        )
        by_label = {s.label: s for s in samples}
        assert by_label["star"].flops > by_label["bdt"].flops

    def test_fitted_machine_end_to_end(self, tensor):
        machine = fitted_machine(tensor, rank=4, repeats=1)
        assert machine.name == "fitted"
        # Sanity: per-flop cost between 1ps and 1ms.
        assert 1e-12 < machine.alpha_per_flop + machine.beta_per_word < 1e-3

    def test_fitted_machine_usable_by_planner(self, tensor):
        from repro.model.planner import plan

        machine = fitted_machine(tensor, rank=4, repeats=1)
        report = plan(tensor, 4, machine=machine)
        assert report.machine is machine
        assert report.best.feasible


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        model = KruskalTensor(
            rng.random(3), random_factors(rng, (5, 6, 7), 3)
        )
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_allclose(back.weights, model.weights)
        for a, b in zip(back.factors, model.factors):
            np.testing.assert_allclose(a, b)

    def test_missing_weights_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, factor_0=np.ones((2, 1)))
        with pytest.raises(ValueError, match="weights"):
            load_model(path)

    def test_missing_factors_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, weights=np.ones(1))
        with pytest.raises(ValueError, match="factor"):
            load_model(path)

    def test_creates_directories(self, tmp_path):
        model = KruskalTensor(np.ones(1), [np.ones((2, 1)), np.ones((3, 1))])
        path = tmp_path / "deep" / "nested" / "model.npz"
        save_model(model, path)
        assert load_model(path).shape == (2, 3)
