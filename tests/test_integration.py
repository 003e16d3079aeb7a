"""End-to-end integration tests across subsystem boundaries.

These tie the whole pipeline together: every MTTKRP implementation in the
repository against every other on one tensor; file-roundtrip workflows
through the CLI surface; and full decompose-store-reload-predict loops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.baselines import make_backend
from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.cpals import cp_als
from repro.core.engine import MemoizedMttkrp
from repro.formats.csf import CsfTensor
from repro.formats.hicoo import HicooTensor
from repro.io.frostt import read_tns, write_tns
from repro.io.model import load_model, save_model
from repro.parallel import ParallelMemoizedMttkrp
from repro.synth.lowrank import lowrank_tensor
from repro.synth.skewed import skewed_random_tensor

from .helpers import dense_mttkrp, random_coo, random_factors


class TestAllImplementationsAgree:
    """Every MTTKRP path in the repository, one tensor, one truth."""

    @pytest.fixture(scope="class")
    def setting(self):
        rng = np.random.default_rng(0)
        tensor = random_coo(rng, (7, 6, 5, 4), 90)
        factors = random_factors(rng, tensor.shape, 4)
        reference = [
            dense_mttkrp(tensor.to_dense(), factors, m) for m in range(4)
        ]
        return tensor, factors, reference

    def _check(self, outputs, reference):
        for out, ref in zip(outputs, reference):
            np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "name", ["coo", "ttv", "splatt", "splatt1", "memoized:star",
                 "memoized:bdt", "memoized:chain", "memoized:two_way"]
    )
    def test_registry_backends(self, setting, name):
        tensor, factors, reference = setting
        backend = make_backend(name, tensor)
        backend.set_factors(factors)
        self._check([backend.mttkrp(m) for m in range(4)], reference)

    def test_parallel_engines(self, setting):
        tensor, factors, reference = setting
        with ParallelMemoizedMttkrp(tensor, "bdt", factors, n_workers=3,
                                    min_chunk_rows=4) as backend:
            self._check([backend.mttkrp(m) for m in range(4)], reference)

    def test_hicoo_format(self, setting):
        tensor, factors, reference = setting
        h = HicooTensor(tensor, block_size=4)
        self._check([h.mttkrp(factors, m) for m in range(4)], reference)

    def test_csf1_all_levels(self, setting):
        tensor, factors, reference = setting
        csf = CsfTensor(tensor, (2, 0, 3, 1))
        for level in range(4):
            mode = csf.mode_order[level]
            np.testing.assert_allclose(
                csf.mttkrp_level(factors, level), reference[mode],
                rtol=1e-9, atol=1e-9,
            )

    @given(hst.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_property_csf1_matches_engine(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(3, 6))
        shape = tuple(int(d) for d in rng.integers(3, 7, size=order))
        tensor = random_coo(rng, shape, int(rng.integers(5, 50)))
        factors = random_factors(rng, shape, 2)
        perm = rng.permutation(order)
        csf = CsfTensor(tensor, tuple(int(p) for p in perm))
        engine = MemoizedMttkrp(tensor, "bdt", factors)
        for level in range(order):
            mode = csf.mode_order[level]
            np.testing.assert_allclose(
                csf.mttkrp_level(factors, level),
                engine.mttkrp(mode),
                rtol=1e-9, atol=1e-9,
            )


class TestFileWorkflows:
    def test_tns_roundtrip_preserves_decomposition(self, tmp_path):
        planted = lowrank_tensor((8, 7, 6), rank=2, nnz=8 * 7 * 6,
                                 random_state=1)
        path = tmp_path / "x.tns"
        write_tns(planted.tensor, path)
        reloaded = read_tns(path)
        a = cp_als(planted.tensor, 2, strategy="bdt", n_iter_max=5, tol=0.0,
                   random_state=2)
        b = cp_als(reloaded, 2, strategy="bdt", n_iter_max=5, tol=0.0,
                   random_state=2)
        np.testing.assert_allclose(a.fits, b.fits, rtol=1e-10)

    def test_decompose_save_reload_predict(self, tmp_path):
        planted = lowrank_tensor((9, 8, 7), rank=2, nnz=9 * 8 * 7,
                                 random_state=3)
        result = cp_als(planted.tensor, 2, strategy="auto", n_iter_max=40,
                        random_state=4)
        path = tmp_path / "model.npz"
        save_model(result.ktensor, path)
        model = load_model(path)
        coords = planted.tensor.idx[:10]
        np.testing.assert_allclose(
            model.values_at(coords), result.ktensor.values_at(coords),
            rtol=1e-12,
        )
        assert model.fit(planted.tensor) == pytest.approx(result.fit, abs=1e-8)


class TestPlannerEngineLoop:
    def test_auto_plan_runs_chosen_strategy(self):
        tensor = skewed_random_tensor((30, 30, 30, 30), 2000, 1.1,
                                      random_state=5)
        result = cp_als(tensor, 4, strategy="auto", n_iter_max=3, tol=0.0,
                        random_state=6)
        report = result.planner_report
        assert result.strategy_name == report.best.strategy.name
        # Every scored candidate must be runnable, not just the winner.
        for scored in report.scored[:4]:
            engine = MemoizedMttkrp(tensor, scored.strategy)
            engine.set_factors(
                random_factors(np.random.default_rng(7), tensor.shape, 4)
            )
            assert engine.mttkrp(0).shape == (30, 4)

    def test_memory_budget_respected_at_runtime(self):
        tensor = skewed_random_tensor((40, 40, 40, 40), 3000, 1.0,
                                      random_state=8)
        from repro.model.planner import plan

        report = plan(tensor, 8)
        budget = report.best.cost.total_memory_bytes
        engine = MemoizedMttkrp(tensor, report.best.strategy)
        engine.set_factors(
            random_factors(np.random.default_rng(9), tensor.shape, 8)
        )
        peak = 0
        for _ in range(2):
            for n in engine.mode_order:
                engine.mttkrp(n)
                peak = max(
                    peak,
                    engine.live_value_bytes() + engine.symbolic.index_nbytes(),
                )
                engine.update_factor(n, engine.factors[n])
        assert peak <= budget
