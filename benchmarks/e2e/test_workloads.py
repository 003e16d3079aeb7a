"""Input generator determinism and the correctness check's fit."""

import os
import subprocess
import sys

import numpy as np
import pytest

import workloads as wl

SMALL = [w.smoke() for w in wl.WORKLOADS.values()]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, 7):
        idx, vals = wl.generate(workload, seed)
        again_idx, again_vals = wl.generate(workload, seed)
        assert np.array_equal(idx, again_idx)
        assert np.array_equal(vals, again_vals)
        assert idx.shape == (workload.nnz, len(workload.shape))
        assert (idx >= 0).all() and (idx < np.array(workload.shape)).all()
        assert len(np.unique(idx, axis=0)) == workload.nnz
        assert (vals > 0).all()
    other_idx, _ = wl.generate(workload, 1)
    assert not np.array_equal(wl.generate(workload, 0)[0], other_idx)


def test_tns_text_round_trips_exactly(tmp_path):
    workload = SMALL[0]
    paths = wl.materialize(workload, 3, str(tmp_path))
    assert paths["generated_s"] > 0
    idx, vals = wl.load_input(paths["npz"])
    table = np.loadtxt(paths["tns"], ndmin=2)
    assert np.array_equal(table[:, :-1].astype(np.int64) - 1, idx)
    assert np.array_equal(table[:, -1], vals)
    assert wl.materialize(workload, 3, str(tmp_path))["generated_s"] == 0.0


def test_generator_does_not_import_repro():
    code = ("import sys, workloads; "
            "sys.exit(any(m.split('.')[0] == 'repro' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=os.path.dirname(wl.__file__))
    assert proc.returncode == 0


def test_recomputed_fit_matches_cp_als(tmp_path):
    from repro.core.coo import CooTensor
    from repro.core.cpals import cp_als
    from repro.io.model import save_model

    workload = wl.WORKLOADS["restarts4d_r8"].smoke()
    idx, vals = wl.generate(workload, 0)
    result = cp_als(CooTensor(idx, vals, workload.shape), 5, n_iter_max=8,
                    tol=0.0, random_state=0)
    path = tmp_path / "model.npz"
    save_model(result.ktensor, path)
    weights, factors = wl.load_model(str(path))
    fit = wl.recompute_fit(idx, vals, weights, factors, chunk=97)
    assert fit == pytest.approx(result.fit, rel=1e-9)


def test_recomputed_fit_matches_dense_definition():
    rng = np.random.default_rng(0)
    shape = (4, 5, 3)
    dense = np.where(rng.random(shape) < 0.3, rng.random(shape), 0.0)
    idx = np.argwhere(dense)
    vals = dense[tuple(idx.T)]
    weights = rng.random(2)
    factors = [rng.random((n, 2)) for n in shape]
    model = np.einsum("r,ir,jr,kr->ijk", weights, *factors)
    expected = 1 - np.linalg.norm(dense - model) / np.linalg.norm(dense)
    fit = wl.recompute_fit(idx, vals, weights, factors, chunk=5)
    assert fit == pytest.approx(expected, rel=1e-12)
