"""CP-ALS on tensors with empty slices.

``cp_als`` solves, normalizes and fits each mode on the rows of its
nonempty slices only.  These tests pin that this changes no bit against
the full-row loop in :func:`tests.helpers.reference_cp_als`, and give the
degenerate cases (one live slice, fewer live slices than the rank, no
nonzeros at all) a defined outcome.
"""

import contextlib

import numpy as np
import pytest

from repro.baselines import CooMttkrp, SplattMttkrp, TtvMttkrp
from repro.core.coo import CooTensor
from repro.core.cpals import cp_als
from repro.core.engine import MemoizedMttkrp
from repro.parallel import ParallelMemoizedMttkrp
from repro.perf import counters as perf

from .helpers import reference_cp_als

N_ITER = 5


def sliced_tensor(shape, nnz, live, seed=0) -> CooTensor:
    """Random tensor whose mode ``m`` has exactly ``live[m]`` nonempty slices.

    Modes missing from ``live`` have every slice nonempty.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for m, dim in enumerate(shape):
        keep = np.sort(rng.choice(dim, live.get(m, dim), replace=False))
        # Every kept slice gets at least one nonzero.
        pick = np.concatenate([np.arange(keep.size),
                               rng.integers(0, keep.size, nnz - keep.size)])
        cols.append(keep[rng.permutation(pick)])
    return CooTensor(np.column_stack(cols), rng.random(nnz) + 0.5, shape)


CASES = {
    "one_mode": lambda: sliced_tensor((30, 24, 40), 600, {2: 11}),
    # Tall enough that BLAS sums the Gram's 1500 rows in more than one
    # block: a Gram over the 600 live rows alone would round differently.
    "one_mode_tall": lambda: sliced_tensor((30, 24, 1500), 2000, {2: 600}),
    "every_mode": lambda: sliced_tensor((20, 18, 26, 15), 500,
                                        {0: 9, 1: 13, 2: 5, 3: 12}, seed=1),
    "no_empty": lambda: sliced_tensor((12, 10, 9), 400, {}, seed=2),
}


@contextlib.contextmanager
def make_engine(kind, tensor, strategy):
    if kind == "inline":
        yield MemoizedMttkrp(tensor, strategy)
    else:
        with ParallelMemoizedMttkrp(tensor, strategy, n_workers=2,
                                    min_chunk_rows=1) as engine:
            yield engine


def fit_both(tensor, rank, strategy="star", kind="inline", seed=3):
    """``cp_als`` and the full-row reference on fresh engines."""
    with make_engine(kind, tensor, strategy) as engine:
        result = cp_als(tensor, rank, engine_factory=lambda t: engine,
                        n_iter_max=N_ITER, tol=0, random_state=seed)
    with make_engine(kind, tensor, strategy) as engine:
        fits, ktensor = reference_cp_als(tensor, rank, engine, N_ITER, seed)
    return result, fits, ktensor


def assert_bitwise(result, fits, ktensor):
    assert result.fits == fits
    np.testing.assert_array_equal(result.ktensor.weights, ktensor.weights)
    for got, want in zip(result.ktensor.factors, ktensor.factors):
        np.testing.assert_array_equal(got, want)


def empty_rows(tensor, mode):
    return tensor.slice_nnz(mode) == 0


class TestMatchesFullRowReference:
    def test_cases_have_the_intended_empty_slices(self):
        empty = {name: [bool(empty_rows(t, m).any()) for m in range(t.ndim)]
                 for name, t in ((n, make()) for n, make in CASES.items())}
        assert empty == {"one_mode": [False, False, True],
                         "one_mode_tall": [False, False, True],
                         "every_mode": [True] * 4,
                         "no_empty": [False] * 3}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("strategy", ["star", "balanced"])
    @pytest.mark.parametrize("kind", ["inline", "thread"])
    @pytest.mark.parametrize("rank", [1, 6])
    def test_bitwise_equal(self, case, strategy, kind, rank):
        assert_bitwise(*fit_both(CASES[case](), rank, strategy, kind))

    @pytest.mark.parametrize("backend", [CooMttkrp, SplattMttkrp, TtvMttkrp])
    def test_baseline_backends(self, backend):
        tensor = CASES["every_mode"]()
        result = cp_als(tensor, 6, engine_factory=backend, n_iter_max=N_ITER,
                        tol=0, random_state=3)
        assert_bitwise(result, *reference_cp_als(tensor, 6, backend(tensor),
                                                 N_ITER, 3))


class TestEmptySliceFaults:
    def test_empty_slice_rows_are_exactly_zero(self):
        tensor = CASES["every_mode"]()
        result = cp_als(tensor, 6, strategy="star", n_iter_max=N_ITER, tol=0,
                        random_state=0)
        for mode, U in enumerate(result.ktensor.factors):
            empty = empty_rows(tensor, mode)
            assert np.all(U[empty] == 0.0)
            assert np.all(U[~empty].any(axis=1))

    def test_single_nonempty_slice(self):
        tensor = sliced_tensor((6, 30, 7), 40, {1: 1})
        # Mode 1's Gram has rank 1, so mode 0's H = G1 * G2 has rank at
        # most 7 < 8: its solves fall back to the pseudoinverse.
        with perf.counting() as counters:
            result, fits, ktensor = fit_both(tensor, 8)
        assert counters.extra["pinv_fallbacks"] > 0
        assert_bitwise(result, fits, ktensor)
        assert np.all(np.isfinite(result.fits))
        U = result.ktensor.factors[1]
        assert np.count_nonzero(U.any(axis=1)) == 1

    def test_fewer_nonempty_rows_than_rank(self):
        tensor = sliced_tensor((50, 40, 30), 400, {0: 3})
        result, fits, ktensor = fit_both(tensor, 8)
        assert_bitwise(result, fits, ktensor)
        assert np.all(np.isfinite(result.fits))
        assert np.count_nonzero(result.ktensor.factors[0].any(axis=1)) == 3

    @pytest.mark.parametrize("strategy", ["auto", "star"])
    def test_zero_nnz_tensor(self, strategy):
        tensor = CooTensor.empty((4, 5, 6))
        result = cp_als(tensor, 3, strategy=strategy, n_iter_max=4, tol=0,
                        random_state=0)
        assert result.fits == [1.0] * 4
        for U in result.ktensor.factors:
            assert np.all(U == 0.0)
