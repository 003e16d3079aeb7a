"""Tests for the dense multilinear-algebra substrate (repro.linalg)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coo import CooTensor
from repro.core.kruskal import KruskalTensor
from repro.linalg import (GramCache, column_norms, gram, hadamard_grams,
                          innerprod_from_mttkrp, khatri_rao, khatri_rao_rows,
                          normalize_columns, psd_pinv,
                          solve_normal_equations, sparse_kruskal_innerprod)
from repro.obs import switch

from .helpers import dense_mttkrp, random_coo, random_factors


class TestKhatriRao:
    def test_two_matrices_matches_kron_columns(self):
        rng = np.random.default_rng(0)
        A, B = rng.random((3, 2)), rng.random((4, 2))
        W = khatri_rao([A, B])
        assert W.shape == (12, 2)
        for r in range(2):
            np.testing.assert_allclose(W[:, r], np.kron(A[:, r], B[:, r]))

    def test_three_matrices_associative(self):
        rng = np.random.default_rng(1)
        mats = [rng.random((s, 3)) for s in (2, 3, 4)]
        direct = khatri_rao(mats)
        nested = khatri_rao([khatri_rao(mats[:2]), mats[2]])
        np.testing.assert_allclose(direct, nested)

    def test_reverse(self):
        rng = np.random.default_rng(2)
        mats = [rng.random((s, 2)) for s in (2, 3)]
        np.testing.assert_allclose(
            khatri_rao(mats, reverse=True), khatri_rao(mats[::-1])
        )

    def test_single_matrix_identity(self):
        A = np.random.default_rng(3).random((4, 2))
        np.testing.assert_allclose(khatri_rao([A]), A)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            khatri_rao([])

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            khatri_rao([np.ones((2, 2)), np.ones((2, 3))])

    def test_row_major_ordering_matches_matricize(self):
        """khatri_rao ordering matches CooTensor.matricize columns."""
        rng = np.random.default_rng(4)
        t = random_coo(rng, (3, 4, 5), 20)
        factors = random_factors(rng, t.shape, 2)
        M_via_matricize = t.matricize(0) @ khatri_rao(factors[1:])
        np.testing.assert_allclose(
            M_via_matricize, dense_mttkrp(t.to_dense(), factors, 0),
            atol=1e-12,
        )


class TestKhatriRaoRows:
    def test_matches_full_product(self):
        rng = np.random.default_rng(5)
        A, B = rng.random((3, 2)), rng.random((4, 2))
        full = khatri_rao([A, B])
        rows_a = np.array([0, 2, 1])
        rows_b = np.array([1, 3, 0])
        sel = khatri_rao_rows([A, B], [rows_a, rows_b])
        np.testing.assert_allclose(sel, full[rows_a * 4 + rows_b])

    def test_input_not_mutated(self):
        A = np.ones((2, 2))
        B = np.full((2, 2), 2.0)
        khatri_rao_rows([A, B], [np.array([0]), np.array([0])])
        np.testing.assert_array_equal(A, 1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            khatri_rao_rows([np.ones((2, 2))], [])


class TestGram:
    def test_gram_symmetric(self):
        U = np.random.default_rng(6).random((5, 3))
        G = gram(U)
        np.testing.assert_allclose(G, G.T)
        np.testing.assert_allclose(G, U.T @ U, atol=1e-12)

    def test_hadamard_grams_skip(self):
        rng = np.random.default_rng(7)
        grams = [gram(rng.random((4, 2))) for _ in range(3)]
        out = hadamard_grams(grams, skip=1)
        np.testing.assert_allclose(out, grams[0] * grams[2])

    def test_hadamard_grams_all(self):
        rng = np.random.default_rng(8)
        grams = [gram(rng.random((4, 2))) for _ in range(3)]
        np.testing.assert_allclose(
            hadamard_grams(grams), grams[0] * grams[1] * grams[2]
        )

    def test_skip_only_matrix_gives_ones(self):
        out = hadamard_grams([np.full((2, 2), 7.0)], skip=0)
        np.testing.assert_allclose(out, 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hadamard_grams([])

    def test_skip_out_of_range(self):
        with pytest.raises(ValueError):
            hadamard_grams([np.ones((2, 2))], skip=5)

    def test_gram_cache_update(self):
        rng = np.random.default_rng(9)
        factors = random_factors(rng, (3, 4, 5), 2)
        cache = GramCache(factors)
        newU = rng.random((4, 2))
        cache.update(1, newU)
        np.testing.assert_allclose(cache[1], gram(newU), atol=1e-12)
        expected = gram(factors[0]) * gram(newU)
        np.testing.assert_allclose(cache.combined(skip=2), expected, atol=1e-12)
        assert len(cache) == 3


class TestSolve:
    def test_well_conditioned(self):
        rng = np.random.default_rng(10)
        U_true = rng.random((6, 3))
        H = gram(rng.random((8, 3))) + np.eye(3)
        M = U_true @ H
        np.testing.assert_allclose(
            solve_normal_equations(M, H), U_true, atol=1e-8
        )

    def test_singular_falls_back_to_pinv(self):
        H = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        M = np.array([[2.0, 2.0]])
        U = solve_normal_equations(M, H)
        # Minimum-norm solution of U H = M.
        np.testing.assert_allclose(U @ H, M, atol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_normal_equations(np.ones((2, 3)), np.ones((2, 2)))

    def test_psd_pinv_inverts_full_rank(self):
        rng = np.random.default_rng(11)
        H = gram(rng.random((10, 4))) + 0.1 * np.eye(4)
        np.testing.assert_allclose(psd_pinv(H) @ H, np.eye(4), atol=1e-8)

    def test_psd_pinv_zero_matrix(self):
        np.testing.assert_allclose(psd_pinv(np.zeros((3, 3))), 0.0)

    def test_psd_pinv_rank_deficient(self):
        # Rank-2 PSD with one exact-zero eigenvalue: the pinv must invert
        # the range and annihilate the null space.
        rng = np.random.default_rng(12)
        B = rng.standard_normal((5, 2))
        H = B @ B.T  # 5x5, rank 2
        P = psd_pinv(H)
        np.testing.assert_allclose(P @ H @ P, P, atol=1e-10)
        np.testing.assert_allclose(H @ P @ H, H, atol=1e-10)

    def test_psd_pinv_diagnosed_counts_truncations(self):
        from repro.linalg.solve import PINV_RCOND, psd_pinv_diagnosed

        H = np.diag([1.0, 1.0, 0.0])
        pinv, n_truncated = psd_pinv_diagnosed(H)
        assert n_truncated == 1
        np.testing.assert_allclose(pinv, np.diag([1.0, 1.0, 0.0]))
        # Eigenvalues just under the relative cutoff are truncated too.
        H = np.diag([1.0, 0.5 * PINV_RCOND, 0.1 * PINV_RCOND])
        _, n_truncated = psd_pinv_diagnosed(H)
        assert n_truncated == 2
        _, n_truncated = psd_pinv_diagnosed(np.eye(4))
        assert n_truncated == 0

    def test_fallback_records_perf_counters(self):
        from repro.perf import counters as perf

        H = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1: Cholesky fails
        M = np.array([[2.0, 2.0]])
        with perf.counting() as c:
            solve_normal_equations(M, H)
        assert c.extra["pinv_fallbacks"] == 1
        assert c.extra["truncated_eigenvalues"] >= 1

    def test_cholesky_path_records_nothing(self):
        from repro.perf import counters as perf

        rng = np.random.default_rng(13)
        H = gram(rng.random((8, 3))) + np.eye(3)
        with perf.counting() as c:
            solve_normal_equations(rng.random((5, 3)), H)
        assert "pinv_fallbacks" not in c.extra

    def test_fallback_emits_structured_warning_event(self):
        H = np.zeros((3, 3))
        H[0, 0] = 1.0
        M = np.ones((4, 3))
        with switch.enabled("events") as _on:
            log = _on["events"]
            solve_normal_equations(M, H)
        warnings_ = [e for e in log.tail() if e["kind"] == "warning"]
        assert len(warnings_) == 1
        event = warnings_[0]
        assert event["metric"] == "pinv_fallback"
        assert event["n_truncated"] == 2
        assert "pseudoinverse" in event["message"]

    def test_fallback_site_attribution(self):
        from repro.linalg.solve import set_solve_site

        H = np.array([[1.0, 1.0], [1.0, 1.0]])
        M = np.array([[2.0, 2.0]])
        with switch.enabled("health") as _on:
            hc = _on["health"]
            set_solve_site(4, 1)
            try:
                solve_normal_equations(M, H)
            finally:
                set_solve_site(None, None)
        assert hc.fallback_sites == [(4, 1)]
        assert hc.total_pinv_fallbacks == 1


class TestNorms:
    def test_column_norms_orders(self):
        U = np.array([[3.0, 1.0], [4.0, -2.0]])
        np.testing.assert_allclose(column_norms(U), [5.0, np.sqrt(5.0)])
        np.testing.assert_allclose(column_norms(U, 1), [7.0, 3.0])
        np.testing.assert_allclose(column_norms(U, "max"), [4.0, 2.0])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            column_norms(np.ones((2, 2)), 3)

    def test_normalize_columns(self):
        U = np.array([[3.0, 0.0], [4.0, 0.0]])
        Un, norms = normalize_columns(U)
        np.testing.assert_allclose(norms, [5.0, 0.0])
        np.testing.assert_allclose(Un[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(Un[:, 1], 0.0)  # zero column untouched

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_unit_norms(self, rows, cols, seed):
        U = np.random.default_rng(seed).standard_normal((rows, cols))
        Un, norms = normalize_columns(U)
        recomputed = column_norms(Un)
        for r in range(cols):
            if norms[r] > 1e-12:
                assert recomputed[r] == pytest.approx(1.0)


class TestInnerProd:
    def test_sparse_kruskal_matches_dense(self):
        rng = np.random.default_rng(12)
        t = random_coo(rng, (4, 5, 3), 20)
        factors = random_factors(rng, t.shape, 3)
        weights = rng.random(3)
        model = KruskalTensor(weights, factors)
        expected = float(np.sum(t.to_dense() * model.to_dense()))
        assert sparse_kruskal_innerprod(t, weights, factors) == pytest.approx(
            expected
        )

    def test_innerprod_from_mttkrp_identity(self):
        rng = np.random.default_rng(13)
        t = random_coo(rng, (4, 5, 3), 25)
        factors = random_factors(rng, t.shape, 2)
        weights = rng.random(2)
        M_last = dense_mttkrp(t.to_dense(), factors, 2)
        via_mttkrp = innerprod_from_mttkrp(M_last, factors[2], weights)
        direct = sparse_kruskal_innerprod(t, weights, factors)
        assert via_mttkrp == pytest.approx(direct)

    def test_empty_tensor(self):
        t = CooTensor.empty((2, 2))
        assert sparse_kruskal_innerprod(
            t, np.ones(1), [np.ones((2, 1)), np.ones((2, 1))]
        ) == 0.0

    def test_wrong_factor_count(self):
        t = CooTensor.empty((2, 2))
        with pytest.raises(ValueError):
            sparse_kruskal_innerprod(t, np.ones(1), [np.ones((2, 1))])


class TestRowSeparability:
    """The solve, norms and fit inner product treat each row on its own.

    CP-ALS runs them on the rows of nonempty slices only and must get the
    bits of a full-row run, so each ``f(M[rows])`` must equal
    ``f(M)[rows]`` bitwise when the other rows of ``M`` are zero.  Rank 1
    is left out: there einsum sums the one column with SIMD partial sums,
    and the driver keeps every row.
    """

    RANKS = (2, 5, 8, 17, 64)

    @staticmethod
    def _zero_rows(R, n_live, seed=0):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((300, R))
        rows = np.sort(rng.choice(300, n_live, replace=False))
        live = np.zeros(300, dtype=bool)
        live[rows] = True
        M[~live] = 0.0
        return M, rows, live

    def _check_solve(self, M, rows, live, H, fallback):
        from repro.perf import counters as perf

        with perf.counting() as c:
            full = solve_normal_equations(M, H)
            part = solve_normal_equations(M[rows], H)
        assert c.extra.get("pinv_fallbacks", 0) == (2 if fallback else 0)
        np.testing.assert_array_equal(part, full[rows])
        assert np.all(full[~live] == 0.0)

    @pytest.mark.parametrize("R", RANKS)
    @pytest.mark.parametrize("n_live", [1, 2, 7, 180])
    def test_solve_cholesky_branch(self, R, n_live):
        M, rows, live = self._zero_rows(R, n_live)
        H = gram(np.random.default_rng(1).random((R + 4, R))) + np.eye(R)
        self._check_solve(M, rows, live, H, fallback=False)

    @pytest.mark.parametrize("R", RANKS)
    @pytest.mark.parametrize("n_live", [1, 2, 7, 180])
    def test_solve_pinv_branch(self, R, n_live):
        M, rows, live = self._zero_rows(R, n_live)
        # A zero last pivot makes Cholesky fail: the pinv branch runs.
        A = np.random.default_rng(2).random((R + 4, R))
        A[:, -1] = 0.0
        self._check_solve(M, rows, live, gram(A), fallback=True)

    @pytest.mark.parametrize("R", RANKS)
    @pytest.mark.parametrize("order", [2, "max"])
    def test_column_norms(self, R, order):
        M, rows, _ = self._zero_rows(R, 120)
        np.testing.assert_array_equal(column_norms(M[rows], order),
                                      column_norms(M, order))

    @pytest.mark.parametrize("R", RANKS)
    def test_innerprod_from_mttkrp(self, R):
        M, rows, _ = self._zero_rows(R, 120)
        rng = np.random.default_rng(3)
        U, weights = rng.standard_normal(M.shape), rng.random(R)
        assert (innerprod_from_mttkrp(M[rows], U[rows], weights)
                == innerprod_from_mttkrp(M, U, weights))


class TestCholeskyPath:
    """The Cholesky branch calls SciPy's ``_flapack`` module directly.

    It must give the bits of ``scipy.linalg.cho_factor`` /
    ``cho_solve(check_finite=False)``, which make the same LAPACK calls,
    and fall back to ``scipy.linalg`` itself when the module cannot load.
    """

    @staticmethod
    def _problem(R, I, seed=0):
        rng = np.random.default_rng(seed)
        H = gram(rng.standard_normal((R + 4, R))) * gram(rng.random((R + 6, R)))
        return rng.standard_normal((I, R)), H

    @staticmethod
    def _scipy_solve(M, H):
        from scipy import linalg as sla

        c, low = sla.cho_factor(H, check_finite=False)
        return sla.cho_solve((c, low), M.T, check_finite=False).T

    @staticmethod
    def _assert_same(U, ref):
        assert U.shape == ref.shape and U.dtype == ref.dtype
        assert U.flags.c_contiguous == ref.flags.c_contiguous
        np.testing.assert_array_equal(U, ref)

    def test_extension_is_loaded(self):
        from repro.linalg import solve

        assert solve._flapack is not None

    @pytest.mark.parametrize("R", [1, 2, 3, 8, 16, 17, 48, 64])
    @pytest.mark.parametrize("I", [0, 1, 5, 1000, 40000])
    def test_bitwise_equal_to_scipy(self, R, I):
        from repro.perf import counters as perf

        M, H = self._problem(R, I, seed=R * 7 + I)
        with perf.counting() as c:
            U = solve_normal_equations(M, H)
        assert "pinv_fallbacks" not in c.extra
        self._assert_same(U, self._scipy_solve(M, H))

    def test_not_positive_definite_raises_linalg_error(self):
        from repro.linalg.solve import _cholesky_solve

        M, H = self._problem(4, 10)
        H[-1, :] = H[:, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solve(M, H)

    @pytest.mark.parametrize("I", [0, 1, 300])
    def test_not_positive_definite_takes_pinv_fallback(self, I):
        from repro.perf import counters as perf

        M, H = self._problem(6, I)
        H[-1, :] = H[:, -1] = 0.0
        with perf.counting() as c:
            U = solve_normal_equations(M, H)
        assert c.extra["pinv_fallbacks"] == 1
        assert c.extra["truncated_eigenvalues"] == 1
        self._assert_same(U, np.matmul(M[:, None, :], psd_pinv(H))[:, 0, :])

    @pytest.mark.parametrize("failure", ["missing", "broken"])
    def test_failed_load_falls_back_to_scipy_linalg(self, monkeypatch,
                                                    failure):
        import importlib.util
        import sys

        from repro.linalg import solve

        def broken(*args, **kwargs):
            raise ImportError("cannot load _flapack")

        with monkeypatch.context() as m:
            m.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
            if failure == "missing":
                m.setattr(importlib.util, "find_spec", lambda name: None)
            else:
                m.setattr(importlib.util, "spec_from_file_location", broken)
            assert solve._load_flapack() is None
            assert "scipy.linalg._flapack" not in sys.modules
        problems = [self._problem(R, I) for R, I in [(3, 0), (8, 1000),
                                                      (17, 5)]]
        fast = [solve_normal_equations(M, H) for M, H in problems]
        monkeypatch.setattr(solve, "_flapack", None)
        for (M, H), U in zip(problems, fast):
            self._assert_same(solve_normal_equations(M, H), U)

    def test_other_dtypes_use_scipy_linalg(self):
        M, H = self._problem(5, 40)
        M, H = M.astype(np.float32), H.astype(np.float32)
        U = solve_normal_equations(M, H)
        assert U.dtype == np.float32
        self._assert_same(U, self._scipy_solve(M, H))

    def test_later_scipy_linalg_import_agrees(self):
        """The extension loaded without its package serves scipy.linalg too."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.linalg import solve\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert 'scipy.linalg._flapack' not in sys.modules\n"
            "rng = np.random.default_rng(0)\n"
            "A = rng.standard_normal((20, 16))\n"
            "H, M = A.T @ A, rng.standard_normal((500, 16))\n"
            "U = solve.solve_normal_equations(M, H)\n"
            "from scipy import linalg as sla\n"
            "from scipy.linalg import lapack\n"
            "ref = sla.cho_solve(sla.cho_factor(H, check_finite=False), "
            "M.T, check_finite=False).T\n"
            "assert np.array_equal(U, ref)\n"
            "assert np.array_equal(solve.solve_normal_equations(M, H), ref)\n"
            "assert sla._flapack.dpotrf is solve._flapack.dpotrf\n"
            "assert lapack.get_lapack_funcs(('potrs',), (H,))[0] "
            "is solve._flapack.dpotrs\n"
            "print('ok')\n"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["ok"]
