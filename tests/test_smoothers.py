import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amgpoly.chebyshev import ScaledChebParams, cheb4_eval, scaled_cheb_eval
from amgpoly.problems import poisson3d
from amgpoly.smoothers import (
    FAMILIES,
    PolySmootherConfig,
    as_preconditioner,
    error_polynomial_coeffs,
    l1_jacobi_diag,
    smoother_apply,
    smoother_error_apply,
    smoother_error_oracle,
)
from amgpoly.sparse import CsrMatrix, reset_spmv_count, spmv_count

from conftest import random_spd, tridiag


class TestL1Diag:
    def test_diagonal_matrix(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 5.0, 1.0]))
        assert np.array_equal(l1_jacobi_diag(A).m_diag, [2.0, 5.0, 1.0])

    def test_tridiag_interior(self):
        m = l1_jacobi_diag(tridiag(5)).m_diag
        assert m[2] == 4.0  # 2 + |-1| + |-1|
        assert m[0] == 3.0

    def test_poisson3d_interior(self):
        A, _ = poisson3d(4)
        m = l1_jacobi_diag(A).m_diag
        # node (1,1,1) has all six neighbors
        assert m[1 + 4 + 16] == 12.0

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            l1_jacobi_diag(CsrMatrix.from_dense([[0.0, 1.0], [1.0, 2.0]]))

    def test_spectrum_of_scaled_operator_in_unit_interval(self):
        A = random_spd(30, seed=5)
        m = l1_jacobi_diag(A).m_diag
        s = 1.0 / np.sqrt(m)
        w = np.linalg.eigvalsh(A.to_dense() * np.outer(s, s))
        assert np.all(w > 0.0)
        assert np.max(w) <= 1.0 + 1e-12


class TestConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            PolySmootherConfig(family="sor", degree=2)

    def test_opt_cheb1_defaults_to_table_endpoint(self):
        cfg = PolySmootherConfig(family="opt_cheb1", degree=4)
        assert cfg.a == pytest.approx(0.0820780659590383, abs=1e-12)

    def test_opt_cheb4_loads_table(self):
        cfg = PolySmootherConfig(family="opt_cheb4", degree=3)
        assert len(cfg.beta.beta) == 3

    def test_opt_cheb4_without_table_raises(self):
        with pytest.raises(ValueError, match="no opt_cheb4 beta table"):
            PolySmootherConfig(family="opt_cheb4", degree=15)


class TestSmootherApply:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_residual_fixed_point(self, family):
        A = tridiag(10)
        M = l1_jacobi_diag(A)
        x0 = np.linspace(0.0, 1.0, 10)
        b = A.matvec(x0)
        cfg = PolySmootherConfig(family=family, degree=3)
        assert np.allclose(smoother_apply(cfg, A, M, b, x0), x0, atol=1e-13)

    def test_cheb4_degree1_closed_form(self):
        # M = A makes the scaled operator the identity: p_1(1) = -1/3
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        from amgpoly.smoothers import L1JacobiData

        M = L1JacobiData(m_diag=np.array([2.0, 3.0]))
        e0 = np.array([1.0, -2.0])
        cfg = PolySmootherConfig(family="cheb4", degree=1)
        out = smoother_error_apply(cfg, A, M, e0)
        assert np.allclose(out, -e0 / 3.0, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_opt_cheb1_diagonal_decoupling(self, k):
        lam = np.array([0.05, 0.2, 0.5, 0.9, 1.0])
        A = CsrMatrix.from_dense(np.diag(lam))
        from amgpoly.smoothers import L1JacobiData

        M = L1JacobiData(m_diag=np.ones(5))
        a = 0.1
        cfg = PolySmootherConfig(family="opt_cheb1", degree=k, a=a)
        e0 = np.array([1.0, -1.0, 2.0, 0.5, -0.25])
        out = smoother_error_apply(cfg, A, M, e0)
        p = ScaledChebParams(a, k)
        expected = np.array([scaled_cheb_eval(p, l) for l in lam]) * e0
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_spmv_count_matches_degree(self, family, k):
        A = tridiag(20)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=k)
        b = np.ones(20)
        reset_spmv_count()
        smoother_apply(cfg, A, M, b, np.zeros(20))
        assert spmv_count() == k

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_norm_contraction(self, family, rng):
        A = random_spd(25, seed=2)
        Ad = A.to_dense()
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=3)
        e0 = rng.standard_normal(25)
        e1 = smoother_error_apply(cfg, A, M, e0)
        assert e1 @ Ad @ e1 < e0 @ Ad @ e0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_preconditioner_symmetry(self, family, rng):
        A = random_spd(20, seed=9)
        M = l1_jacobi_diag(A)
        B = as_preconditioner(PolySmootherConfig(family=family, degree=3), A, M)
        for _ in range(5):
            u, v = rng.standard_normal(20), rng.standard_normal(20)
            assert B(u) @ v == pytest.approx(u @ B(v), rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        A = tridiag(4)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family="cheb4", degree=2)
        with pytest.raises(ValueError):
            smoother_apply(cfg, A, M, np.ones(5), np.zeros(4))


class TestErrorPolynomial:
    def test_l1_jacobi_coeffs(self):
        cfg = PolySmootherConfig(family="l1_jacobi", degree=2)
        assert np.allclose(error_polynomial_coeffs(cfg), [1.0, -2.0, 1.0])

    def test_cheb4_value_matches_recurrence(self):
        cfg = PolySmootherConfig(family="cheb4", degree=5)
        coef = error_polynomial_coeffs(cfg)
        for x in np.linspace(0.0, 1.0, 7):
            direct = cheb4_eval(5, 1.0 - 2.0 * x) / 11.0
            assert np.polynomial.polynomial.polyval(x, coef) == pytest.approx(
                direct, abs=1e-12
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_normalized_at_zero(self, family):
        cfg = PolySmootherConfig(family=family, degree=4)
        assert error_polynomial_coeffs(cfg)[0] == pytest.approx(1.0, abs=1e-10)


class TestOracleEquivalence:
    def test_constant_polynomial(self):
        A = tridiag(8)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family="l1_jacobi", degree=1)
        e0 = np.arange(8.0)
        # degree-1 sanity: both paths agree
        assert np.allclose(
            smoother_error_apply(cfg, A, M, e0),
            smoother_error_oracle(A, M, cfg, e0),
            atol=1e-13,
        )

    @given(st.sampled_from(FAMILIES), st.integers(1, 8), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_spd(self, family, k, seed):
        A = random_spd(30, seed=seed)
        M = l1_jacobi_diag(A)
        rng = np.random.default_rng(seed + 1)
        e0 = rng.standard_normal(30)
        cfg = PolySmootherConfig(family=family, degree=k)
        got = smoother_error_apply(cfg, A, M, e0)
        want = smoother_error_oracle(A, M, cfg, e0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(e0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_poisson3d_k6(self, family):
        A, _ = poisson3d(6)
        M = l1_jacobi_diag(A)
        rng = np.random.default_rng(0)
        e0 = rng.standard_normal(A.nrows)
        cfg = PolySmootherConfig(family=family, degree=6)
        got = smoother_error_apply(cfg, A, M, e0)
        want = smoother_error_oracle(A, M, cfg, e0)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(e0)
