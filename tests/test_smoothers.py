import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amgpoly.optimize import fourth_kind_basis, load_beta_tables, solve_a_star
from amgpoly.problems import SpectralOperator, aniso2d_q1, poisson3d, spectral_synthetic
from amgpoly.smoothers import (
    FAMILIES,
    PolySmootherConfig,
    as_preconditioner,
    l1_jacobi_diag,
    smoother_apply,
    step_coefficients,
)
from amgpoly.sparse import spmv_count

from conftest import (
    build_with,
    csr,
    evaluate_gamma_numeric,
    integer_m_matrices,
    random_spd,
    to_dense,
    tridiag,
)
from oracles import (
    error_polynomial,
    error_polynomial_coeffs,
    l1_jacobi_diag_reduceat,
    scaled_cheb_eval,
    smoother_error_oracle,
    smoothing_constant,
)


class TestL1Diag:
    def test_diagonal_matrix(self):
        A = csr(np.diag([2.0, 5.0, 1.0]))
        assert np.array_equal(l1_jacobi_diag(A), [2.0, 5.0, 1.0])

    def test_tridiag_interior(self):
        m = l1_jacobi_diag(tridiag(5))
        assert m[2] == 4.0  # 2 + |-1| + |-1|
        assert m[0] == 3.0

    def test_poisson3d_interior(self):
        A, _ = poisson3d(4)
        m = l1_jacobi_diag(A)
        # node (1,1,1) has all six neighbors
        assert m[1 + 4 + 16] == 12.0

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            l1_jacobi_diag(csr([[0.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("distribution", ["equispaced", "boundary", "gapped"])
    def test_spectral_operator_matches_dense_formula(self, distribution):
        op, _ = spectral_synthetic(32, distribution)
        D = op.to_dense()
        d = np.diag(D)
        expected = np.abs(D).sum(axis=1) - np.abs(d) + d
        assert l1_jacobi_diag(op).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("problem", ["aniso2d-sa", "poisson3d-matching"])
    def test_csr_matches_scipy_row_sums_on_every_level(self, problem):
        if problem == "aniso2d-sa":
            A, kind = aniso2d_q1(64, 100.0, math.pi / 6)[0], "smoothed_aggregation"
        else:
            A, kind = poisson3d(16)[0], "pairwise_matching"
        h = build_with(A, kind, MIN_COARSE_SIZE=20)
        assert len(h.levels) >= 3
        for level in h.levels:
            S = level.A.to_scipy()
            d = S.diagonal()
            expected = np.asarray(abs(S).sum(axis=1)).ravel() - np.abs(d) + d
            assert level.M.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("problem", [
        lambda: poisson3d(12)[0],
        lambda: aniso2d_q1(32, 100.0, math.pi / 6)[0],
    ], ids=["poisson3d-m12", "aniso2d-m32"])
    def test_bits_of_reduceat_on_the_smoke_bench_matrices(self, problem):
        A = problem()
        assert l1_jacobi_diag(A).tobytes() == l1_jacobi_diag_reduceat(A).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(integer_m_matrices(), st.floats(0.1, 10.0))
    def test_bits_of_reduceat_on_m_matrices(self, A, c):
        # scaled by c, so that the row sums round
        A = csr(A.to_scipy() * c)
        assert l1_jacobi_diag(A).tobytes() == l1_jacobi_diag_reduceat(A).tobytes()

    def test_spectral_operator_negative_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="non-positive diagonal"):
            l1_jacobi_diag(SpectralOperator(-np.linspace(0.1, 1.0, 8)))

    def test_spectrum_of_scaled_operator_in_unit_interval(self):
        A = random_spd(30, seed=5)
        m = l1_jacobi_diag(A)
        s = 1.0 / np.sqrt(m)
        w = np.linalg.eigvalsh(to_dense(A) * np.outer(s, s))
        assert np.all(w > 0.0)
        assert np.max(w) <= 1.0 + 1e-12


class TestConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            PolySmootherConfig(family="sor", degree=2)

    def test_opt_cheb1_defaults_to_table_endpoint(self):
        cfg = PolySmootherConfig(family="opt_cheb1", degree=4)
        # the first step divides by theta = (1 + a)/2
        assert cfg.steps[0][1] == pytest.approx(2.0 / (1.0 + 0.0820780659590383), abs=1e-12)

    def test_opt_cheb4_loads_table(self):
        cfg = PolySmootherConfig(family="opt_cheb4", degree=3)
        assert [w for _, _, w in cfg.steps] == list(load_beta_tables()[3].beta)

    def test_opt_cheb4_without_table_raises(self):
        with pytest.raises(ValueError, match="no opt_cheb4 beta table"):
            PolySmootherConfig(family="opt_cheb4", degree=15)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_step_table_built_once_and_frozen(self, family):
        cfg = PolySmootherConfig(family=family, degree=4)
        assert cfg.steps == step_coefficients(cfg)
        assert len(cfg.steps) == 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.degree = 5


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
        A = csr(np.diag([2.0, 3.0]))
        M = np.array([2.0, 3.0])
        e0 = np.array([1.0, -2.0])
        cfg = PolySmootherConfig(family="cheb4", degree=1)
        out = smoother_apply(cfg, A, M, np.zeros_like(e0), e0)
        assert np.allclose(out, -e0 / 3.0, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_opt_cheb1_diagonal_decoupling(self, k):
        lam = np.array([0.05, 0.2, 0.5, 0.9, 1.0])
        A = csr(np.diag(lam))
        M = np.ones(5)
        cfg = PolySmootherConfig(family="opt_cheb1", degree=k)
        e0 = np.array([1.0, -1.0, 2.0, 0.5, -0.25])
        out = smoother_apply(cfg, A, M, np.zeros_like(e0), e0)
        expected = np.array([scaled_cheb_eval(solve_a_star(k), k, l) for l in lam]) * e0
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_spmv_count_matches_degree(self, family, k):
        A = tridiag(20)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=k)
        b = np.ones(20)
        before = spmv_count()
        smoother_apply(cfg, A, M, b, np.zeros(20))
        assert spmv_count() - before == k

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_norm_contraction(self, family, rng):
        A = random_spd(25, seed=2)
        Ad = to_dense(A)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=3)
        e0 = rng.standard_normal(25)
        e1 = smoother_apply(cfg, A, M, np.zeros_like(e0), e0)
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


ZERO_GUESS_CASES = [
    (family, k)
    for family in FAMILIES
    for k in range(1, (12 if family == "opt_cheb4" else 8) + 1)
]


class TestZeroGuess:
    """``x0=None`` saves the initial residual SpMV and nothing else."""

    @pytest.mark.parametrize("problem", ["random_spd", "poisson3d"])
    @pytest.mark.parametrize("family, k", ZERO_GUESS_CASES)
    def test_bitwise_equal_to_explicit_zero_with_one_spmv_less(self, problem, family, k):
        A = random_spd(30, seed=k) if problem == "random_spd" else poisson3d(5)[0]
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=k)
        b = np.random.default_rng(k).standard_normal(A.nrows)
        want = smoother_apply(cfg, A, M, b, np.zeros_like(b))
        before = spmv_count()
        got = smoother_apply(cfg, A, M, b)
        assert spmv_count() - before == k - 1
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("family, k", ZERO_GUESS_CASES)
    def test_bitwise_equal_to_expression_form(self, family, k):
        # the recurrence as plain expressions with temporaries: the in-place
        # kernel must round every operation the same way
        A, _ = poisson3d(5)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=k)
        b = np.random.default_rng(k).standard_normal(A.nrows)
        x, d, r = np.zeros_like(b), np.zeros_like(b), b - A.matvec(np.zeros_like(b))
        for j, (c, e, w) in enumerate(step_coefficients(cfg), 1):
            d = c * d + e * (r / M)
            x = x + w * d
            if j < k:
                r = r - A.matvec(d)
        assert np.array_equal(smoother_apply(cfg, A, M, b), x)

    def test_does_not_write_to_x0(self):
        A = tridiag(10)
        x0 = np.linspace(-1.0, 1.0, 10)
        cfg = PolySmootherConfig(family="opt_cheb1", degree=3)
        smoother_apply(cfg, A, l1_jacobi_diag(A), np.ones(10), x0)
        assert np.array_equal(x0, np.linspace(-1.0, 1.0, 10))

    def test_does_not_write_to_b(self):
        A = tridiag(10)
        b = np.linspace(1.0, 2.0, 10)
        smoother_apply(PolySmootherConfig(family="cheb4", degree=3), A, l1_jacobi_diag(A), b)
        assert np.array_equal(b, np.linspace(1.0, 2.0, 10))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_preconditioner_costs_k_minus_1(self, family):
        A = tridiag(20)
        B = as_preconditioner(PolySmootherConfig(family=family, degree=5), A, l1_jacobi_diag(A))
        before = spmv_count()
        B(np.ones(20))
        assert spmv_count() - before == 4


class TestFloat32:
    """float32 operands, as on the V-cycle's level copies, run the whole step in float32."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("x0", [None, "given"])
    def test_float32_in_float32_out(self, family, x0, rng):
        A, _ = poisson3d(5)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family=family, degree=4)
        b = rng.standard_normal(A.nrows)
        x = None if x0 is None else rng.standard_normal(A.nrows)
        want = smoother_apply(cfg, A, M, b, x)
        before = spmv_count()
        got = smoother_apply(cfg, A.float32_twin(), M.astype(np.float32), b.astype(np.float32),
                             None if x is None else x.astype(np.float32))
        assert spmv_count() - before == (3 if x0 is None else 4)
        assert got.dtype == np.float32
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize("family, k", ZERO_GUESS_CASES)
    def test_bitwise_equal_to_float32_expression_form(self, family, k):
        # every operation rounds to float32: no step goes through float64
        A, _ = poisson3d(5)
        A32, M = A.float32_twin(), l1_jacobi_diag(A).astype(np.float32)
        cfg = PolySmootherConfig(family=family, degree=k)
        b = np.random.default_rng(k).standard_normal(A.nrows).astype(np.float32)
        x, d, r = np.zeros_like(b), np.zeros_like(b), b.copy()
        for j, (c, e, w) in enumerate(step_coefficients(cfg), 1):
            d = np.float32(c) * d + np.float32(e) * (r / M)
            x = x + np.float32(w) * d
            if j < k:
                r = r - A32.matvec(d)
        got = smoother_apply(cfg, A32, M, b)
        assert got.dtype == np.float32
        assert np.array_equal(got, x)


class TestErrorPolynomial:
    def test_l1_jacobi_coeffs(self):
        cfg = PolySmootherConfig(family="l1_jacobi", degree=2)
        assert np.allclose(error_polynomial_coeffs(cfg), [1.0, -2.0, 1.0])

    def test_cheb4_value_matches_recurrence(self):
        cfg = PolySmootherConfig(family="cheb4", degree=5)
        coef = error_polynomial_coeffs(cfg)
        for x in np.linspace(0.0, 1.0, 7):
            direct = fourth_kind_basis(1.0 - 2.0 * x, 5)[5] / 11.0
            assert np.polynomial.polynomial.polyval(x, coef) == pytest.approx(
                direct, abs=1e-12
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_normalized_at_zero(self, family):
        cfg = PolySmootherConfig(family=family, degree=4)
        assert error_polynomial_coeffs(cfg)[0] == pytest.approx(1.0, abs=1e-10)


class TestSmoothingConstant:
    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_grid_oracle(self, family, k):
        # the sup of t p(t)^2/(1 - p(t)^2) over 20001 points and the t -> 0+
        # limit, with p evaluated directly, not through the closed-form gamma;
        # the monomial coefficients would cancel near t = 1
        cfg = PolySmootherConfig(family=family, degree=k)
        grid = evaluate_gamma_numeric(lambda t: error_polynomial(cfg, t),
                                      c1=error_polynomial_coeffs(cfg)[1])
        assert smoothing_constant(cfg) == pytest.approx(grid, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_opt_cheb4_not_below_grid_oracle(self, k):
        # the shipped gamma is a sup: it may not lie under the oracle's grid
        # maximum or its t -> 0+ limit by more than rounding
        cfg = PolySmootherConfig(family="opt_cheb4", degree=k)
        grid = evaluate_gamma_numeric(lambda t: error_polynomial(cfg, t),
                                      c1=error_polynomial_coeffs(cfg)[1])
        assert smoothing_constant(cfg) >= grid * (1.0 - 1e-12)


class TestOracleEquivalence:
    def test_constant_polynomial(self):
        A = tridiag(8)
        M = l1_jacobi_diag(A)
        cfg = PolySmootherConfig(family="l1_jacobi", degree=1)
        e0 = np.arange(8.0)
        # degree-1 sanity: both paths agree
        assert np.allclose(
            smoother_apply(cfg, A, M, np.zeros_like(e0), e0),
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
        got = smoother_apply(cfg, A, M, np.zeros_like(e0), e0)
        want = smoother_error_oracle(A, M, cfg, e0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(e0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_poisson3d_k6(self, family):
        A, _ = poisson3d(6)
        M = l1_jacobi_diag(A)
        rng = np.random.default_rng(0)
        e0 = rng.standard_normal(A.nrows)
        cfg = PolySmootherConfig(family=family, degree=6)
        got = smoother_apply(cfg, A, M, np.zeros_like(e0), e0)
        want = smoother_error_oracle(A, M, cfg, e0)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(e0)
