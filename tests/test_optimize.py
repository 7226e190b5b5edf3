import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from amgpoly import optimize
from amgpoly.chebyshev import ScaledChebParams, fourth_kind_basis, scaled_cheb_eval
from amgpoly.optimize import (
    _beta_basis,
    _beta_objective,
    brent_root,
    gamma_cheb4,
    lambda_of,
    load_beta_tables,
    optimal_a,
    optimize_beta,
    params_csv_rows,
    phi,
    solve_a_star,
    theorem_bounds,
)

from conftest import evaluate_gamma_numeric

A_STAR_REFERENCE = {
    1: 0.3333333333333333,
    4: 0.0820780659590383,
    8: 0.0328701017544880,
}


class TestPhi:
    def test_root_at_k1(self):
        assert abs(phi(1, 1.0 / math.sqrt(3.0))) <= 1e-12

    def test_sign_change_around_root(self):
        assert phi(1, 0.1) > 0.0
        assert phi(1, 0.9) < 0.0

    def test_no_underflow_large_k(self):
        # the scaled form stays finite and sign-definite for large degrees
        assert math.isfinite(phi(50, 0.5))
        assert phi(50, 0.001) > 0.0
        assert phi(50, 0.999) < 0.0


class TestBrentRoot:
    def test_linear(self):
        assert brent_root(lambda x: x - 0.25, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_requires_bracket(self):
        with pytest.raises(ValueError):
            brent_root(lambda x: x + 2.0, 0.0, 1.0)

    @given(st.floats(0.05, 0.95), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_roots(self, r, p):
        root = brent_root(lambda x: (x - r) ** (2 * p - 1), 0.0, 1.0)
        assert root == pytest.approx(r, abs=1e-6)


class TestSolveAStar:
    @pytest.mark.parametrize("k,expected", sorted(A_STAR_REFERENCE.items()))
    def test_reference_values(self, k, expected):
        assert solve_a_star(k) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            solve_a_star(0)


class TestLambdaOf:
    def test_k1_analytic(self):
        assert lambda_of(1, 1.0 / 3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_k2_reference(self):
        assert lambda_of(2, solve_a_star(2)) == pytest.approx(
            0.112015284483472, rel=1e-9
        )

    def test_k15_reference(self):
        assert lambda_of(15, solve_a_star(15)) == pytest.approx(
            0.0038501517289458, rel=1e-9
        )

    @pytest.mark.parametrize("k", range(1, 21))
    def test_equioscillation_at_optimum(self, k):
        from amgpoly.chebyshev import cheb1_eval, smoothing_limit_at_zero

        a = solve_a_star(k)
        left = smoothing_limit_at_zero(a, k)
        y = (1.0 + a) / (1.0 - a)
        right = 1.0 / (cheb1_eval(k, y) ** 2 - 1.0)
        assert abs(left - right) <= 1e-9 * max(left, right)

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_local_optimality(self, k):
        a = solve_a_star(k)
        lam = lambda_of(k, a)
        assert lambda_of(k, 0.99 * a) > lam
        assert lambda_of(k, 1.01 * a) > lam

    def test_strictly_decreasing_in_k(self):
        lams = [lambda_of(k, solve_a_star(k)) for k in range(1, 21)]
        assert all(b < a for a, b in zip(lams, lams[1:]))


class TestTheoremBounds:
    def test_k3_parameter_bounds(self):
        lo, hi, _, _ = theorem_bounds(3)
        assert lo == pytest.approx(0.0149006044544763, rel=1e-12)
        assert hi == pytest.approx(0.134105440090287, rel=1e-12)

    def test_k4_value_upper(self):
        assert theorem_bounds(4)[3] == pytest.approx(0.0446213497485465, rel=1e-12)

    def test_k10_value_lower(self):
        assert theorem_bounds(10)[2] == pytest.approx(0.00383764182165674, rel=1e-12)

    def test_requires_k_ge_3(self):
        with pytest.raises(ValueError):
            theorem_bounds(2)

    @pytest.mark.parametrize("k", range(3, 51))
    def test_sandwich(self, k):
        a_lo, a_hi, l_lo, l_hi = theorem_bounds(k)
        a = solve_a_star(k)
        lam = lambda_of(k, a)
        assert a_lo < a < a_hi
        assert l_lo < lam < l_hi


class TestGammaCheb4:
    @pytest.mark.parametrize(
        "k,expected", [(1, 0.375), (2, 0.125), (3, 0.0625), (4, 0.0375), (5, 0.025)]
    )
    def test_reference_values(self, k, expected):
        assert gamma_cheb4(k) == expected


class TestEvaluateGammaNumeric:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_lambda_of(self, k):
        a = solve_a_star(k)
        p = ScaledChebParams(a, k)
        # the slope at zero from an exact degree-k fit, independent of the
        # closed form lambda_of reads
        xs = np.linspace(0.0, 1.0, 2 * k + 1)
        c1 = np.polynomial.polynomial.polyfit(xs, [scaled_cheb_eval(p, x) for x in xs], k)[1]
        got = evaluate_gamma_numeric(lambda x: scaled_cheb_eval(p, x), c1=c1)
        assert got == pytest.approx(lambda_of(k, a), rel=1e-6)

    def test_limit_at_zero(self):
        # p(x) = 1-x: sup of x(1-x)^2/(1-(1-x)^2) = (1-x)^2/(2-x) -> 1/2 at 0+
        got = evaluate_gamma_numeric(lambda x: 1.0 - x, c1=-1.0)
        assert got == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_fourth_kind_constant(self, k):
        p = lambda x: fourth_kind_basis(1.0 - 2.0 * x, k)[k] / (2 * k + 1)
        got = evaluate_gamma_numeric(p, c1=-2.0 * k * (k + 1) / 3.0)
        assert got == pytest.approx(gamma_cheb4(k), rel=1e-6)

    def test_rejects_non_contractive(self):
        with pytest.raises(ValueError):
            evaluate_gamma_numeric(lambda x: 1.0 + x, c1=1.0)


class TestOptimizeBeta:
    def test_k1_unique_optimum(self):
        bt = optimize_beta(1)
        assert bt.gamma_value == pytest.approx(1.0 / 3.0, rel=2e-2)
        assert bt.beta[0] == pytest.approx(9.0 / 8.0, rel=1e-2)

    def test_k2_reference(self):
        assert optimize_beta(2).gamma_value == pytest.approx(
            0.105572809000084, rel=2e-2
        )

    def test_degree_range(self):
        with pytest.raises(ValueError):
            optimize_beta(13)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_not_worse_than_first_kind(self, k):
        # numerically optimized table beats the closed-form family value
        assert optimize_beta(k).gamma_value <= lambda_of(k, solve_a_star(k)) + 1e-9


def optimize_beta_full_grid(k, grid_size=20001, max_rounds=60):
    """Oracle: the bisection with every LP spanning the whole thinned grid."""
    full_grid = np.logspace(-8.0, 0.0, grid_size)
    full_base, full_basis = _beta_basis(k, full_grid)
    grid = np.logspace(-8.0, 0.0, min(grid_size, 6001))
    base, basis = _beta_basis(k, grid)

    def feasible(t):
        bound = np.sqrt(t / (t + grid))
        A = np.concatenate([basis.T, -basis.T])
        A = np.hstack([A, -np.ones((A.shape[0], 1))])
        b = np.concatenate([bound - base, bound + base])
        c = np.zeros(k + 1)
        c[-1] = 1.0
        res = scipy.optimize.linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (k + 1),
                                     method="highs")
        if not res.success:
            return False, None
        return res.x[-1] <= 1e-12, res.x[:k]

    hi = _beta_objective(grid, base, basis, np.ones(k))
    lo = 0.25 * hi
    ok, beta = feasible(lo)
    while ok:
        hi, lo = lo, 0.5 * lo
        ok, beta = feasible(lo)
    _, beta = feasible(hi)
    rounds = 0
    while hi - lo > 1e-7 * hi and rounds < max_rounds:
        mid = 0.5 * (lo + hi)
        ok, candidate = feasible(mid)
        if ok:
            hi, beta = mid, candidate
        else:
            lo = mid
        rounds += 1
    return beta, _beta_objective(full_grid, full_base, full_basis, beta)


class TestWorkingSet:
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
    def test_matches_full_grid_bisection(self, k, monkeypatch):
        beta, gamma = optimize_beta_full_grid(k, grid_size=2001)
        monkeypatch.setattr(optimize, "BETA_GRID_SIZE", 2001)
        bt = optimize_beta(k)
        assert bt.gamma_value == pytest.approx(gamma, rel=1e-5)
        assert bt.beta == pytest.approx(beta, rel=1e-5)

    @pytest.mark.parametrize("k,budget", [(4, 6), (8, 5), (12, 5)])
    def test_lp_budget(self, k, budget, monkeypatch):
        widths = []
        linprog = scipy.optimize.linprog

        def counting(*args, **kwargs):
            widths.append(kwargs["A_ub"].shape[1])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        optimize_beta(k)
        assert 0 < len(widths) <= budget
        assert set(widths) == {k + 1}

    def test_lp_failure_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                success=False, status=4, message="numerical difficulties", x=None
            )

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        with pytest.raises(RuntimeError, match="status 4.*numerical difficulties"):
            optimize_beta(4)

    def test_open_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "BETA_MAX_ROUNDS", 1)
        with pytest.raises(RuntimeError, match="still open"):
            optimize_beta(4)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_bracket_closes_before_max_rounds(self, k, monkeypatch):
        # the search takes at most 11 levels (k = 1); the default cap of 60
        # must never be what ends it
        monkeypatch.setattr(optimize, "BETA_MAX_ROUNDS", 30)
        optimize_beta(k)


class TestDataAssets:
    def test_beta_tables_shape(self):
        tables = load_beta_tables()
        assert set(tables) == set(range(1, 13))
        for k, bt in tables.items():
            assert len(bt.beta) == k
            assert bt.gamma_value > 0

    def test_beta_table_gamma_matches_recompute(self):
        bt = optimize_beta(3)
        assert load_beta_tables()[3].gamma_value == pytest.approx(
            bt.gamma_value, rel=1e-4
        )

    def test_optimal_a_is_solve_a_star(self):
        assert optimal_a(4) == pytest.approx(A_STAR_REFERENCE[4], abs=1e-12)
        for k in range(1, 21):
            assert optimal_a(k) == solve_a_star(k)

    def test_csv_rows_schema(self):
        rows = params_csv_rows(3)
        assert len(rows) == 3
        assert rows[0]["a_star"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert math.isnan(rows[0]["a_lower"])
        assert rows[2]["gamma_cheb4"] == pytest.approx(0.0625)


class TestOrderings:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_first_kind_beats_baseline_low_degree(self, k):
        assert lambda_of(k, solve_a_star(k)) < gamma_cheb4(k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_optimized_fourth_kind_is_lower_bound(self, k):
        bt = load_beta_tables()[k]
        assert bt.gamma_value <= lambda_of(k, solve_a_star(k)) + 1e-9
