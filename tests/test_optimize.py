import math
import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from amgpoly import optimize
from amgpoly.optimize import (
    _beta_basis,
    _beta_objective,
    _branches,
    fourth_kind_basis,
    gamma_cheb4,
    lambda_of,
    load_beta_tables,
    optimize_beta,
    params_csv_rows,
    solve_a_star,
    theorem_bounds,
)

from conftest import evaluate_gamma_numeric
from oracles import scaled_cheb_eval, slope_at_zero

# (a*_k, Lambda_k) to 20 digits of a 60-digit mpmath root of
# s sinh(4k atanh s) = 4k (where the two branches are equal), a = s^2
REFERENCE = {
    1: (0.33333333333333333333, 0.33333333333333333333),
    2: (0.18053599274030067267, 0.11201528448347225857),
    3: (0.11592784648622128748, 0.058379910888747432788),
    4: (0.082078065959038356528, 0.036458562579490828621),
    5: (0.061849600241337648248, 0.025180750503862751427),
    6: (0.048660582342606195238, 0.018552356622483440742),
    7: (0.039513298602405734882, 0.014299694355122150891),
    8: (0.032870101754487935378, 0.011395702254433434324),
    9: (0.027870286272179953299, 0.0093177739518963523287),
    10: (0.023998740960061953236, 0.0077758200292147869833),
    11: (0.020930440043225840548, 0.0065977289816327851419),
    12: (0.018451309904506567244, 0.0056758560421586349961),
    13: (0.016415258604259164475, 0.0049399274109782905654),
    14: (0.014719563807687527261, 0.00434240512759292857),
    15: (0.013290132475784377859, 0.00385015172894580551),
    16: (0.01207233177376968259, 0.0034394673581608470467),
    17: (0.011025096460638379894, 0.0030930211260038339179),
    18: (0.01011703300648586538, 0.0027978909828815134156),
    19: (0.0093237789039835797424, 0.0025442756845434757542),
    20: (0.0086261728849516296611, 0.0023246270560875023676),
    21: (0.0080089618703678200375, 0.0021330523578478980552),
    22: (0.0074598709610600079489, 0.0019648944859976979426),
    23: (0.0069689238144320848553, 0.0018164318235682232142),
    24: (0.0065279387776372477197, 0.0016846601794438835445),
    25: (0.0061301503808627551082, 0.0015671320475289600805),
    26: (0.0057699215598863052134, 0.0014618365386889612369),
    27: (0.0054425224281913855283, 0.0013671085990535430761),
    28: (0.0051439584672522359578, 0.0012815596012966304857),
    29: (0.0048708358327268340405, 0.0012040237279755306837),
    30: (0.00462025483149125172, 0.0011335161574344932306),
    1000: (0.000013322773443019426712, 1.8250203942252719293e-6),
    10000: (2.2431783307157226293e-7, 2.3681102084978317547e-8),
    1000000: (4.8207690790343040089e-11, 3.4715879216329232026e-12),
}


class TestSolveAStar:
    @pytest.mark.parametrize("k", sorted(REFERENCE))
    def test_reference_values(self, k):
        a_star, lam = REFERENCE[k]
        a = solve_a_star(k)
        assert a == pytest.approx(a_star, rel=1e-15, abs=0.0)
        assert lambda_of(k, a) == pytest.approx(lam, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", sorted(REFERENCE))
    def test_branches_cross_at_the_root(self, k):
        # the bisection's two ends are adjacent floats around the crossing
        s = math.sqrt(solve_a_star(k))
        left, right = _branches(k, math.nextafter(s, 0.0))
        assert left < right
        left, right = _branches(k, s)
        assert left >= right

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            solve_a_star(0)


class TestLambdaOf:
    def test_k1_analytic(self):
        assert lambda_of(1, 1.0 / 3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_equioscillation_at_optimum(self, k):
        a = solve_a_star(k)
        left = 1.0 / (2.0 * abs(slope_at_zero(a, k)))
        right = 1.0 / (chebval((1.0 + a) / (1.0 - a), [0.0] * k + [1.0]) ** 2 - 1.0)
        assert abs(left - right) <= 1e-12 * max(left, right)

    @given(st.integers(1, 12), st.floats(0.01, 1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_value_at_one_below_optimum(self, k, frac):
        # below a*_k the maximum is the value at x = 1, 1/(T_k(y)^2 - 1)
        a = frac * solve_a_star(k)
        tk = chebval((1.0 + a) / (1.0 - a), [0.0] * k + [1.0])
        assert lambda_of(k, a) == pytest.approx(1.0 / (tk * tk - 1.0), rel=1e-12)

    @given(st.integers(1, 10), st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=100, deadline=None)
    def test_limit_at_zero_above_optimum(self, k, frac):
        # above a*_k the maximum is the x -> 0+ limit 1/(2|tau'(0)|)
        a_star = solve_a_star(k)
        a = a_star + frac * (0.9 - a_star)
        h = 1e-6
        fd = (scaled_cheb_eval(a, k, h) - scaled_cheb_eval(a, k, -h)) / (2.0 * h)
        assert lambda_of(k, a) == pytest.approx(1.0 / (2.0 * abs(fd)), rel=1e-7)

    @pytest.mark.parametrize("k,a,want", [
        (30, 1.0 - 1e-12, 0.016666666666658333),
        (2, 1e-300, 6.25e298),
        (2, 5e-324, math.inf),
    ])
    def test_defined_on_the_whole_interval(self, k, a, want):
        assert lambda_of(k, a) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("k,a", [(2, 0.0), (2, 1.0), (2, math.nan), (0, 0.5)])
    def test_rejects_bad_arguments(self, k, a):
        with pytest.raises(ValueError):
            lambda_of(k, a)

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
        # the slope at zero from an exact degree-k fit, independent of the
        # closed form lambda_of reads
        xs = np.linspace(0.0, 1.0, 2 * k + 1)
        c1 = np.polynomial.polynomial.polyfit(xs, [scaled_cheb_eval(a, k, x) for x in xs], k)[1]
        got = evaluate_gamma_numeric(lambda x: scaled_cheb_eval(a, k, x), c1=c1)
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

    def test_beta_table_of_wrong_length_is_rejected(self, tmp_path, monkeypatch):
        (tmp_path / "beta_tables.csv").write_text("k,gamma_value,beta\n2,0.1,1.1 0.9 0.5\n")
        monkeypatch.setattr(optimize, "resources", types.SimpleNamespace(files=lambda _: tmp_path))
        with pytest.raises(ValueError, match="beta table length must equal the degree"):
            load_beta_tables.__wrapped__()

    def test_beta_table_gamma_matches_recompute(self):
        bt = optimize_beta(3)
        assert load_beta_tables()[3].gamma_value == pytest.approx(
            bt.gamma_value, rel=1e-4
        )

    def test_solve_a_star_is_cached(self):
        assert solve_a_star(4) == pytest.approx(REFERENCE[4][0], rel=1e-15, abs=0.0)
        hits = solve_a_star.cache_info().hits
        assert solve_a_star(4) == solve_a_star(4)
        assert solve_a_star.cache_info().hits == hits + 2
        for _ in range(2):  # an error is not cached: it is raised every time
            with pytest.raises(ValueError):
                solve_a_star(0)

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
