"""Chebyshev polynomials: the runtime fourth-kind recurrence and the oracles
of the scaled first-kind family (``tests/oracles.py``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from amgpoly.optimize import fourth_kind_basis

from oracles import coefficient_roots, scaled_cheb_eval, slope_at_zero, smoothing_objective


class TestCheb4:
    def test_endpoint_values(self):
        for k in range(8):
            assert fourth_kind_basis(1.0, k)[k] == pytest.approx(2 * k + 1)
            assert fourth_kind_basis(-1.0, k)[k] == pytest.approx((-1.0) ** k)

    def test_k1_zero(self):
        assert fourth_kind_basis(0.0, 1)[1] == 1.0

    @given(st.integers(0, 15), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_trigonometric_form(self, k, x):
        t = math.acos(x)
        if abs(math.sin(t / 2)) < 1e-8:
            return
        expected = math.sin((k + 0.5) * t) / math.sin(t / 2)
        assert fourth_kind_basis(x, k)[k] == pytest.approx(expected, abs=1e-11)
        # the shared recurrence on an array grid and on a polynomial argument
        ts = np.append(np.linspace(0.1, math.pi, 9), t)
        closed = np.sin((k + 0.5) * ts) / np.sin(ts / 2)
        assert fourth_kind_basis(np.cos(ts), k)[k] == pytest.approx(closed, abs=1e-11)
        W = fourth_kind_basis(np.polynomial.Polynomial([0.0, 1.0]), k)[k]
        assert W.degree() == k
        assert W(np.cos(ts)) == pytest.approx(closed, abs=1e-9)


class TestScaledCheb:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            scaled_cheb_eval(1.0, 3, 0.5)
        with pytest.raises(ValueError):
            scaled_cheb_eval(0.5, -1, 0.5)

    @given(st.floats(0.0, 0.99), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_normalized_at_zero(self, a, k):
        assert scaled_cheb_eval(a, k, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_degree_one_root(self):
        assert scaled_cheb_eval(1.0 / 3.0, 1, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value_k2(self):
        # at the optimal endpoint for k=2 the objective equals the reference
        a = 0.1805359927403007
        assert smoothing_objective(a, 2, 1.0) == pytest.approx(
            0.112015284483472, rel=1e-12
        )

    @given(st.floats(0.01, 0.9), st.integers(1, 10), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_first_kind_map(self, a, k, x):
        # tau_k^{[a,1]}(x) = T_k((theta - x)/delta) / T_k(theta/delta)
        theta, delta = (1.0 + a) / 2.0, (1.0 - a) / 2.0
        tk = [0.0] * k + [1.0]
        direct = chebval((theta - x) / delta, tk) / chebval(theta / delta, tk)
        assert scaled_cheb_eval(a, k, x) == pytest.approx(direct, abs=1e-10, rel=1e-10)


class TestSmoothingObjective:
    def test_vanishes_at_polynomial_roots(self):
        # roots of tau_k^{[a,1]} are the mapped Chebyshev nodes
        a, k = 0.1, 4
        for j in range(k):
            node = math.cos((2 * j + 1) * math.pi / (2 * k))
            x = (1.0 + a) / 2.0 - (1.0 - a) / 2.0 * node
            assert smoothing_objective(a, k, x) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value_k4(self):
        assert smoothing_objective(0.0820780659590383, 4, 1.0) == pytest.approx(
            0.0364585625794908, rel=1e-12
        )

    def test_equioscillation_at_optimum_k4(self):
        a = 0.0820780659590383
        assert smoothing_objective(a, 4, 1.0) == pytest.approx(
            1.0 / (2.0 * abs(slope_at_zero(a, 4))), rel=1e-9
        )

    def test_domain_check(self):
        with pytest.raises(ValueError):
            smoothing_objective(0.1, 2, 1.5)


class TestMembershipProperties:
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 12])
    def test_scaled_family_in_unit_ball(self, k):
        a = 0.05
        grid = np.linspace(a, 1.0, 10001)
        vals = np.array([scaled_cheb_eval(a, k, x) for x in grid])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-10
        head = np.array([scaled_cheb_eval(a, k, x) for x in np.linspace(0.0, a, 2001)])
        assert np.all(np.diff(head) <= 1e-12)  # decreasing toward the interval

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_fourth_kind_in_unit_ball(self, k):
        grid = np.linspace(0.0, 1.0, 10001)
        vals = fourth_kind_basis(1.0 - 2.0 * grid, k)[k] / (2 * k + 1)
        assert vals[0] == pytest.approx(1.0)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-10


class TestCoefficientRoots:
    def test_k1(self):
        alpha, delta = coefficient_roots(1)
        assert alpha == [pytest.approx(-1.0)]
        assert delta == []

    def test_k2(self):
        alpha, delta = coefficient_roots(2)
        assert alpha[0] == pytest.approx(-math.tan(math.pi / 8) ** 2)
        assert alpha[1] == pytest.approx(-math.tan(3 * math.pi / 8) ** 2)
        assert delta == [pytest.approx(-1.0)]

    @pytest.mark.parametrize("k", range(1, 21))
    def test_roots_satisfy_binomial_polynomials(self, k):
        alpha, delta = coefficient_roots(k)
        # p(x) = sum_j C(2k,2j) x^j has the alpha roots; q the delta roots
        pc = [math.comb(2 * k, 2 * j) for j in range(k + 1)]
        qc = [math.comb(2 * k, 2 * j + 1) for j in range(k)]
        # backward-error tolerance: residual small relative to the total
        # magnitude of the summed terms (the sums cancel heavily near r = -1)
        for r in alpha:
            val = sum(c * r**j for j, c in enumerate(pc))
            scale = sum(abs(c) * abs(r) ** j for j, c in enumerate(pc))
            assert abs(val) <= 1e-12 * scale + 1e-12
        for r in delta:
            val = sum(c * r**j for j, c in enumerate(qc))
            scale = sum(abs(c) * abs(r) ** j for j, c in enumerate(qc))
            assert abs(val) <= 1e-12 * scale + 1e-12

    @pytest.mark.parametrize("k", range(2, 21))
    def test_interlacing(self, k):
        alpha, delta = coefficient_roots(k)
        assert 0.0 > alpha[0]
        for j in range(k - 1):
            assert alpha[j] > delta[j] > alpha[j + 1]
