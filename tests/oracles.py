"""Dense and closed-form theory oracles that the tests compare the library with.

None of these runs in ``amgpoly``: each is built from the paper's formulas
(the error polynomials p, the scaled first-kind family, the two-level bound)
and never from the smoother step tables, so that a test comparing the
library with them checks the tables.  Desk-scale sizes only.
``l1_jacobi_diag_reduceat`` is the one oracle of bits, not of theory: an
explicit evaluation of the l1 diagonal that ``l1_jacobi_diag`` must match.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from amgpoly.optimize import (
    fourth_kind_basis,
    gamma_cheb4,
    lambda_of,
    load_beta_tables,
    solve_a_star,
)
from amgpoly.smoothers import l1_jacobi_diag, smoother_apply


def l1_jacobi_diag_reduceat(A):
    """M_i = a_ii + sum_{j != i} |a_ij| of a ``CsrMatrix``, its row sums
    reduced straight from the value array by ``np.add.reduceat`` at the
    nonempty rows: the evaluation that scipy's CSR ``sum(axis=1)`` makes."""
    d = A.diagonal()
    nonempty = np.flatnonzero(np.diff(A.row_ptr))
    row_abs = np.zeros(A.nrows)
    row_abs[nonempty] = np.add.reduceat(np.abs(A.values), A.row_ptr[nonempty])
    return row_abs - np.abs(d) + d


def scaled_cheb_eval(a, k, x):
    """tau_k^{[a,1]}(x) by the shifted three-term recurrence.

    With theta = (1+a)/2 and delta = (1-a)/2, the sigma_k are the
    normalization constants tau_k(theta/delta) written in their own
    recurrence so that tau_k^{[a,1]}(0) = 1 holds exactly.  ``x`` may be a
    float, a numpy array or a numpy ``Polynomial``.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError("interval parameter a must lie in [0, 1)")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1.0
    theta, delta = (1.0 + a) / 2.0, (1.0 - a) / 2.0
    t1 = 1.0 - x / theta
    if k == 1:
        return t1
    ratio = theta / delta
    two_shift = 2.0 * (theta - x) / delta
    sig_m, sig = 1.0, ratio
    tm, t = 1.0, t1
    for _ in range(k - 1):
        sig_next = 2.0 * ratio * sig - sig_m
        t_next = (sig / sig_next) * (two_shift * t - (sig_m / sig) * tm)
        sig_m, sig = sig, sig_next
        tm, t = t, t_next
    return t


def slope_at_zero(a, k):
    """tau_k^{[a,1]}'(0): the degree-one coefficient of ``scaled_cheb_eval`` on
    a numpy ``Polynomial``, so 1/(2|slope|) is the objective's x -> 0+ limit."""
    return scaled_cheb_eval(a, k, npoly.Polynomial([0.0, 1.0])).coef[1]


def smoothing_objective(a, k, x):
    """The weighted error x * tau^2 / (1 - tau^2) at an interior point x.

    Raises at a genuine pole (tau^2 = 1 away from x = 0); the x -> 0+ limit
    is the left branch of ``amgpoly.optimize.lambda_of``.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    tau = scaled_cheb_eval(a, k, x)
    denom = 1.0 - tau * tau
    if abs(denom) <= 1e-14:
        raise ValueError(f"pole of the smoothing objective at x={x}")
    return x * tau * tau / denom


def coefficient_roots(k):
    """Closed-form roots of the even/odd binomial polynomials.

    Returns (alpha, delta): alpha_j = -tan((2j+1)pi/4k)^2 for j=0..k-1 are the
    roots of sum C(2k,2j) x^j, and delta_j = -tan(j pi/2k)^2 for j=1..k-1 are
    the roots of sum C(2k,2j+1) x^j.  They interlace: 0 > a_1 > d_1 > a_2 > ...
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    alpha = [-math.tan((2 * j + 1) * math.pi / (4 * k)) ** 2 for j in range(k)]
    delta = [-math.tan(j * math.pi / (2 * k)) ** 2 for j in range(1, k)]
    return alpha, delta


def smoothing_constant(config):
    """The family's smoothing constant gamma = sup_{0 < t <= 1} t p(t)^2/(1 - p(t)^2).

    The closed form or shipped value of each family: 1/(2k) for k plain
    sweeps, 3/(4k(k+1)) for cheb4, the beta table's ``gamma_value`` for
    opt_cheb4 and Lambda_k at a*_k for opt_cheb1.
    """
    k = config.degree
    if config.family == "l1_jacobi":
        return 1.0 / (2.0 * k)
    if config.family == "cheb4":
        return gamma_cheb4(k)
    if config.family == "opt_cheb4":
        return load_beta_tables()[k].gamma_value
    return lambda_of(k, solve_a_star(k))


def error_polynomial(config, t):
    """The family's error polynomial p(t) at a float, array or numpy ``Polynomial``.

    On numbers its closed form does not cancel near t = 1 as the monomial
    coefficients do.
    """
    k = config.degree
    if config.family == "l1_jacobi":
        return (1.0 - t) ** k
    if config.family == "opt_cheb1":
        return scaled_cheb_eval(solve_a_star(k), k, t)
    W = fourth_kind_basis(1.0 - 2.0 * t, k)
    if config.family == "cheb4":
        return W[k] / (2 * k + 1)
    ext = np.concatenate(([1.0], load_beta_tables()[k].beta, [0.0]))
    return sum(float((ext[j] - ext[j + 1]) / (2 * j + 1)) * W[j] for j in range(k + 1))


def error_polynomial_coeffs(config):
    """Monomial coefficients (ascending) of the family's error polynomial."""
    poly = error_polynomial(config, npoly.Polynomial([0.0, 1.0]))
    return np.asarray(poly.coef, dtype=np.float64)


def smoother_error_oracle(A, M, config, e0):
    """Evaluate p(M^-1 A) e0 by Horner on the monomial coefficients.

    Brute-force reference for smoother_apply; desk-scale sizes only.
    """
    coef = error_polynomial_coeffs(config)
    out = coef[-1] * np.asarray(e0, dtype=np.float64)
    for c in coef[-2::-1]:
        out = A.matvec(out) / M
        out += c * e0
    return out


def two_level_constants(A, P, smoother):
    """Dense evaluation of the two-level bound quantities.

    Returns (C, gamma, bound, actual_E_norm_sq):
      C      largest generalized eigenvalue of (T A T, M^-1) with
             T = A^-1 - P Ac^-1 P^T and M the l1-Jacobi diagonal of A,
      gamma  the smoother's ``smoothing_constant``,
      bound  C/(C + 1/gamma), reducing to C/(C + 2k) for k plain sweeps,
      actual the A-norm squared of E = G^T (I - P Ac^-1 P^T A) G.

    Raises ``ValueError`` unless A is symmetric positive definite.
    """
    if not A.is_symmetric():
        raise ValueError("A must be symmetric")
    Ad = A.to_dense()
    if np.any(np.linalg.eigvalsh(Ad) <= 0.0):
        raise ValueError("A must be positive definite")
    M = l1_jacobi_diag(A)
    n = A.nrows
    Pd = P.to_dense()
    Ac = Pd.T @ Ad @ Pd
    T = np.linalg.inv(Ad) - Pd @ np.linalg.inv(Ac) @ Pd.T
    # C = sup ||T u||_A^2 over ||u|| <= 1 in the inverse-M norm, i.e. the
    # largest eigenvalue of M^1/2 (T A T) M^1/2 = M^1/2 T M^1/2, since
    # T A T = T.  This weighting is the one under which the smoothing
    # constant gamma of M^-1 A closes the C/(C + 1/gamma) argument.
    bs = np.sqrt(M)
    S = T * np.outer(bs, bs)
    S = (S + S.T) * 0.5
    C = float(np.max(np.linalg.eigvalsh(S)))

    gamma = smoothing_constant(smoother)
    bound = C / (C + 1.0 / gamma)

    # E = G^T (I - P Ac^-1 P^T A) G, columns via the runtime smoother kernel
    eye = np.eye(n)
    G = np.column_stack([smoother_apply(smoother, A, M, np.zeros(n), e) for e in eye])
    corr = eye - Pd @ np.linalg.solve(Ac, Pd.T @ Ad)
    # G and corr are A-self-adjoint, so E = G corr G is too: its transpose
    # in the A inner product is itself, and its A-norm is its spectral radius.
    E = G @ corr @ G
    actual = float(np.max(np.abs(np.linalg.eigvals(E))) ** 2)
    return C, gamma, bound, actual
