"""Offline minimax optimization for the polynomial smoother parameters.

Solves for the optimal left endpoint a*_k of the scaled first-kind family,
evaluates the attained smoothing constant Lambda_k, checks the analytic
sandwich bounds, and numerically optimizes the fourth-kind coefficient
tables beta_{j,k}.  Results for k = 1..20 ship as a CSV data asset
(regenerated by scripts/regenerate_tables.py).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .chebyshev import c1_coefficient, cheb1_eval, fourth_kind_basis


@dataclass
class OptimalParams:
    """Per-degree record for the first-kind smoother."""

    k: int
    a_star: float
    lambda_k: float
    a_lower: float = math.nan
    a_upper: float = math.nan
    lam_lower: float = math.nan
    lam_upper: float = math.nan


@dataclass
class BetaTable:
    """Coefficients of the numerically optimized fourth-kind smoother.

    beta[j-1] holds beta_{j,k} for j = 1..k; beta_0 = 1 and beta_{k+1} = 0
    are implicit in the W_j expansion of the error polynomial.
    """

    k: int
    beta: np.ndarray
    gamma_value: float


def phi(k, x):
    """Sign-stable evaluation of 8k(1-x^2)^{2k} + x[(1-x)^{4k} - (1+x)^{4k}].

    The expression is divided through by (1+x)^{4k} (positive, so the sign
    and root are unchanged), which keeps it in range for large k.
    """
    t = (1.0 - x) / (1.0 + x)
    return 8.0 * k * t ** (2 * k) + x * (t ** (4 * k) - 1.0)


def brent_root(f, a, b, xtol=1e-15, maxiter=200):
    """Bracketed root via bisection + secant + inverse quadratic interpolation."""
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        raise ValueError("root is not bracketed")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b = b + (d if abs(d) > tol else (tol if m > 0 else -tol))
        fb = f(b)
    return b


def solve_a_star(k):
    """Optimal interval endpoint a*_k: square of the unique (0,1) root of phi."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    x = brent_root(lambda x: phi(k, x), 1e-8, 1.0 - 1e-8)
    return x * x


def lambda_of(k, a):
    """max of the two branch values of the smoothing objective at endpoint a.

    Left branch (the x -> 0+ limit on (0, a]) is 1/(2|c1|); right branch is
    the value at x = 1, namely 1/(tau_k(y)^2 - 1) with y = (1+a)/(1-a).  At
    a = a*_k the branches equi-oscillate and the value is Lambda_k.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    left = 1.0 / (2.0 * abs(c1_coefficient(a, k)))
    y = (1.0 + a) / (1.0 - a)
    tk = cheb1_eval(k, y)
    right = 1.0 / (tk * tk - 1.0)
    return max(left, right)


def theorem_bounds(k):
    """Closed-form sandwich bounds on a*_k and Lambda_k, valid for k >= 3."""
    if k < 3:
        raise ValueError("bounds require k >= 3")
    lk = math.log(k)
    return (
        lk * lk / (9.0 * k * k),
        lk * lk / (k * k),
        lk / (6.0 * k * k),
        1.03 * lk / (2.0 * k * k),
    )


def gamma_cheb4(k):
    """Smoothing constant of the plain fourth-kind smoother: 3/(4k(k+1))."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    return 3.0 / (4.0 * k * (k + 1))


def evaluate_gamma_numeric(p, grid_size=20001, c1=None):
    """Grid estimate of sup_{0 < x <= 1} x p(x)^2 / (1 - p(x)^2).

    ``p`` is any callable polynomial evaluator with p(0) = 1 and |p| < 1 on
    (0, 1].  The analytic x -> 0+ limit 1/(2|p'(0)|) is included, with p'(0)
    taken from ``c1`` when supplied and from a Richardson-extrapolated
    central difference otherwise.
    """
    grid = np.logspace(-8.0, 0.0, grid_size)
    vals = np.array([p(x) for x in grid])
    if np.any(np.abs(vals) >= 1.0):
        bad = grid[np.argmax(np.abs(vals) >= 1.0)]
        raise ValueError(f"|p| >= 1 inside (0, 1] at x={bad}")
    sup = float(np.max(grid * vals**2 / (1.0 - vals**2)))
    if c1 is None:
        h = 1e-5
        d1 = (p(h) - p(-h)) / (2.0 * h)
        d2 = (p(h / 2) - p(-h / 2)) / h
        c1 = (4.0 * d2 - d1) / 3.0
    if c1 != 0.0:
        sup = max(sup, 1.0 / (2.0 * abs(c1)))
    return sup


# -- optimized fourth-kind coefficients -------------------------------------


def _beta_basis(k, grid):
    """Evaluate the W_j expansion basis on the grid.

    p(x; beta) = base(x) + sum_i beta_i basis_i(x) with base = W_0 and
    basis_i = W_i(1-2x)/(2i+1) - W_{i-1}(1-2x)/(2i-1), coming from
    p = sum_j (beta_j - beta_{j+1})/(2j+1) W_j(1-2x), beta_0 = 1,
    beta_{k+1} = 0.  p(0) = 1 holds for any beta since W_j(1) = 2j+1.
    """
    W = fourth_kind_basis(1.0 - 2.0 * grid, k)
    basis = np.stack(
        [W[i] / (2 * i + 1) - W[i - 1] / (2 * i - 1) for i in range(1, k + 1)]
    )
    return W[0], basis


def _beta_objective(grid, base, basis, beta):
    pv = base + beta @ basis
    denom = 1.0 - pv * pv
    if np.any(denom <= 0.0):
        return math.inf
    return float(np.max(grid * pv * pv / denom))


def optimize_beta(k, grid_size=20001, max_rounds=60):
    """Grid minimax for the optimized fourth-kind coefficient table.

    The objective max_x x p(x)^2/(1-p(x)^2) is convex in beta (p is linear
    in beta and p^2/(1-p^2) is convex on |p| < 1), and the level set
    {max <= t} is exactly the linear feasibility region
    |p(x)| <= sqrt(t/(t+x)) on the grid.  Bisection on t with an LP
    feasibility check per level therefore converges to the grid optimum;
    ``max_rounds`` caps the bisection steps.
    """
    if not 1 <= k <= 12:
        raise ValueError("beta tables supported for 1 <= k <= 12")
    from scipy.optimize import linprog

    full_grid = np.logspace(-8.0, 0.0, grid_size)
    full_base, full_basis = _beta_basis(k, full_grid)
    # Bisection runs on a thinned constraint grid; the attained value is
    # always reported on the full grid.
    grid = np.logspace(-8.0, 0.0, min(grid_size, 6001))
    base, basis = _beta_basis(k, grid)

    # p(x) rows: A_ub beta <= b_ub encodes +-p(x) <= bound(x) with a shared
    # slack variable minimized by the LP; feasible level iff slack <= 0.
    def feasible(t):
        bound = np.sqrt(t / (t + grid))
        A = np.concatenate([basis.T, -basis.T])
        A = np.hstack([A, -np.ones((A.shape[0], 1))])
        b = np.concatenate([bound - base, bound + base])
        c = np.zeros(k + 1)
        c[-1] = 1.0
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (k + 1),
                      method="highs")
        if not res.success:
            return False, None
        return res.x[-1] <= 1e-12, res.x[:k]

    hi = _beta_objective(grid, base, basis, np.ones(k))  # plain 4th-kind table
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
    gamma = _beta_objective(full_grid, full_base, full_basis, beta)
    return BetaTable(k=k, beta=np.asarray(beta), gamma_value=gamma)


# -- parameter table asset --------------------------------------------------


def compute_optimal_params(k):
    a = solve_a_star(k)
    rec = OptimalParams(k=k, a_star=a, lambda_k=lambda_of(k, a))
    if k >= 3:
        rec.a_lower, rec.a_upper, rec.lam_lower, rec.lam_upper = theorem_bounds(k)
    return rec


_PARAMS_CACHE = None
_BETA_CACHE = None


def load_params_table():
    """Precomputed OptimalParams for k = 1..20 from the package data asset."""
    global _PARAMS_CACHE
    if _PARAMS_CACHE is None:
        text = resources.files("amgpoly.data").joinpath("optimal_params.csv").read_text()
        table = {}
        for row in csv.DictReader(io.StringIO(text)):
            k = int(row["k"])
            table[k] = OptimalParams(
                k=k,
                a_star=float(row["a_star"]),
                lambda_k=float(row["lambda_k"]),
                a_lower=float(row["a_lower"]),
                a_upper=float(row["a_upper"]),
                lam_lower=float(row["lam_lower"]),
                lam_upper=float(row["lam_upper"]),
            )
        _PARAMS_CACHE = table
    return _PARAMS_CACHE


def load_beta_tables():
    """Precomputed BetaTable records keyed by degree."""
    global _BETA_CACHE
    if _BETA_CACHE is None:
        text = resources.files("amgpoly.data").joinpath("beta_tables.csv").read_text()
        table = {}
        for row in csv.DictReader(io.StringIO(text)):
            k = int(row["k"])
            beta = np.array([float(v) for v in row["beta"].split()])
            table[k] = BetaTable(k=k, beta=beta, gamma_value=float(row["gamma_value"]))
        _BETA_CACHE = table
    return _BETA_CACHE


def optimal_a(k):
    """a*_k from the shipped table when available, else solved on demand."""
    table = load_params_table()
    if k in table:
        return table[k].a_star
    return solve_a_star(k)


def params_csv_rows(kmax):
    """Rows for the CSV export: per-degree parameters, bounds, and gammas."""
    betas = load_beta_tables()
    rows = []
    for k in range(1, kmax + 1):
        rec = compute_optimal_params(k)
        gamma_opt4 = betas[k].gamma_value if k in betas else math.nan
        rows.append(
            {
                "k": k,
                "a_star": rec.a_star,
                "lambda_k": rec.lambda_k,
                "gamma_cheb4": gamma_cheb4(k),
                "gamma_opt4": gamma_opt4,
                "a_lower": rec.a_lower,
                "a_upper": rec.a_upper,
                "lam_lower": rec.lam_lower,
                "lam_upper": rec.lam_upper,
            }
        )
    return rows

