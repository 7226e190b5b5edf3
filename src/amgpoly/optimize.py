"""Offline minimax optimization for the polynomial smoother parameters.

Solves for the optimal left endpoint a*_k of the scaled first-kind family,
evaluates the attained smoothing constant Lambda_k, checks the analytic
sandwich bounds, and numerically optimizes the fourth-kind coefficient
tables beta_{j,k}.  a*_k is solved on first use, by bisection to adjacent
floats; the beta tables for k = 1..12 ship as a CSV data asset (regenerated by
scripts/regenerate_tables.py).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

# optimize_beta's full grid on [1e-8, 1] and its cap on the number of levels
BETA_GRID_SIZE = 20001
BETA_MAX_ROUNDS = 60


@dataclass
class BetaTable:
    """Coefficients of the numerically optimized fourth-kind smoother.

    beta[j-1] holds beta_{j,k} for j = 1..k; beta_0 = 1 and beta_{k+1} = 0
    are implicit in the W_j expansion of the error polynomial.
    """

    beta: np.ndarray
    gamma_value: float


def _branches(k, s):
    """The two branch values of the smoothing objective at s = sqrt(a).

    With y = (1+a)/(1-a), acosh(y) = 2 atanh(s), so with u = 2k atanh(s),
    T_k(y) = cosh(u).  The left branch, the x -> 0+ limit 1/(2|tau'(0)|),
    is then s/(2k tanh u), and the right branch, the value 1/(T_k(y)^2 - 1)
    at x = 1, is 1/sinh(u)^2.  1/sinh(u) is evaluated as
    2 e^-u / -expm1(-2u) and squared by a product, so every s in (0, 1)
    gives a defined pair (the right branch is ``inf`` where 1/sinh(u)^2
    overflows).  The left branch rises and the right falls with s; they are
    equal at s = sqrt(a*_k).
    """
    u = 2.0 * k * math.atanh(s)
    inv_sinh = 2.0 * math.exp(-u) / -math.expm1(-2.0 * u)
    return s / (2.0 * k * math.tanh(u)), inv_sinh * inv_sinh


@functools.cache
def solve_a_star(k):
    """Optimal interval endpoint a*_k, where the two branches of
    ``_branches`` cross.

    Bisects s = sqrt(a) on (0, 1), moving the lower end while the left
    branch is below the right, until the midpoint rounds to an endpoint:
    the ends are then adjacent floats, and the upper one, where
    left >= right, is squared.  Cached: each degree is solved once per
    process (an error is not cached).
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        left, right = _branches(k, mid)
        if left < right:
            lo = mid
        else:
            hi = mid
    return hi * hi


def lambda_of(k, a):
    """max of the two branch values of the smoothing objective at endpoint a
    (``_branches`` at s = sqrt(a)): ``inf`` where the right branch
    overflows, a below about 1.4e-309/k^2.  At a = a*_k the branches
    equi-oscillate and the value is Lambda_k.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    return max(_branches(k, math.sqrt(a)))


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


# -- optimized fourth-kind coefficients -------------------------------------


def fourth_kind_basis(arg, k):
    """Fourth-kind Chebyshev values [W_0(arg), ..., W_k(arg)].

    W_0 = 1, W_1 = 2 arg + 1, W_{j+1} = 2 arg W_j - W_{j-1}.  ``arg`` may be
    a float, a numpy array or a numpy ``Polynomial``; every fourth-kind
    expansion in the package and its tests goes through this one recurrence.
    """
    W = [arg**0, 2.0 * arg + 1.0]
    for _ in range(2, k + 1):
        W.append(2.0 * arg * W[-1] - W[-2])
    return W[: k + 1]


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


def _local_maxima(v):
    """Indices where v is no smaller than its neighbour(s)."""
    left = np.concatenate([[True], v[1:] >= v[:-1]])
    right = np.concatenate([v[:-1] >= v[1:], [True]])
    return np.flatnonzero(left & right)


def optimize_beta(k):
    """Grid minimax for the optimized fourth-kind coefficient table.

    The objective F(beta) = max_x x p(x)^2/(1-p(x)^2) is convex in beta (p
    is linear in beta and p^2/(1-p^2) is convex on |p| < 1), and the level
    set {F <= t} is exactly the linear feasibility region
    |p(x)| <= sqrt(t/(t+x)) on the grid.  A search on t with an LP
    feasibility check per level therefore converges to the grid optimum t*.

    The bracket [lo, hi] on t* closes from both ends.  Every LP returns a
    table beta_W, feasible or not, and F(beta_W) >= t* on the thinned grid,
    so hi drops to F(beta_W) whenever that is lower, and beta follows it.  A
    feasible level t sets hi = min(F(beta_W), t) and beta = beta_W: beta_W
    meets the constraints of level t only to the margin below, which near
    x = 0 can leave F(beta_W) above t by up to about 5e-5 relative (k = 1).
    The table returned is the one that last lowered hi: a feasible level's,
    or an LP table of lower F found after it (fitting the shipped tables,
    no level of k = 5..8 or 10..12 is feasible before the bracket closes).
    lo starts at 0 and moves only to a level proven infeasible
    (s_W > 1e-12, below).  The next level is hi - (hi - lo)/4, because hi
    soon sits much closer to t* than lo does; after a level that did not
    halve the bracket it is the midpoint, which always does.  The search
    stops when hi - lo <= 1e-5 hi, the resolution at which the thresholds
    below decide a level.  ``BETA_MAX_ROUNDS`` caps the number of levels; a
    bracket still open after it raises RuntimeError, as does an LP that
    HiGHS fails to solve (the slack LP is always feasible and bounded, so a
    failure is numerical).  HiGHS runs without presolve, which on these
    small dense LPs only costs time (the 16 LPs of k = 4, 8, 12: 33.7 ->
    28.9 ms); all 12 shipped tables, regenerated with it off, came out
    byte-identical.

    Each level's LP (minimize a shared slack s subject to
    |p(x)| <= bound(x) + s) runs on a working set W of thinned-grid points,
    kept from level to level (constraint generation for a semi-infinite LP).
    The level is infeasible when s_W > 1e-12, exactly as on the full grid:
    W is a subset of the grid, so the full LP's slack is at least s_W.
    Otherwise v = |p(x)| - bound(x) is evaluated on the whole grid, and the
    level is feasible when no point outside W has v > s_W + 1e-9, so beta_W
    meets every grid constraint to within 1e-9.  That margin is below
    HiGHS's feasibility tolerance, the resolution at which the full-grid LP
    itself decides; a strict 1e-12 check would never settle, because near
    x = 0 every beta leaves |v| < 1e-8.  After every LP the points over the
    margin that lie within 5 grid points of a local maximum of v join W, and
    a level feasible on W but not on the grid re-solves.  Every re-solve
    adds at least one point, so the worst case is the full-grid LP.

    These two thresholds set the stop.  Near t* the slack s_W falls by only
    1.7e-8 (k = 1) to 1.6e-6 (k = 12) per unit relative change of t, so a
    level decided by the 1e-12 slack threshold lies below the zero-slack
    level by 1e-12 / slope, 6e-7 (k = 12) to 6e-5 (k = 1) relative.  A table
    accepted at level t meets its constraints only to that threshold on W
    and to the 1e-9 margin off it, and its F exceeds t by the same 8e-7 to
    5e-5.  Bisecting below a 1e-5 relative bracket therefore locates where
    s_W crosses 1e-12, not t*: below it every LP ends with a slack under
    1e-11 (k = 4: between 1.6e-13 and 1.1e-12), at the scale of the
    threshold itself.
    """
    if not 1 <= k <= 12:
        raise ValueError("beta tables supported for 1 <= k <= 12")
    from scipy.optimize import linprog

    full_grid = np.logspace(-8.0, 0.0, BETA_GRID_SIZE)
    full_base, full_basis = _beta_basis(k, full_grid)
    # The search runs on a thinned constraint grid; the attained value is
    # always reported on the full grid.
    grid = np.logspace(-8.0, 0.0, min(BETA_GRID_SIZE, 6001))
    base, basis = _beta_basis(k, grid)
    c = np.zeros(k + 1)
    c[-1] = 1.0

    def violation(beta, t):
        return np.abs(base + beta @ basis) - np.sqrt(t / (t + grid))

    def near_peaks(v):
        peaks = np.zeros(grid.size)
        peaks[_local_maxima(v)] = 1.0
        return np.convolve(peaks, np.ones(11), mode="same") > 0.5

    beta = np.ones(k)  # plain 4th-kind table: its F is the first upper bound
    hi = _beta_objective(grid, base, basis, beta)
    in_w = np.zeros(grid.size, dtype=bool)
    in_w[::100] = True
    in_w[-1] = True
    in_w[_local_maxima(violation(beta, hi))] = True

    # p(x) rows of W: A_ub beta <= b_ub encodes +-p(x) <= bound(x) with a
    # shared slack variable minimized by the LP.
    def solve_on_w(t):
        idx = np.flatnonzero(in_w)
        bound = np.sqrt(t / (t + grid[idx]))
        rows = basis[:, idx].T
        A = np.hstack([np.concatenate([rows, -rows]), -np.ones((2 * idx.size, 1))])
        b = np.concatenate([bound - base[idx], bound + base[idx]])
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (k + 1),
                      method="highs", options={"presolve": False})
        if not res.success:
            raise RuntimeError(
                f"optimize_beta({k}): HiGHS failed on the slack LP at t={t:.17g} "
                f"(status {res.status}): {res.message}"
            )
        beta_w, slack = res.x[:k], res.x[-1]
        v = violation(beta_w, t)
        over = (v > slack + 1e-9) & ~in_w
        if over.any():
            add = over & near_peaks(v)
            if not add.any():  # keeps every re-solve adding a point
                add[np.argmax(np.where(over, v, -np.inf))] = True
            in_w[add] = True
        return beta_w, slack, over.any()

    lo = 0.0
    halve = False
    rounds = 0
    while hi - lo > 1e-5 * hi:
        if rounds == BETA_MAX_ROUNDS:
            raise RuntimeError(
                f"optimize_beta({k}): bracket [{lo:.17g}, {hi:.17g}] still open "
                f"after BETA_MAX_ROUNDS={BETA_MAX_ROUNDS} levels"
            )
        width = hi - lo
        t = hi - (0.5 if halve else 0.25) * width
        while True:
            beta_w, slack, over = solve_on_w(t)
            f = _beta_objective(grid, base, basis, beta_w)
            if slack <= 1e-12 and not over:  # t is feasible
                hi, beta = min(f, t), beta_w
                break
            if f < hi:
                hi, beta = f, beta_w
            if slack > 1e-12:  # t is infeasible
                lo = t
                break
        halve = hi - lo > 0.5 * width
        rounds += 1
    # the grid starts at 1e-8 and can miss the x -> 0+ limit 1/(2|p'(0)|),
    # with p'(0) = -(2/3) sum_j (beta_j - beta_{j+1}) j(j+1)
    j = np.arange(1, k + 1)
    slope = -2.0 / 3.0 * float(np.sum((beta - np.append(beta[1:], 0.0)) * j * (j + 1)))
    gamma = max(_beta_objective(full_grid, full_base, full_basis, beta), 0.5 / abs(slope))
    return BetaTable(beta=np.asarray(beta), gamma_value=gamma)


# -- parameter tables -------------------------------------------------------


@functools.cache
def load_beta_tables():
    """Precomputed BetaTable records keyed by degree k, each k betas long."""
    text = resources.files("amgpoly.data").joinpath("beta_tables.csv").read_text()
    table = {}
    for row in csv.DictReader(io.StringIO(text)):
        k = int(row["k"])
        beta = np.array([float(v) for v in row["beta"].split()])
        if len(beta) != k:
            raise ValueError(f"beta table length must equal the degree, {k}")
        table[k] = BetaTable(beta=beta, gamma_value=float(row["gamma_value"]))
    return table


def params_csv_rows(kmax):
    """The per-degree table for k = 1..kmax, one dict per degree.

    Keys: ``k``, ``a_star``, ``lambda_k``, ``gamma_cheb4``, ``gamma_opt4``
    (NaN past the shipped tables), the ``theorem_bounds`` ``a_lower``,
    ``a_upper``, ``lam_lower``, ``lam_upper`` (NaN for k < 3) and
    ``crossover``, 1 where the first kind's Lambda_k lies below the fourth
    kind's constant and 0 elsewhere.
    """
    betas = load_beta_tables()
    rows = []
    for k in range(1, kmax + 1):
        a = solve_a_star(k)
        lam, g4 = lambda_of(k, a), gamma_cheb4(k)
        a_lower, a_upper, lam_lower, lam_upper = (
            theorem_bounds(k) if k >= 3 else (math.nan,) * 4
        )
        rows.append(
            {
                "k": k,
                "a_star": a,
                "lambda_k": lam,
                "gamma_cheb4": g4,
                "gamma_opt4": betas[k].gamma_value if k in betas else math.nan,
                "a_lower": a_lower,
                "a_upper": a_upper,
                "lam_lower": lam_lower,
                "lam_upper": lam_upper,
                "crossover": int(lam < g4),
            }
        )
    return rows

