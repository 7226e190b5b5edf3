"""Runtime smoother kernels, smoothing constants and the error-polynomial oracle.

Every family damps the error as e_out = p(M^-1 A) e_in for its polynomial p,
with M the l1-Jacobi diagonal, for which the spectrum of M^-1 A lies in
(0, 1].  All four are applied by one loop over a table of step coefficients
(c_j, e_j, w_j), j = 1..k:

  d <- c_j d + e_j M^-1 r;   x <- x + w_j d;   r <- r - A d

starting from d = 0 and the true residual r = b - A x; the last step skips
the r update, so a degree-k step costs k SpMVs.  From a zero guess
(``x0=None``) the residual is b itself and the step costs k - 1.  Each
config builds its table once, when it is made.  The families:

  l1_jacobi   p(t) = (1 - t)^k
              c_j = 0, e_j = 1, w_j = 1                 (k plain sweeps)
  cheb4       p(t) = W_k(1 - 2t)/(2k+1)
              c_j = (2j-3)/(2j+1), e_j = (8j-4)/(2j+1), w_j = 1
  opt_cheb4   p(t) = sum_j (beta_j - beta_{j+1})/(2j+1) W_j(1 - 2t)
              as cheb4 with w_j = beta_j                 (Lottes' recurrence)
  opt_cheb1   p(t) = tau_k^{[a,1]}(t),  theta = (1+a)/2, delta = (1-a)/2
              c_1 = 0, e_1 = 1/theta, w_j = 1, and for j >= 2
              c_j = rho_j rho_{j-1}, e_j = 2 rho_j/delta with
              rho_1 = delta/theta, rho_j = 1/(2 theta/delta - rho_{j-1})

``error_polynomial_coeffs`` and the oracle are built from the polynomials
p above, never from the step table, so that comparing the kernel against
them checks the table.  ``smoothing_constant`` is each family's gamma in
the V-cycle bound C/(C + 1/gamma), read from its closed form or table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .chebyshev import ScaledChebParams, fourth_kind_basis, scaled_cheb_eval
from .optimize import BetaTable, gamma_cheb4, lambda_of, load_beta_tables, optimal_a
from .sparse import CsrMatrix

FAMILIES = ("l1_jacobi", "cheb4", "opt_cheb4", "opt_cheb1")


def l1_jacobi_diag(A):
    """l1-Jacobi diagonal of a square matrix with positive diagonal.

    Returns the array M_i = a_ii + sum_{j != i} |a_ij|.  A ``CsrMatrix``'s
    row sums of |a_ij| are reduced straight from its value array, as scipy's
    CSR ``sum(axis=1)`` reduces them (``np.add.reduceat`` at the nonempty
    rows), with no copy of the index arrays; any other operator
    (``SpectralOperator``) is summed over its dense array.
    """
    if A.nrows != A.ncols:
        raise ValueError("matrix must be square")
    if isinstance(A, CsrMatrix):
        d = A.diagonal()
        nonempty = np.flatnonzero(np.diff(A.row_ptr))
        row_abs = np.zeros(A.nrows)
        row_abs[nonempty] = np.add.reduceat(np.abs(A.values), A.row_ptr[nonempty])
    else:
        S = A.to_dense()
        d = S.diagonal()
        row_abs = abs(S).sum(axis=1)
    if np.any(d <= 0.0):
        raise ValueError("non-positive diagonal entry")
    return row_abs - np.abs(d) + d


@dataclass(frozen=True)
class PolySmootherConfig:
    """Family, degree, and the per-family parameters of a smoother.

    Frozen, so that ``steps``, the table ``smoother_apply`` runs, is built
    once here and always matches the other fields.
    """

    family: str
    degree: int
    a: float | None = None           # opt_cheb1 interval endpoint
    beta: BetaTable | None = None    # opt_cheb4 coefficient table
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown smoother family {self.family!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.family == "opt_cheb1":
            if self.a is None:
                object.__setattr__(self, "a", optimal_a(self.degree))
            if not 0.0 < self.a < 1.0:
                raise ValueError("a must lie in (0, 1)")
        if self.family == "opt_cheb4" and self.beta is None:
            tables = load_beta_tables()
            if self.degree not in tables:
                raise ValueError(f"no opt_cheb4 beta table for degree {self.degree}")
            object.__setattr__(self, "beta", tables[self.degree])
        if self.beta is not None and len(self.beta.beta) != self.degree:
            raise ValueError("beta table length must equal the degree")
        object.__setattr__(self, "steps", step_coefficients(self))


def step_coefficients(config):
    """The (c_j, e_j, w_j) table, j = 1..k, that ``smoother_apply`` runs."""
    k = config.degree
    if config.family == "l1_jacobi":
        return ((0.0, 1.0, 1.0),) * k
    if config.family in ("cheb4", "opt_cheb4"):
        betas = config.beta.beta if config.family == "opt_cheb4" else np.ones(k)
        return tuple(
            ((2 * j - 3) / (2 * j + 1), (8 * j - 4) / (2 * j + 1), betas[j - 1])
            for j in range(1, k + 1)
        )
    p = ScaledChebParams(config.a, k)
    sigma1 = p.theta / p.delta
    steps = [(0.0, 1.0 / p.theta, 1.0)]
    rho_prev = 1.0 / sigma1
    for _ in range(1, k):
        rho_cur = 1.0 / (2.0 * sigma1 - rho_prev)
        steps.append((rho_cur * rho_prev, 2.0 * rho_cur / p.delta, 1.0))
        rho_prev = rho_cur
    return tuple(steps)


def smoother_apply(config, A, M, b, x0=None):
    """Apply one degree-k smoother step: returns the updated iterate.

    From an explicit ``x0`` each family performs exactly k operator
    applications (SpMV), matching the cost of k basic sweeps.  With
    ``x0=None`` the step starts from x = 0, whose residual is b itself, and
    performs k - 1; the result is the same as from ``x0 = 0``.
    """
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if len(x) != n or n != A.nrows:
        raise ValueError("dimension mismatch")
    r = b.copy() if x0 is None else b - A.matvec(x)
    d = np.empty(n)  # every family's first step overwrites it
    s = np.empty(n)  # scratch for e_j M^-1 r, then w_j d
    for j, (c, e, w) in enumerate(config.steps, 1):
        if j == 1 or c == 0.0:
            # d = 0 before the first step, and c_j = 0 cancels it later:
            # c_j d + s is s up to the sign of a zero entry, which no later
            # operation turns into a nonzero difference
            np.divide(r, M, out=d)
            if e != 1.0:  # a product with 1.0 is exact: skipping it changes no bit
                d *= e
        else:
            d *= c
            np.divide(r, M, out=s)
            if e != 1.0:
                s *= e
            d += s
        if w != 1.0:
            np.multiply(d, w, out=s)
            x += s
        else:
            x += d
        if j < config.degree:  # final residual is not consumed
            r -= A.matvec(d)
    return x


def smoothing_constant(config):
    """The family's smoothing constant gamma = sup_{0 < t <= 1} t p(t)^2/(1 - p(t)^2).

    The closed form or shipped value of each family: 1/(2k) for k plain
    sweeps, 3/(4k(k+1)) for cheb4, the beta table's ``gamma_value`` for
    opt_cheb4 and Lambda_k at the config's endpoint a for opt_cheb1.
    """
    k = config.degree
    if config.family == "l1_jacobi":
        return 1.0 / (2.0 * k)
    if config.family == "cheb4":
        return gamma_cheb4(k)
    if config.family == "opt_cheb4":
        return config.beta.gamma_value
    return lambda_of(k, config.a)


def error_polynomial_coeffs(config):
    """Monomial coefficients (ascending) of the family's error polynomial."""
    k = config.degree
    t = npoly.Polynomial([0.0, 1.0])
    if config.family == "l1_jacobi":
        poly = (1.0 - t) ** k
    elif config.family in ("cheb4", "opt_cheb4"):
        W = fourth_kind_basis(1.0 - 2.0 * t, k)
        if config.family == "cheb4":
            poly = W[k] / (2 * k + 1)
        else:
            ext = np.concatenate(([1.0], config.beta.beta, [0.0]))
            poly = sum(
                float((ext[j] - ext[j + 1]) / (2 * j + 1)) * W[j] for j in range(k + 1)
            )
    else:
        poly = scaled_cheb_eval(ScaledChebParams(config.a, k), t)
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


def smoother_error_apply(config, A, M, e0):
    """Error propagator action via the runtime kernel: G e0 with b = 0."""
    return smoother_apply(config, A, M, np.zeros_like(e0), e0)


def as_preconditioner(config, A, M):
    """The smoother as a symmetric linear operator r -> x.

    Each application starts from a zero guess, so it costs k - 1 SpMVs.
    """

    def apply(r):
        return smoother_apply(config, A, M, r)

    return apply
