"""Runtime smoother kernels and the brute-force error-polynomial oracle.

Every family damps the error as e_out = p(M^-1 A) e_in for its polynomial p,
with M the l1-Jacobi diagonal, for which the spectrum of M^-1 A lies in
(0, 1].  All four are applied by one loop over a table of step coefficients
(c_j, e_j, w_j), j = 1..k:

  d <- c_j d + e_j M^-1 r;   x <- x + w_j d;   r <- r - A d

starting from d = 0 and the true residual r = b - A x; the last step skips
the r update, so a degree-k step costs k SpMVs.  The families:

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
them checks the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .chebyshev import ScaledChebParams, fourth_kind_basis, scaled_cheb_eval
from .optimize import BetaTable, load_beta_tables, optimal_a

FAMILIES = ("l1_jacobi", "cheb4", "opt_cheb4", "opt_cheb1")


@dataclass
class L1JacobiData:
    """Per-row diagonal M_i = a_ii + sum_{j != i} |a_ij|."""

    m_diag: np.ndarray


def l1_jacobi_diag(A):
    """l1-Jacobi diagonal of a square matrix with positive diagonal."""
    if hasattr(A, "l1_diag"):
        return L1JacobiData(m_diag=A.l1_diag())
    if A.nrows != A.ncols:
        raise ValueError("matrix must be square")
    sp = A.to_scipy()
    diag = sp.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("non-positive diagonal entry")
    abs_row = np.asarray(np.abs(sp).sum(axis=1)).ravel()
    return L1JacobiData(m_diag=abs_row - np.abs(diag) + diag)


@dataclass
class PolySmootherConfig:
    """Family, degree, and the per-family parameters of a smoother."""

    family: str
    degree: int
    a: float | None = None           # opt_cheb1 interval endpoint
    beta: BetaTable | None = None    # opt_cheb4 coefficient table

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown smoother family {self.family!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.family == "opt_cheb1":
            if self.a is None:
                self.a = optimal_a(self.degree)
            if not 0.0 < self.a < 1.0:
                raise ValueError("a must lie in (0, 1)")
        if self.family == "opt_cheb4" and self.beta is None:
            tables = load_beta_tables()
            if self.degree not in tables:
                raise ValueError(f"no opt_cheb4 beta table for degree {self.degree}")
            self.beta = tables[self.degree]
        if self.beta is not None and len(self.beta.beta) != self.degree:
            raise ValueError("beta table length must equal the degree")


def step_coefficients(config):
    """The (c_j, e_j, w_j) table, j = 1..k, that ``smoother_apply`` runs."""
    k = config.degree
    if config.family == "l1_jacobi":
        return [(0.0, 1.0, 1.0)] * k
    if config.family in ("cheb4", "opt_cheb4"):
        betas = config.beta.beta if config.family == "opt_cheb4" else np.ones(k)
        return [
            ((2 * j - 3) / (2 * j + 1), (8 * j - 4) / (2 * j + 1), betas[j - 1])
            for j in range(1, k + 1)
        ]
    p = ScaledChebParams(config.a, k)
    sigma1 = p.theta / p.delta
    steps = [(0.0, 1.0 / p.theta, 1.0)]
    rho_prev = 1.0 / sigma1
    for _ in range(1, k):
        rho_cur = 1.0 / (2.0 * sigma1 - rho_prev)
        steps.append((rho_cur * rho_prev, 2.0 * rho_cur / p.delta, 1.0))
        rho_prev = rho_cur
    return steps


def smoother_apply(config, A, M, b, x0):
    """Apply one degree-k smoother step: returns the updated iterate.

    Each family performs exactly k operator applications (SpMV), matching
    the cost of k basic sweeps.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    if len(b) != len(x) or len(b) != A.nrows:
        raise ValueError("dimension mismatch")
    m = M.m_diag
    steps = step_coefficients(config)
    r = b - A.matvec(x)
    d = np.zeros_like(x)
    for j, (c, e, w) in enumerate(steps, 1):
        d *= c
        d += e * (r / m)
        x += w * d
        if j < len(steps):  # final residual is not consumed
            r -= A.matvec(d)
    return x


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
    m = M.m_diag
    out = coef[-1] * np.asarray(e0, dtype=np.float64)
    for c in coef[-2::-1]:
        out = A.matvec(out) / m
        out += c * e0
    return out


def smoother_error_apply(config, A, M, e0):
    """Error propagator action via the runtime kernel: G e0 with b = 0."""
    return smoother_apply(config, A, M, np.zeros_like(e0), e0)


def as_preconditioner(config, A, M):
    """The smoother as a symmetric linear operator r -> x (zero initial guess)."""

    def apply(r):
        return smoother_apply(config, A, M, r, np.zeros_like(r))

    return apply
