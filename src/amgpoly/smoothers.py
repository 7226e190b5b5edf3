"""Runtime smoother kernels.

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
  opt_cheb1   p(t) = tau_k^{[a,1]}(t), a = a*_k, theta = (1+a)/2, delta = (1-a)/2
              c_1 = 0, e_1 = 1/theta, w_j = 1, and for j >= 2
              c_j = rho_j rho_{j-1}, e_j = 2 rho_j/delta with
              rho_1 = delta/theta, rho_j = 1/(2 theta/delta - rho_{j-1})

The tests' oracles (``tests/oracles.py``) are built from the polynomials
p above, never from the step table, so that comparing the kernel against
them checks the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optimize import load_beta_tables, solve_a_star
from .sparse import CsrMatrix

FAMILIES = ("l1_jacobi", "cheb4", "opt_cheb4", "opt_cheb1")


def l1_jacobi_diag(A):
    """l1-Jacobi diagonal of a square matrix with positive diagonal.

    Returns the array M_i = a_ii + sum_{j != i} |a_ij|, the row sums of
    |a_ij| taken by ``sum(axis=1)`` of the scipy matrix of a ``CsrMatrix``
    and of the dense array of any other operator (``SpectralOperator``).
    """
    if A.nrows != A.ncols:
        raise ValueError("matrix must be square")
    X = A.to_scipy() if isinstance(A, CsrMatrix) else A.to_dense()
    d = X.diagonal()
    row_abs = np.asarray(abs(X).sum(axis=1)).ravel()
    if np.any(d <= 0.0):
        raise ValueError("non-positive diagonal entry")
    return row_abs - np.abs(d) + d


@dataclass(frozen=True)
class PolySmootherConfig:
    """Family and degree, which fix every per-family parameter.

    opt_cheb1 reads a*_k from ``solve_a_star`` and opt_cheb4 its table from
    ``load_beta_tables``, both cached.  Frozen, so that ``steps``, the table
    ``smoother_apply`` runs, is built once here and matches the other fields.
    """

    family: str = "opt_cheb1"
    degree: int = 4
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown smoother family {self.family!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.family == "opt_cheb4" and self.degree not in load_beta_tables():
            raise ValueError(f"no opt_cheb4 beta table for degree {self.degree}")
        object.__setattr__(self, "steps", step_coefficients(self))


def step_coefficients(config):
    """The (c_j, e_j, w_j) table, j = 1..k, that ``smoother_apply`` runs."""
    k = config.degree
    if config.family == "l1_jacobi":
        return ((0.0, 1.0, 1.0),) * k
    if config.family in ("cheb4", "opt_cheb4"):
        betas = load_beta_tables()[k].beta if config.family == "opt_cheb4" else np.ones(k)
        return tuple(
            ((2 * j - 3) / (2 * j + 1), (8 * j - 4) / (2 * j + 1), float(betas[j - 1]))
            for j in range(1, k + 1)
        )
    a = float(solve_a_star(k))  # Python floats throughout: they keep a float32 step in float32
    theta, delta = (1.0 + a) / 2.0, (1.0 - a) / 2.0
    sigma1 = theta / delta
    steps = [(0.0, 1.0 / theta, 1.0)]
    rho_prev = 1.0 / sigma1
    for _ in range(1, k):
        rho_cur = 1.0 / (2.0 * sigma1 - rho_prev)
        steps.append((rho_cur * rho_prev, 2.0 * rho_cur / delta, 1.0))
        rho_prev = rho_cur
    return tuple(steps)


def smoother_apply(config, A, M, b, x0=None):
    """Apply one degree-k smoother step: returns the updated iterate.

    From an explicit ``x0`` each family performs exactly k operator
    applications (SpMV), matching the cost of k basic sweeps.  With
    ``x0=None`` the step starts from x = 0, whose residual is b itself, and
    performs k - 1; the result is the same as from ``x0 = 0``.  The step
    runs in the dtype of ``M``, with ``A`` and ``b`` in the same dtype.
    """
    dtype = M.dtype
    b = np.asarray(b, dtype=dtype)
    n = len(b)
    x = np.zeros(n, dtype) if x0 is None else np.array(x0, dtype=dtype)
    if len(x) != n or n != A.nrows:
        raise ValueError("dimension mismatch")
    r = b.copy() if x0 is None else b - A.matvec(x)
    d = np.empty(n, dtype)  # every family's first step overwrites it
    s = np.empty(n, dtype)  # scratch for e_j M^-1 r, then w_j d
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


def as_preconditioner(config, A, M):
    """The smoother as a symmetric linear operator r -> x.

    Each application starts from a zero guess, so it costs k - 1 SpMVs.
    """

    def apply(r):
        return smoother_apply(config, A, M, r)

    return apply
