"""AMG hierarchy construction, V-cycle application, and dense bound oracles.

Coarsening is either classical smoothed aggregation (greedy strong-neighbor
seeding in natural index order) or repeated greedy pairwise matching; the
tentative prolongator is damped by one weighted Jacobi step
P = (I - omega D^-1 A) P_hat with omega = 4/(3 lambda_max).  All greedy ties
break toward the lowest index so hierarchies are identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .optimize import evaluate_gamma_numeric
from .smoothers import (
    L1JacobiData,
    PolySmootherConfig,
    error_polynomial_coeffs,
    l1_jacobi_diag,
    smoother_apply,
)
from .sparse import CsrMatrix, dense_cholesky_solve, dense_sym_eig, spmv


@dataclass
class CoarseningConfig:
    kind: str = "smoothed_aggregation"  # or "pairwise_matching"
    strength_theta: float = 0.01
    matching_sweeps: int = 3  # aggregates up to 2^sweeps
    prolongator_smoothing: bool = True

    def __post_init__(self):
        if self.kind not in ("smoothed_aggregation", "pairwise_matching"):
            raise ValueError(f"unknown coarsening kind {self.kind!r}")
        if not 0.0 <= self.strength_theta < 1.0:
            raise ValueError("strength_theta must lie in [0, 1)")
        if self.matching_sweeps < 1:
            raise ValueError("matching_sweeps must be >= 1")


@dataclass
class Level:
    A: CsrMatrix
    M: L1JacobiData
    smoother: PolySmootherConfig
    P: CsrMatrix | None = None  # prolongator from the next-coarser level
    n_aggregates: int = 0
    _Pt: CsrMatrix | None = field(default=None, repr=False)

    def restrict_op(self):
        if self._Pt is None:
            self._Pt = self.P.transpose()
        return self._Pt


@dataclass
class AmgHierarchy:
    levels: list  # fine to coarse
    coarse_solver: str = "l1_jacobi"  # or "dense_direct"
    coarse_sweeps: int = 30
    stagnated: bool = False
    _coarse_dense: np.ndarray | None = field(default=None, repr=False)

    def operator_complexity(self):
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz

    def summary(self):
        return {
            "levels": [
                {
                    "size": l.A.nrows,
                    "nnz": l.A.nnz,
                    "aggregates": l.n_aggregates,
                    "smoother": l.smoother.family,
                    "degree": l.smoother.degree,
                }
                for l in self.levels
            ],
            "coarse_solver": self.coarse_solver,
            "operator_complexity": self.operator_complexity(),
            "stagnated": self.stagnated,
        }

    def summary_json(self):
        return json.dumps(self.summary(), indent=2)


# -- coarsening -------------------------------------------------------------


def _aggregates_to_prolongator(n, agg, n_agg):
    cols = np.asarray(agg, dtype=np.int64)
    return CsrMatrix(n, n_agg, np.arange(n + 1), cols, np.ones(n))


def sa_aggregate(A, theta=0.01):
    """Tentative prolongator by greedy strong-neighbor aggregation.

    Strength: |a_ij| >= theta * sqrt(a_ii a_jj).  Seeds sweep the rows in
    natural order, absorbing unaggregated strong neighbors; leftovers join
    their strongest adjacent aggregate and isolated rows become singletons.
    """
    sp = A.to_scipy()
    n = A.nrows
    diag = sp.diagonal()
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = sp.indptr, sp.indices, sp.data

    def strong_neighbors(i):
        lo, hi = indptr[i], indptr[i + 1]
        out = []
        for j, v in zip(indices[lo:hi], data[lo:hi]):
            if j != i and abs(v) >= theta * np.sqrt(abs(diag[i] * diag[j])):
                out.append(j)
        return out

    n_agg = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        neigh = [j for j in strong_neighbors(i) if agg[j] < 0]
        if len(neigh) < 2:
            continue  # too close to existing aggregates; leftover pass decides
        agg[i] = n_agg
        for j in neigh:
            agg[j] = n_agg
        n_agg += 1
    for i in range(n):
        if agg[i] >= 0:
            continue
        best, best_w = -1, -1.0
        for j in strong_neighbors(i):
            if agg[j] >= 0:
                lo, hi = indptr[i], indptr[i + 1]
                w = max(abs(v) for jj, v in zip(indices[lo:hi], data[lo:hi]) if jj == j)
                if w > best_w:
                    best, best_w = agg[j], w
        if best >= 0:
            agg[i] = best
        else:
            agg[i] = n_agg  # isolated row
            n_agg += 1
    return _aggregates_to_prolongator(n, agg, n_agg)


def matching_aggregate(A, sweeps=3):
    """Tentative prolongator by repeated greedy pairwise matching.

    Edge weight w_ij = 1 - 2 a_ij / (a_ii + a_jj), clamped below at zero, so
    strongly negatively coupled pairs merge first.  Each sweep halves the
    graph at most; aggregate sizes stay <= 2^sweeps.
    """
    n0 = A.nrows
    agg = np.arange(n0, dtype=np.int64)  # fine row -> current coarse index
    cur = A.to_scipy()
    for _ in range(sweeps):
        n = cur.shape[0]
        coo = scipy.sparse.triu(cur, k=1).tocoo()
        diag = cur.diagonal()
        w = 1.0 - 2.0 * coo.data / (diag[coo.row] + diag[coo.col])
        keep = w > 0.0
        edges = sorted(
            zip(w[keep], coo.row[keep], coo.col[keep]),
            key=lambda e: (-e[0], e[1], e[2]),
        )
        mate = np.full(n, -1, dtype=np.int64)
        for _, i, j in edges:
            if mate[i] < 0 and mate[j] < 0:
                mate[i] = j
                mate[j] = i
        new_idx = np.full(n, -1, dtype=np.int64)
        nc = 0
        for i in range(n):
            if new_idx[i] >= 0:
                continue
            new_idx[i] = nc
            if mate[i] >= 0:
                new_idx[mate[i]] = nc
            nc += 1
        agg = new_idx[agg]
        Pc = _aggregates_to_prolongator(n, new_idx, nc)
        cur = Pc.to_scipy().T @ cur @ Pc.to_scipy()
        if nc == n:
            break
    return _aggregates_to_prolongator(n0, agg, int(agg.max()) + 1)


def estimate_lambda_max(A, d, iters=25):
    """Power-iteration estimate of the largest eigenvalue of D^-1 A.

    Runs on the similar symmetric operator D^-1/2 A D^-1/2 and returns the
    final Rayleigh quotient, which converges at the squared power-iteration
    rate.  The start vector is all-ones plus a fixed seeded perturbation:
    on mirror-symmetric grids the plain ones vector is exactly orthogonal
    to the dominant (oscillatory) mode and the iteration would stall on a
    lower eigenvalue.  The seed is fixed, so the estimate is deterministic.
    """
    if np.any(d <= 0.0):
        raise ValueError("diagonal must be positive")
    ds = np.sqrt(d)
    v = np.ones(A.nrows) + np.random.default_rng(0).uniform(-0.5, 0.5, A.nrows)
    lam = 1.0
    for _ in range(iters):
        w = spmv(A, v / ds) / ds
        lam = float(v @ w) / float(v @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return lam


def smooth_prolongator(A, P_hat, omega):
    """P = (I - omega D^-1 A) P_hat assembled sparsely."""
    d = A.diagonal()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry")
    Asp = A.to_scipy()
    scaled = scipy.sparse.diags(omega / d) @ Asp
    return CsrMatrix.from_scipy(P_hat.to_scipy() - scaled @ P_hat.to_scipy())


def galerkin_rap(A, P):
    """Coarse operator P^T A P; symmetrized to the working precision."""
    if A.ncols != P.nrows:
        raise ValueError("dimension mismatch in Galerkin product")
    sp = P.to_scipy().T @ A.to_scipy() @ P.to_scipy()
    sp = (sp + sp.T) * 0.5
    return CsrMatrix.from_scipy(sp)


def build_hierarchy(
    A,
    coarsening=None,
    smoother=None,
    max_levels=10,
    min_coarse_size=200,
    coarse_solver="l1_jacobi",
    coarse_sweeps=30,
):
    """Build levels until the coarse size or level cap is hit.

    Stops early (with ``stagnated`` set) if two successive coarsenings fail
    to shrink the problem below 95% of the fine size.
    """
    coarsening = coarsening or CoarseningConfig()
    smoother = smoother or PolySmootherConfig(family="opt_cheb1", degree=4)
    levels = [Level(A=A, M=l1_jacobi_diag(A), smoother=smoother)]
    stagnated = 0
    while (
        levels[-1].A.nrows > min_coarse_size
        and len(levels) < max_levels
        and stagnated < 2
    ):
        Al = levels[-1].A
        if coarsening.kind == "smoothed_aggregation":
            P_hat = sa_aggregate(Al, coarsening.strength_theta)
        else:
            P_hat = matching_aggregate(Al, coarsening.matching_sweeps)
        if coarsening.prolongator_smoothing:
            d = Al.diagonal()
            lam = estimate_lambda_max(Al, d)
            P = smooth_prolongator(Al, P_hat, 4.0 / (3.0 * lam))
        else:
            P = P_hat
        if P.ncols >= 0.95 * Al.nrows:
            stagnated += 1
        else:
            stagnated = 0
        if P.ncols >= Al.nrows:
            break
        Ac = galerkin_rap(Al, P)
        levels[-1].P = P
        levels[-1].n_aggregates = P.ncols
        levels.append(Level(A=Ac, M=l1_jacobi_diag(Ac), smoother=smoother))
    return AmgHierarchy(
        levels=levels,
        coarse_solver=coarse_solver,
        coarse_sweeps=coarse_sweeps,
        stagnated=stagnated >= 2,
    )


# -- V-cycle ----------------------------------------------------------------


def _coarse_solve(h, r):
    level = h.levels[-1]
    if h.coarse_solver == "dense_direct":
        if h._coarse_dense is None:
            h._coarse_dense = level.A.to_dense()
        return dense_cholesky_solve(h._coarse_dense, r)
    cfg = PolySmootherConfig(family="l1_jacobi", degree=h.coarse_sweeps)
    return smoother_apply(cfg, level.A, level.M, r, np.zeros_like(r))


def vcycle_apply(h, r, _level=0):
    """One symmetric V-cycle applied to a residual; returns the correction."""
    if len(r) != h.levels[_level].A.nrows:
        raise ValueError("dimension mismatch")
    if _level == len(h.levels) - 1:
        return _coarse_solve(h, r)
    level = h.levels[_level]
    x = smoother_apply(level.smoother, level.A, level.M, r, np.zeros_like(r))
    resid = r - spmv(level.A, x)
    rc = spmv(level.restrict_op(), resid)
    xc = vcycle_apply(h, rc, _level + 1)
    x = x + spmv(level.P, xc)
    return smoother_apply(level.smoother, level.A, level.M, r, x)


def as_vcycle_preconditioner(h):
    return lambda r: vcycle_apply(h, r)


# -- dense two-level oracle -------------------------------------------------


def two_level_constants(A, P, M, smoother):
    """Dense evaluation of the two-level bound quantities.

    Returns (C, gamma, bound, actual_E_norm_sq):
      C      largest generalized eigenvalue of (T A T, B) with
             T = A^-1 - P Ac^-1 P^T and B the l1-Jacobi diagonal,
      gamma  numeric smoothing constant of the smoother's polynomial,
      bound  C/(C + 1/gamma), reducing to C/(C + 2k) for k plain sweeps,
      actual the A-norm squared of E = G^T (I - P Ac^-1 P^T A) G.
    """
    n = A.nrows
    Ad = A.to_dense()
    Pd = P.to_dense()
    Ac = Pd.T @ Ad @ Pd
    Ainv = np.linalg.inv(Ad)
    T = Ainv - Pd @ np.linalg.inv(Ac) @ Pd.T
    # C = sup ||T u||_A^2 over ||u|| <= 1 in the inverse-M norm, i.e. the
    # largest eigenvalue of M^1/2 (T A T) M^1/2 with M the l1-Jacobi diagonal.
    # This weighting is the one under which the smoothing constant gamma of
    # M^-1 A closes the C/(C + 1/gamma) argument.
    bs = np.sqrt(M.m_diag)
    S = (T @ Ad @ T) * np.outer(bs, bs)
    S = (S + S.T) * 0.5
    C = float(np.max(dense_sym_eig(S)[0]))

    coef = error_polynomial_coeffs(smoother)

    def p_eval(x):
        return float(np.polynomial.polynomial.polyval(x, coef))

    if smoother.family == "l1_jacobi":
        inv_gamma = 2.0 * smoother.degree
        gamma = 1.0 / inv_gamma
    else:
        gamma = evaluate_gamma_numeric(p_eval, grid_size=4001, c1=coef[1])
        inv_gamma = 1.0 / gamma
    bound = C / (C + inv_gamma)

    # E = G^T (I - P Ac^-1 P^T A) G, columns via the runtime smoother kernel
    G = np.empty((n, n))
    zero = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        G[:, j] = smoother_apply(smoother, A, M, zero, e)
    corr = np.eye(n) - Pd @ np.linalg.solve(Ac, Pd.T @ Ad)
    # G is A-self-adjoint, so its transpose in the A inner product is itself;
    # assemble E = G * corr * G directly.
    E = G @ corr @ G
    w, V = dense_sym_eig(Ad)
    if np.any(w <= 0.0):
        raise ValueError("A must be positive definite")
    Ah = V @ np.diag(np.sqrt(w)) @ V.T
    Ahi = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    Sym = Ah @ E @ Ahi
    Sym = (Sym + Sym.T) * 0.5
    actual = float(np.max(np.abs(dense_sym_eig(Sym)[0])) ** 2)
    return C, gamma, bound, actual
