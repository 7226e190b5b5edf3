"""AMG hierarchy construction, V-cycle application, and dense bound oracles.

Coarsening is either classical smoothed aggregation or repeated greedy
pairwise matching; the tentative prolongator is damped by one weighted Jacobi
step P = (I - omega D^-1 A) P_hat with omega = 4/(3 lambda_max).

Smoothed aggregation builds the strength graph once per level: the mask
|a_ij| >= theta sqrt(|a_ii a_jj|), j != i, evaluated with numpy over the CSR
arrays and kept as numpy arrays; the greedy passes turn into Python lists
only the rows they visit.
Seeding walks the rows in natural order; a leftover row joins its strongest
aggregated neighbor, the first in column order on a tie.  Matching visits
the edges by decreasing weight, then lower row, then lower column, and
numbers each pair by its lower index.  These tie-breaks make hierarchies
identical across runs.

Matching is exact greedy matching with less work per edge.  The upper
triangle comes from the CSR arrays (``indices > row``), already in (row,
col) order, so one stable ``argsort`` of -w gives the visiting order.  The
ordered edges are walked in blocks of ``max(n, 1024)``; before each block,
numpy drops the edges with an endpoint matched in an earlier block, which
the greedy loop would skip anyway, and only the live edges reach the Python
loop.  Between sweeps the graph is contracted as ``(Pc^T @ cur) @ Pc``,
all in CSR.  A pair has at most two rows, so each product sums at most two
terms per entry, and such a sum does not depend on the order of its terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .smoothers import PolySmootherConfig, l1_jacobi_diag, smoother_apply, smoothing_constant
from .sparse import MAX_DENSE_N, CsrMatrix, dense_sym_eig, spmv

# Power-iteration steps of estimate_lambda_max
POWER_STEPS = 25


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
    M: np.ndarray  # l1-Jacobi diagonal
    smoother: PolySmootherConfig
    P: CsrMatrix | None = None  # prolongator from the next-coarser level
    R: CsrMatrix | None = None  # restriction P^T to the next-coarser level


@dataclass(frozen=True)
class AmgHierarchy:
    """Levels fine to coarse and one coarse solver.

    Exactly one of ``coarse_smoother`` (the ``l1_jacobi`` sweeps) and
    ``coarse_factor`` (the ``dense_direct`` Cholesky factor) is set.
    """

    levels: tuple
    coarse_smoother: PolySmootherConfig | None
    coarse_factor: tuple | None = field(default=None, repr=False)
    stagnated: bool = False

    @property
    def coarse_solver(self):
        return "l1_jacobi" if self.coarse_factor is None else "dense_direct"

    def operator_complexity(self):
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz

    def summary(self):
        return {
            "levels": [
                {
                    "size": l.A.nrows,
                    "nnz": l.A.nnz,
                    "aggregates": l.P.ncols if l.P is not None else 0,
                    "smoother": l.smoother.family,
                    "degree": l.smoother.degree,
                }
                for l in self.levels
            ],
            "coarse_solver": self.coarse_solver,
            "operator_complexity": self.operator_complexity(),
            "stagnated": self.stagnated,
        }


# -- coarsening -------------------------------------------------------------


def _aggregates_to_prolongator(n, agg, n_agg):
    cols = np.asarray(agg, dtype=np.int64)
    return CsrMatrix(n, n_agg, np.arange(n + 1), cols, np.ones(n))


def strength_graph(A, theta):
    """Strong off-diagonal couplings of each row, in column order.

    Entry (i, j) is strong when j != i and |a_ij| >= theta sqrt(|a_ii a_jj|),
    evaluated once over the CSR arrays, with the threshold built in place in
    one nnz-long buffer.  Returns ``(ptr, cols, weights)``, all numpy arrays:
    row i's strong columns are ``cols[ptr[i]:ptr[i+1]]`` and their |a_ij| the
    same slice of ``weights``.  ``ptr`` counts the strong entries before each
    ``row_ptr`` position.
    """
    n = A.nrows
    cols = A.col_idx
    diag = A.diagonal()
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(A.row_ptr))
    bound = diag[rows]
    bound *= diag[cols]
    np.abs(bound, out=bound)
    np.sqrt(bound, out=bound)
    bound *= theta
    strong = cols != rows
    del rows
    absv = np.abs(A.values)
    strong &= absv >= bound
    del bound
    before = np.zeros(len(cols) + 1, dtype=A.row_ptr.dtype)
    np.cumsum(strong, dtype=before.dtype, out=before[1:])
    return before[A.row_ptr], cols[strong], absv[strong]


def sa_aggregate(A, theta=0.01):
    """Tentative prolongator by greedy strong-neighbor aggregation.

    The strength graph (``strength_graph``) is built once; both greedy
    passes then walk it in natural row order.  Seeding: an unaggregated row
    with at least two unaggregated strong neighbors becomes a new aggregate
    together with those neighbors.  Leftovers: each remaining row joins the
    aggregate of its strongest aggregated strong neighbor, the first in
    column order winning ties (strict ``>``); a row with none becomes a
    singleton, which later leftover rows may join.
    """
    n = A.nrows
    ptr, cols, weights = strength_graph(A, theta)
    ptr = ptr.tolist()
    agg = [-1] * n
    n_agg = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        neigh = [j for j in cols[ptr[i]:ptr[i + 1]].tolist() if agg[j] < 0]
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
        lo, hi = ptr[i], ptr[i + 1]
        for j, w in zip(cols[lo:hi].tolist(), weights[lo:hi].tolist()):
            a = agg[j]
            if a >= 0 and w > best_w:
                best, best_w = a, w
        if best >= 0:
            agg[i] = best
        else:
            agg[i] = n_agg  # isolated row
            n_agg += 1
    return _aggregates_to_prolongator(n, agg, n_agg)


def matching_aggregate(A, sweeps=3):
    """Tentative prolongator by repeated greedy pairwise matching.

    Edge weight w_ij = 1 - 2 a_ij / (a_ii + a_jj), clamped below at zero, so
    strongly negatively coupled pairs merge first.  Edges are visited by
    decreasing weight, ties broken by the lower row and then the lower
    column; each pair is numbered by its lower index.  Each sweep halves the
    graph at most; aggregate sizes stay <= 2^sweeps.

    Only the edges left live by earlier blocks of the order reach the
    Python loop (module docstring).
    """
    n0 = A.nrows
    agg = np.arange(n0, dtype=np.int64)  # fine row -> current coarse index
    cur = A.to_scipy()  # columns sorted, as after every contraction below
    for sweep in range(sweeps):
        n = cur.shape[0]
        rows = np.repeat(np.arange(n, dtype=cur.indices.dtype), np.diff(cur.indptr))
        upper = cur.indices > rows
        row, col, a = rows[upper], cur.indices[upper], cur.data[upper]
        diag = cur.diagonal()
        w = 1.0 - 2.0 * a / (diag[row] + diag[col])
        keep = w > 0.0
        order = np.argsort(-w[keep], kind="stable")
        row, col = row[keep][order], col[keep][order]
        mate = np.full(n, -1, dtype=np.int64)
        matched = [False] * n
        block = max(n, 1024)
        for start in range(0, len(row), block):
            bi, bj = row[start:start + block], col[start:start + block]
            live = (mate[bi] < 0) & (mate[bj] < 0)
            pi, pj = [], []
            for i, j in zip(bi[live].tolist(), bj[live].tolist()):
                if not (matched[i] or matched[j]):
                    matched[i] = matched[j] = True
                    pi.append(i)
                    pj.append(j)
            mate[pi] = pj
            mate[pj] = pi
        idx = np.arange(n)
        rep = np.where(mate < 0, idx, np.minimum(idx, mate))
        is_rep = rep == idx
        new_idx = (np.cumsum(is_rep) - 1)[rep]
        nc = int(np.count_nonzero(is_rep))
        agg = new_idx[agg]
        if nc == n or sweep == sweeps - 1:
            break  # no further sweep reads the coarsened graph
        Pc = _aggregates_to_prolongator(n, new_idx, nc).to_scipy()
        # Pc^T as CSR, not as a CSC view: same bits (module docstring)
        cur = Pc.T.tocsr() @ cur @ Pc
        cur.sort_indices()
    return _aggregates_to_prolongator(n0, agg, int(agg.max()) + 1)


def estimate_lambda_max(A):
    """Power-iteration estimate of the largest eigenvalue of D^-1 A, D = diag(A).

    Runs ``POWER_STEPS`` steps on the similar symmetric operator
    D^-1/2 A D^-1/2 and returns the Rayleigh quotient of the last one, which
    converges at the squared power-iteration rate.  The start vector is
    all-ones plus a fixed seeded perturbation: on mirror-symmetric grids the
    plain ones vector is exactly orthogonal to the dominant (oscillatory)
    mode and the iteration would stall on a lower eigenvalue.  The seed is
    fixed, so the estimate is deterministic.
    """
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("diagonal must be positive")
    ds = np.sqrt(d)
    v = np.ones(A.nrows) + np.random.default_rng(0).uniform(-0.5, 0.5, A.nrows)
    for _ in range(POWER_STEPS - 1):
        w = spmv(A, v / ds) / ds
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    w = spmv(A, v / ds) / ds
    return float(v @ w) / float(v @ v)


def smooth_prolongator(A, P_hat, omega):
    """P = (I - omega D^-1 A) P_hat assembled sparsely."""
    d = A.diagonal()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry")
    Asp = A.to_scipy()
    scaled = scipy.sparse.diags(omega / d) @ Asp
    return CsrMatrix._adopt(P_hat.to_scipy() - scaled @ P_hat.to_scipy())


def galerkin_rap(A, P, R):
    """Coarse operator R A P with R = P^T, symmetrized to the working precision.

    Formed as ``R @ (A^T @ P)``, all in CSR: the two products scipy
    evaluates for ``P.T @ A @ P``, so the coarse operators keep their bits.
    A^T, not A: a fine operator symmetric only to rounding (aniso2d)
    differs from its transpose in the last bit.
    """
    if A.ncols != P.nrows or R.ncols != A.nrows:
        raise ValueError("dimension mismatch in Galerkin product")
    # one expression, so A^T is freed before the outer product runs
    sp = R.to_scipy() @ (A.to_scipy().T.tocsr() @ P.to_scipy())
    sp = (sp + sp.T) * 0.5
    return CsrMatrix._adopt(sp)


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
    to shrink the problem below 95% of the fine size.  Raises ``ValueError``
    unless ``A`` is square and symmetric with a positive diagonal, the
    coarse solver is ``l1_jacobi`` or ``dense_direct`` and ``coarse_sweeps``
    is at least 1.  Only the fine level is checked: the coarser ones are its
    Galerkin products.  Every operator the V-cycle reads is built here: each
    level's restriction ``R = P^T`` and, for ``dense_direct``, the Cholesky
    factor of the coarsest level, which must have at most ``MAX_DENSE_N`` rows
    and be positive definite (``ValueError`` otherwise).
    """
    if coarse_solver not in ("l1_jacobi", "dense_direct"):
        raise ValueError(f"unknown coarse solver {coarse_solver!r}")
    if coarse_sweeps < 1:
        raise ValueError("coarse_sweeps must be >= 1")
    M = l1_jacobi_diag(A)  # rejects a matrix not square or without a positive diagonal
    if not A.is_symmetric():
        raise ValueError("A must be symmetric")
    coarsening = coarsening or CoarseningConfig()
    smoother = smoother or PolySmootherConfig(family="opt_cheb1", degree=4)
    levels = [Level(A=A, M=M, smoother=smoother)]
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
            lam = estimate_lambda_max(Al)
            P = smooth_prolongator(Al, P_hat, 4.0 / (3.0 * lam))
        else:
            P = P_hat
        if P.ncols >= 0.95 * Al.nrows:
            stagnated += 1
        else:
            stagnated = 0
        if P.ncols >= Al.nrows:
            break
        R = P.transpose()
        levels[-1].P, levels[-1].R = P, R
        Ac = galerkin_rap(Al, P, R)
        levels.append(Level(A=Ac, M=l1_jacobi_diag(Ac), smoother=smoother))
    coarse_smoother = coarse_factor = None
    if coarse_solver == "l1_jacobi":
        coarse_smoother = PolySmootherConfig(family="l1_jacobi", degree=coarse_sweeps)
    else:
        Ac = levels[-1].A
        if Ac.nrows > MAX_DENSE_N:
            raise ValueError(
                f"dense_direct coarsest level has {Ac.nrows} rows, more than {MAX_DENSE_N}"
            )
        from scipy.linalg import cho_factor  # only dense_direct loads scipy.linalg

        try:
            coarse_factor = cho_factor(Ac.to_dense(), lower=True)
        except np.linalg.LinAlgError as exc:  # non-positive pivot
            raise ValueError("dense_direct coarsest level is not positive definite") from exc
    return AmgHierarchy(
        levels=tuple(levels),
        coarse_smoother=coarse_smoother,
        coarse_factor=coarse_factor,
        stagnated=stagnated >= 2,
    )


# -- V-cycle ----------------------------------------------------------------


def vcycle_apply(h, r, _level=0):
    """One symmetric V-cycle applied to a residual; returns the correction.

    Every smoothing (pre, post and the l1-Jacobi coarse solve) is one
    ``smoother_apply`` call.  The pre-smoother starts from a zero guess, so
    a level with a degree-k smoother costs 2k SpMVs on its operator: k - 1
    pre-smoothing, one residual and k post-smoothing.
    """
    level = h.levels[_level]
    if len(r) != level.A.nrows:
        raise ValueError("dimension mismatch")
    if _level == len(h.levels) - 1:
        if h.coarse_factor is not None:
            from scipy.linalg import cho_solve

            return cho_solve(h.coarse_factor, r)
        return smoother_apply(h.coarse_smoother, level.A, level.M, r)
    x = smoother_apply(level.smoother, level.A, level.M, r)
    rc = spmv(level.R, r - spmv(level.A, x))
    x += spmv(level.P, vcycle_apply(h, rc, _level + 1))
    return smoother_apply(level.smoother, level.A, level.M, r, x)


def as_vcycle_preconditioner(h):
    return lambda r: vcycle_apply(h, r)


# -- dense two-level oracle -------------------------------------------------


def two_level_constants(A, P, M, smoother):
    """Dense evaluation of the two-level bound quantities.

    Returns (C, gamma, bound, actual_E_norm_sq):
      C      largest generalized eigenvalue of (T A T, B) with
             T = A^-1 - P Ac^-1 P^T and B the l1-Jacobi diagonal,
      gamma  the smoother's ``smoothing_constant``,
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
    bs = np.sqrt(M)
    S = (T @ Ad @ T) * np.outer(bs, bs)
    S = (S + S.T) * 0.5
    C = float(np.max(dense_sym_eig(S)[0]))

    gamma = smoothing_constant(smoother)
    bound = C / (C + 1.0 / gamma)

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
