"""AMG hierarchy construction and V-cycle application.

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

Setup runs in float64; ``as_vcycle_preconditioner`` is the one place that
picks float32 (its docstring states the contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .problems import MAX_DENSE_N
from .smoothers import PolySmootherConfig, l1_jacobi_diag, smoother_apply
from .sparse import CsrMatrix, spmv

# Power-iteration steps of estimate_lambda_max
POWER_STEPS = 25

# The hierarchy's settings, which build_hierarchy alone reads
MAX_LEVELS = 10
MIN_COARSE_SIZE = 200  # a level with no more rows is the coarsest
COARSE_SWEEPS = 30  # l1-Jacobi sweeps that solve the coarsest level
STRENGTH_THETA = 0.01  # sa_aggregate's strength threshold
MATCHING_SWEEPS = 3  # matching_aggregate's sweeps

# The coarsening kinds of build_hierarchy: sa_aggregate, matching_aggregate
COARSENINGS = ("smoothed_aggregation", "pairwise_matching")


@dataclass(frozen=True)
class Level:
    """One level's operators.  ``S`` is set on the coarsest level only, and
    only when ``coarse_sweep_matrix`` forms it: the coarse solve's
    l1-Jacobi sweeps as one matrix, which ``vcycle_apply`` multiplies by in
    their place."""

    A: CsrMatrix
    M: np.ndarray  # l1-Jacobi diagonal
    P: CsrMatrix | None = None  # prolongator from the next-coarser level
    R: CsrMatrix | None = None  # restriction P^T to the next-coarser level
    S: CsrMatrix | None = None  # the coarse sweeps as one matrix (coarsest level)


@dataclass(frozen=True)
class AmgHierarchy:
    """Levels fine to coarse, the one smoother of every level below the
    coarsest and the ``l1_jacobi`` sweeps that solve the coarsest (run as
    the coarsest level's ``S`` when it has one).
    ``stagnated``: coarsening stopped on a stall (``build_hierarchy``)."""

    levels: tuple
    smoother: PolySmootherConfig
    coarse_smoother: PolySmootherConfig
    stagnated: bool = False

    def operator_complexity(self):
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz

    def summary(self):
        """The shape of each level and the smoother it runs: the coarsest
        level reports ``coarse_smoother``, every other level ``smoother``."""
        smoothers = [self.smoother] * (len(self.levels) - 1) + [self.coarse_smoother]
        return {
            "levels": [
                {
                    "size": l.A.nrows,
                    "nnz": l.A.nnz,
                    "aggregates": l.P.ncols if l.P is not None else 0,
                    "smoother": s.family,
                    "degree": s.degree,
                }
                for l, s in zip(self.levels, smoothers)
            ],
            "operator_complexity": self.operator_complexity(),
            "stagnated": self.stagnated,
        }


# -- coarsening -------------------------------------------------------------


def _aggregates_to_prolongator(n, agg, n_agg):
    cols = np.asarray(agg, dtype=np.int64)
    P = scipy.sparse.csr_matrix((np.ones(n), cols, np.arange(n + 1)), shape=(n, n_agg))
    return CsrMatrix._wrap(P)


def strength_graph(A, theta):
    """Strong off-diagonal couplings of each row, in column order.

    Entry (i, j) is strong when j != i and |a_ij| >= theta sqrt(|a_ii a_jj|),
    evaluated once over the CSR arrays, with the threshold built in place in
    one nnz-long buffer.  The diagonal is scaled by 2^-e, e the binary
    exponent of max |a_ii|, before the product and the root by 2^e after
    it, so the product cannot overflow; powers of two are exact, so in
    range the bits are the plain formula's.  Returns ``(ptr, cols,
    weights)``, all numpy arrays: row i's strong columns are
    ``cols[ptr[i]:ptr[i+1]]`` and their |a_ij| the same slice of
    ``weights``.  ``ptr`` counts the strong entries before each ``indptr``
    position.
    """
    m = A.to_scipy()
    n = A.nrows
    cols = m.indices
    diag = m.diagonal()
    e = int(np.frexp(np.max(np.abs(diag)))[1])
    np.ldexp(diag, -e, out=diag)
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(m.indptr))
    bound = diag[rows]
    bound *= diag[cols]
    np.abs(bound, out=bound)
    np.sqrt(bound, out=bound)
    np.ldexp(bound, e, out=bound)
    bound *= theta
    strong = cols != rows
    del rows
    absv = np.abs(m.data)
    strong &= absv >= bound
    del bound
    before = np.zeros(len(cols) + 1, dtype=m.indptr.dtype)
    np.cumsum(strong, dtype=before.dtype, out=before[1:])
    return before[m.indptr], cols[strong], absv[strong]


def sa_aggregate(A, theta):
    """Tentative prolongator by greedy strong-neighbor aggregation.

    The strength graph (``strength_graph`` at ``theta``, which
    ``build_hierarchy`` sets to ``STRENGTH_THETA``) is built once; both
    greedy passes then walk it in natural row order.  Seeding: an
    unaggregated row with at least two unaggregated strong neighbors becomes
    a new aggregate together with those neighbors.  Leftovers: each
    remaining row joins the aggregate of its strongest aggregated strong
    neighbor, the first in column order winning ties (strict ``>``); a row
    with none becomes a singleton, which later leftover rows may join.
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


def matching_aggregate(A, sweeps):
    """Tentative prolongator by repeated greedy pairwise matching.

    Edge weight w_ij = 1 - 2 a_ij / (a_ii + a_jj), clamped below at zero, so
    strongly negatively coupled pairs merge first.  It is evaluated as
    1 - a_ij / (h_i + h_j) with h = a_ii / 2, so the sum of two diagonals
    near float64's largest value cannot overflow; halving is exact, so in
    range the bits are the plain formula's.  Edges are visited by
    decreasing weight, ties broken by the lower row and then the lower
    column; each pair is numbered by its lower index.  Each sweep halves the
    graph at most; aggregate sizes stay <= 2^sweeps (``build_hierarchy``
    runs ``MATCHING_SWEEPS``).

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
        h = 0.5 * cur.diagonal()
        w = 1.0 - a / (h[row] + h[col])
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
    ds = np.sqrt(A.to_scipy().diagonal())
    v = np.ones(A.nrows) + np.random.default_rng(0).uniform(-0.5, 0.5, A.nrows)
    for _ in range(POWER_STEPS - 1):
        w = spmv(A, v / ds) / ds
        v = w / np.linalg.norm(w)
    w = spmv(A, v / ds) / ds
    return float(v @ w) / float(v @ v)


def smooth_prolongator(A, P_hat, omega):
    """P = (I - omega D^-1 A) P_hat assembled sparsely."""
    Asp = A.to_scipy()
    scaled = scipy.sparse.diags(omega / Asp.diagonal()) @ Asp
    return CsrMatrix._adopt(P_hat.to_scipy() - scaled @ P_hat.to_scipy())


def galerkin_rap(A, P, R):
    """Coarse operator R A P with R = P^T, symmetrized to the working precision.

    Formed as ``R @ (A^T @ P)``, all in CSR: the two products scipy
    evaluates for ``P.T @ A @ P``, so the coarse operators keep their bits.
    A^T, not A: a fine operator symmetric only to rounding (aniso2d)
    differs from its transpose in the last bit.
    """
    # one expression, so A^T is freed before the outer product runs
    sp = R.to_scipy() @ (A.to_scipy().T.tocsr() @ P.to_scipy())
    sp = (sp + sp.T) * 0.5
    return CsrMatrix._adopt(sp)


def coarse_sweep_matrix(A, M, sweeps):
    """The coarse solve, ``sweeps`` l1-Jacobi sweeps from a zero guess, as
    one symmetric matrix S; None where S would cost more than the sweeps.

    The sweeps are a fixed linear map, S = sum_{j<s} (I - M^-1 A)^j M^-1
    with s = ``sweeps``.  S is formed when n <= ``MAX_DENSE_N`` and n^2 <=
    (s - 1) nnz(A): then one product with S reads no more entries than the
    s - 1 SpMVs of the sweeps, so the rule is a work count, not a tuned
    threshold.  ``smoother_apply``'s recurrence runs on the identity in
    float64, all n columns at once through scipy's sparse-times-dense
    product (so setup counts no SpMV), and S is symmetrized, as the map is.
    Nothing is factorized, so ``scipy.linalg`` stays unloaded.
    """
    n = A.nrows
    if n > MAX_DENSE_N or n * n > (sweeps - 1) * A.nnz:
        return None
    Asp = A.to_scipy()
    r = np.eye(n)
    x = np.zeros((n, n))
    for j in range(sweeps):
        d = r / M[:, None]
        x += d
        if j < sweeps - 1:
            r -= Asp @ d
    # dense -> CSR stores only the nonzeros, in column order: canonical as it stands
    return CsrMatrix._wrap(scipy.sparse.csr_matrix((x + x.T) * 0.5))


def build_hierarchy(A, coarsening="smoothed_aggregation", smoother=None):
    """Build levels until one has at most ``MIN_COARSE_SIZE`` rows or there
    are ``MAX_LEVELS``.

    ``coarsening`` is one of ``COARSENINGS``: ``sa_aggregate`` at
    ``STRENGTH_THETA`` or ``matching_aggregate`` at ``MATCHING_SWEEPS``.
    Stops early, with ``stagnated`` set, when a coarsening does not
    shrink the problem at all (it is dropped before its prolongator is
    smoothed) or when two successive ones each keep at least 95% of their
    fine size (both are kept).
    Raises ``ValueError`` for an unknown ``coarsening`` and unless ``A`` has
    rows and is square and symmetric with finite entries, finite l1 row sums
    and a positive diagonal.  Symmetric means |a_ij - a_ji| <= 1e-13
    max |a_ij|, relative to A's own scale, so the answer is the same for A
    and any multiple cA, c > 0.  Only the fine level is checked, and its
    structure only where it was built (``CsrMatrix``): every other matrix
    here is a product of checked ones and is wrapped unchecked.  Every
    operator the V-cycle reads is built here: each level's smoothed
    prolongator ``P``, its restriction ``R = P^T`` and l1-Jacobi diagonal;
    the coarsest level is solved by ``COARSE_SWEEPS`` l1-Jacobi sweeps, which
    ``coarse_sweep_matrix`` forms into the coarsest level's ``S`` when one
    product with S costs no more than the sweeps.  S is new storage: every
    other array is the same with or without it.
    """
    if coarsening not in COARSENINGS:
        raise ValueError(f"unknown coarsening kind {coarsening!r}")
    if A.nrows == 0:
        raise ValueError("A has no rows")
    m = A.to_scipy()
    bad = np.flatnonzero(~np.isfinite(m.data))
    if len(bad):
        i = int(np.searchsorted(m.indptr, bad[0], side="right")) - 1
        raise ValueError(f"A has non-finite entries ({len(bad)} of {A.nnz}), the first "
                         f"a[{i}, {m.indices[bad[0]]}] = {m.data[bad[0]]}")
    with np.errstate(over="ignore"):  # an overflowing row sum is rejected below
        M = l1_jacobi_diag(A)  # rejects a matrix not square or without a positive diagonal
    if not np.all(np.isfinite(M)):
        raise ValueError("A's l1 row sums overflow float64")
    if np.max(np.abs((m - m.T).data), initial=0.0) > 1e-13 * np.max(np.abs(m.data)):
        raise ValueError("A must be symmetric")
    smoother = smoother or PolySmootherConfig()
    levels = []  # each Level is built once its P and R are known
    Al, Ml = A, M
    stagnated = 0
    while Al.nrows > MIN_COARSE_SIZE and len(levels) + 1 < MAX_LEVELS and stagnated < 2:
        if coarsening == "smoothed_aggregation":
            P_hat = sa_aggregate(Al, STRENGTH_THETA)
        else:
            P_hat = matching_aggregate(Al, MATCHING_SWEEPS)
        # smoothing keeps P_hat's columns, so the stall rules read P_hat
        if P_hat.ncols >= Al.nrows:
            stagnated = 2  # no progress at all: drop this coarsening and stop
            break
        if P_hat.ncols >= 0.95 * Al.nrows:
            stagnated += 1
        else:
            stagnated = 0
        lam = estimate_lambda_max(Al)
        P = smooth_prolongator(Al, P_hat, 4.0 / (3.0 * lam))
        R = CsrMatrix._wrap(P.to_scipy().T.tocsr())  # canonical and zero-free, as P is
        levels.append(Level(A=Al, M=Ml, P=P, R=R))
        Al = galerkin_rap(Al, P, R)
        Ml = l1_jacobi_diag(Al)
    levels.append(Level(A=Al, M=Ml, S=coarse_sweep_matrix(Al, Ml, COARSE_SWEEPS)))
    return AmgHierarchy(
        levels=tuple(levels),
        smoother=smoother,
        coarse_smoother=PolySmootherConfig(family="l1_jacobi", degree=COARSE_SWEEPS),
        stagnated=stagnated >= 2,
    )


# -- V-cycle ----------------------------------------------------------------


def vcycle_apply(h, r, _level=0):
    """One symmetric V-cycle applied to a residual; returns the correction.

    Every smoothing (pre, post and the l1-Jacobi coarse solve) is one
    ``smoother_apply`` call, except that the coarsest level multiplies by
    its ``S`` when it has one: one SpMV in place of the ``COARSE_SWEEPS`` - 1
    of the sweeps, on a matrix of the coarsest level's shape.  The
    pre-smoother starts from a zero guess, so a level with a degree-k
    smoother costs 2k SpMVs on its operator: k - 1 pre-smoothing, one
    residual and k post-smoothing.
    """
    level = h.levels[_level]
    if _level == len(h.levels) - 1:
        if level.S is not None:
            return spmv(level.S, r)
        return smoother_apply(h.coarse_smoother, level.A, level.M, r)
    x = smoother_apply(h.smoother, level.A, level.M, r)
    rc = spmv(level.R, r - spmv(level.A, x))
    x += spmv(level.P, vcycle_apply(h, rc, _level + 1))
    return smoother_apply(h.smoother, level.A, level.M, r, x)


def as_vcycle_preconditioner(h):
    """The V-cycle as the preconditioner r -> z of the float64 Krylov loop, run in float32.

    This is the only code that makes float32 operands.  Once, every level's
    A, M, P and R and the coarsest level's S is copied to float32
    (``CsrMatrix.float32_twin``, which also stores 0.0 for entries below
    float32's resolution), with A and M scaled by 2^-q, q the binary
    exponent of max |a_ij| on the finest level, and S, which inverts them,
    by 2^q.  Each application scales r by 2^-p, p the exponent of max |r_i|,
    as it casts r to float32, runs ``vcycle_apply`` on the float32 levels and
    scales the correction by 2^(p-q) as it casts it back to float64.
    ``vcycle_apply``, ``smoother_apply`` and ``spmv`` add no cast of their
    own: each runs in the dtype of the operands it is given, and everything
    else runs in float64.  The V-cycle is only the preconditioner, and the
    outer loop sets the accuracy; its time goes to memory traffic, which
    float32 halves.

    The V-cycle is linear in r, and scaling every A and M by s (and S,
    their inverse, by 1/s) scales its correction by 1/s, so the scalings
    cancel.  A power of two is exact: in float32's range the result has the
    bits of plain casts, and beyond it (|a_ij| or |r_i| over 3.4e38)
    nothing overflows.

    The returned callable holds the float32 levels and not ``h``: a caller
    that drops its last reference to ``h`` frees the float64 P, R, M, S and
    coarse A, and keeps only the fine float64 A that the Krylov loop reads.
    """
    q = int(np.frexp(np.max(np.abs(h.levels[0].A.to_scipy().data)))[1])
    scale = np.ldexp(1.0, -q)
    h32 = dataclasses.replace(h, levels=tuple(
        Level(
            A=l.A.float32_twin(scale),
            M=np.multiply(l.M, scale, out=np.empty(len(l.M), np.float32)),
            P=None if l.P is None else l.P.float32_twin(),
            R=None if l.R is None else l.R.float32_twin(),
            S=None if l.S is None else l.S.float32_twin(np.ldexp(1.0, q)),
        )
        for l in h.levels
    ))

    def apply(r):
        # krylov.solve scales b into range once, but r shrinks as PCG
        # converges; rescaling each r keeps its bits and the V-cycle's small
        # entries out of float32's subnormals, which measured slower
        p = int(np.frexp(max(r.max(), -r.min()))[1])
        r32 = np.multiply(r, np.ldexp(1.0, -p), out=np.empty(len(r), np.float32))
        return np.multiply(vcycle_apply(h32, r32), np.ldexp(1.0, p - q), dtype=np.float64)

    return apply

