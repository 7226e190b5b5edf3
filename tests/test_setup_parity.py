"""The array-based setup kernels against the implementations they replaced.

``sa_aggregate`` and ``matching_aggregate`` were once plain Python loops
over numpy scalars.  Those loops are kept here as oracles: the rewritten
functions must give identical aggregates and identical prolongator arrays.
Both generators were triplet assemblies summed by scipy's COO -> CSR
conversion, in the element order of the loop that ``aniso2d_q1`` once was;
those are kept too, and the direct CSR assembly must match them bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import Phase, given, settings

from amgpoly.amg import _aggregates_to_prolongator as _prolongator
from amgpoly.amg import matching_aggregate, sa_aggregate
from amgpoly.problems import _q1_element_stiffness, aniso2d_q1, poisson3d
from amgpoly.sparse import CsrMatrix

from conftest import integer_m_matrices

THETAS = (0.0, 0.01, 0.25, 0.5)
SWEEPS = (1, 2, 3)


# -- oracles: the loop implementations --------------------------------------


def sa_aggregate_loop(A, theta=0.01):
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
            continue
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
            agg[i] = n_agg
            n_agg += 1
    return _prolongator(n, agg, n_agg)


def matching_aggregate_loop(A, sweeps=3):
    n0 = A.nrows
    agg = np.arange(n0, dtype=np.int64)
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
        Pc = _prolongator(n, new_idx, nc)
        cur = Pc.to_scipy().T @ cur @ Pc.to_scipy()
        if nc == n:
            break
    return _prolongator(n0, agg, int(agg.max()) + 1)


def aniso2d_q1_triplets(m, epsilon, angle):
    """Element-major triplets, duplicates summed by scipy's COO -> CSR."""
    h = 2.0 / m
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    K = R @ np.diag([1.0, epsilon]) @ R.T
    ke = _q1_element_stiffness(K, h)
    nx = m + 1
    n_all = nx * nx
    n_el = m * m
    # element (ei, ej) with ei fastest, then local (a, b) pairs with b fastest
    e = np.arange(n_el, dtype=np.int64)
    ei, ej = e % m, e // m
    loc = (ej * nx + ei)[:, None] + np.array([0, 1, nx, nx + 1], dtype=np.int64)
    rows = np.repeat(loc, 4, axis=1).ravel()
    cols = np.tile(loc, (1, 4)).ravel()
    vals = np.tile(ke.ravel(), n_el)
    xc = -1.0 + (ei + 0.5) * h
    yc = -1.0 + (ej + 0.5) * h
    fe = np.array([math.exp(t) for t in (-100.0 * (xc * xc + yc * yc)).tolist()]) * h * h / 4.0
    load = np.zeros(n_all)
    np.add.at(load, loc.ravel(), np.repeat(fe, 4))
    A_full = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n_all, n_all)).tocsr()
    keep = np.arange(nx, n_all)  # drop the y=-1 row
    return CsrMatrix._adopt(A_full[np.ix_(keep, keep)]), load[keep]


def poisson3d_coo(m):
    """Diagonal, then the -1 and +1 neighbor along x, y, z, summed by COO -> CSR."""
    n = m**3
    idx = np.arange(n)
    ix = idx % m
    iy = (idx // m) % m
    iz = idx // (m * m)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 6.0)]
    for comp, stride in ((ix, 1), (iy, m), (iz, m * m)):
        for mask, step in ((comp > 0, -stride), (comp < m - 1, stride)):
            rows.append(idx[mask])
            cols.append(idx[mask] + step)
            vals.append(np.full(mask.sum(), -1.0))
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return CsrMatrix._adopt(A), np.ones(n)


# -- parity -----------------------------------------------------------------


def assert_same_csr(P, Q):
    assert (P.nrows, P.ncols) == (Q.nrows, Q.ncols)
    for a, b in ((P.row_ptr, Q.row_ptr), (P.col_idx, Q.col_idx), (P.values, Q.values)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


MATRICES = {
    "poisson3d-m8": lambda: poisson3d(8)[0],
    "poisson3d-m16": lambda: poisson3d(16)[0],
    "aniso2d-m32": lambda: aniso2d_q1(32, 100.0, math.pi / 6)[0],
    "aniso2d-m64": lambda: aniso2d_q1(64, 100.0, math.pi / 6)[0],
}


@pytest.fixture(scope="module", params=sorted(MATRICES))
def matrix(request):
    return MATRICES[request.param]()


def test_sa_matches_loop(matrix):
    for theta in THETAS:
        assert_same_csr(sa_aggregate(matrix, theta), sa_aggregate_loop(matrix, theta))


def test_matching_matches_loop(matrix):
    for sweeps in SWEEPS:
        assert_same_csr(matching_aggregate(matrix, sweeps), matching_aggregate_loop(matrix, sweeps))


# no shrink phase: a wrong aggregation fails on the example that found it,
# instead of shrinking through thousands of slow loop-oracle calls
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(integer_m_matrices())
def test_ties_break_like_the_loops(A):
    for theta in THETAS:
        assert_same_csr(sa_aggregate(A, theta), sa_aggregate_loop(A, theta))
    for sweeps in SWEEPS:
        assert_same_csr(matching_aggregate(A, sweeps), matching_aggregate_loop(A, sweeps))


def test_matching_matches_loop_over_tied_blocks():
    # 13,824 rows: every sweep walks several blocks of edges, the first of
    # them all tied at one weight
    A = poisson3d(24)[0]
    for sweeps in SWEEPS:
        assert_same_csr(matching_aggregate(A, sweeps), matching_aggregate_loop(A, sweeps))


def mixed_sign_integer_matrix(n, seed):
    """Symmetric sparse integer matrix with empty rows and some w <= 0.

    Off-diagonals are -3..-1 and 1..3; the diagonal covers only the negative
    ones, plus 1..3, so a positive coupling can reach (a_ii + a_jj)/2 and
    every Galerkin diagonal stays positive.  About one row in twenty is
    emptied, diagonal included.
    """
    rng = np.random.default_rng(seed)
    nnz = 3 * n
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    vals = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], nnz)
    off = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    off.sum_duplicates()
    off = scipy.sparse.triu(off, k=1)
    off = (off + off.T).tocsr()
    neg = -off.minimum(0.0)
    diag = np.asarray(neg.sum(axis=1)).ravel() + rng.integers(1, 4, n)
    A = (off + scipy.sparse.diags(diag)).tolil()
    empty = rng.choice(n, n // 20, replace=False)
    A[empty, :] = 0.0
    A[:, empty] = 0.0
    return CsrMatrix.from_scipy(A.tocsr())


@pytest.mark.parametrize("seed", [0, 1])
def test_matching_matches_loop_on_mixed_signs(seed):
    A = mixed_sign_integer_matrix(2400, seed)
    sp = A.to_scipy()
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
    d = sp.diagonal()
    w = 1.0 - 2.0 * A.values / (d[rows] + d[A.col_idx])
    upper = A.col_idx > rows
    assert np.any(w[upper] <= 0.0) and np.any(w[upper] > 0.0)
    assert np.any(np.diff(A.row_ptr) == 0)
    for sweeps in SWEEPS:
        assert_same_csr(matching_aggregate(A, sweeps), matching_aggregate_loop(A, sweeps))


def test_matching_bench_aggregates_pinned():
    # sha256 of the aggregates the lexsort implementation gave on the bench's
    # poisson3d m=48 fine level; no floating-point reduction, so no host
    # dependence
    P = matching_aggregate(poisson3d(48)[0], 3)
    digest = hashlib.sha256()
    for a in (P.row_ptr.astype(np.int64), P.col_idx.astype(np.int64), P.values):
        digest.update(a.tobytes())
    assert (P.nrows, P.ncols) == (110592, 13824)
    assert digest.hexdigest() == (
        "b93080c5246f279dc02d92a8a372efdf7ba1dd5006cacc9848879f81c34db82e"
    )


GENERATOR_MS = (2, 3, 4, 5, 7, 16, 32, 33)
# epsilon = -1 is not a diffusion problem; its stencils sum to exact zeros
# in some entries, which both assemblies must drop
ANISO_PARAMS = [
    (100.0, math.pi / 6), (1.0, 0.0), (1e-3, 1.0), (1e-3, 0.3), (100.0, math.pi / 2),
    (2.0, 0.0), (-1.0, math.pi / 4), (-1.0, 1.0),
]


@pytest.mark.parametrize("m", GENERATOR_MS)
@pytest.mark.parametrize("epsilon,angle", ANISO_PARAMS)
def test_aniso2d_bitwise_equal_to_triplet_assembly(m, epsilon, angle):
    A, b = aniso2d_q1(m, epsilon, angle)
    A_ref, b_ref = aniso2d_q1_triplets(m, epsilon, angle)
    assert_same_csr(A, A_ref)
    assert b.tobytes() == b_ref.tobytes()


@pytest.mark.parametrize("m", GENERATOR_MS)
def test_poisson3d_bitwise_equal_to_coo_assembly(m):
    A, b = poisson3d(m)
    A_ref, b_ref = poisson3d_coo(m)
    assert_same_csr(A, A_ref)
    assert b.tobytes() == b_ref.tobytes()
