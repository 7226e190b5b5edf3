import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import strategies as st

from amgpoly import amg
from amgpoly.sparse import CsrMatrix


def csr(a):
    """Checked ``CsrMatrix`` copy of a dense array or a scipy sparse matrix,
    canonicalized first (duplicates summed, zeros dropped, columns sorted);
    ``a`` is left as it was."""
    m = CsrMatrix._adopt(scipy.sparse.csr_matrix(a, copy=True)).to_scipy()
    return CsrMatrix(*m.shape, m.indptr, m.indices, m.data)


def to_dense(A):
    """Dense copy of a ``CsrMatrix``."""
    return A.to_scipy().toarray()


def tridiag(n, lo=-1.0, di=2.0, up=-1.0):
    return csr(scipy.sparse.diags([lo, di, up], [-1, 0, 1], shape=(n, n)))


def poisson2d_5pt(m):
    """5-point Laplacian on an m x m interior grid (diagonal 4)."""
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.identity(m)
    return csr(scipy.sparse.kron(eye, T) + scipy.sparse.kron(T, eye))


def linear_interp_1d(n):
    """Linear-interpolation prolongator with coarse points at odd fine indices."""
    coarse = range(1, n, 2)
    P = np.zeros((n, len(coarse)))
    for j, i in enumerate(coarse):
        P[i, j] = 1.0
        if i - 1 >= 0:
            P[i - 1, j] += 0.5
        if i + 1 < n:
            P[i + 1, j] += 0.5
    return csr(P)


def evaluate_gamma_numeric(p, c1, grid_size=20001):
    """Grid oracle for a smoothing constant: sup_{0 < x <= 1} x p(x)^2 / (1 - p(x)^2).

    ``p`` evaluates the polynomial on an array of points, with p(0) = 1 and
    |p| < 1 on (0, 1]; ``c1`` is its slope p'(0).  The analytic x -> 0+
    limit 1/(2|c1|) is included.
    """
    grid = np.logspace(-8.0, 0.0, grid_size)
    vals = np.asarray(p(grid), dtype=np.float64)
    if np.any(np.abs(vals) >= 1.0):
        bad = grid[np.argmax(np.abs(vals) >= 1.0)]
        raise ValueError(f"|p| >= 1 inside (0, 1] at x={bad}")
    sup = float(np.max(grid * vals**2 / (1.0 - vals**2)))
    if c1 != 0.0:
        sup = max(sup, 1.0 / (2.0 * abs(c1)))
    return sup


def random_spd(n, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    S = G.T @ G + (shift + n * 0.05) * np.eye(n)
    return csr(S)


@st.composite
def integer_m_matrices(draw):
    """Symmetric M-matrices with small integer entries: many tied weights."""
    n = draw(st.integers(1, 24))
    upper = draw(
        st.lists(st.sampled_from([0, 0, 0, -1, -2, -3]), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2)
    )
    extra = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    A = np.zeros((n, n))
    A[np.triu_indices(n, 1)] = upper
    A = A + A.T
    A[np.diag_indices(n)] = -A.sum(axis=1) + extra
    return csr(A)


def build_with(A, coarsening="smoothed_aggregation", smoother=None, **settings):
    """``build_hierarchy`` with some of ``amg``'s hierarchy settings replaced
    for this one call, as in ``build_with(A, MIN_COARSE_SIZE=10)``."""
    with mock.patch.multiple(amg, **settings):
        return amg.build_hierarchy(A, coarsening, smoother)


def traced_peak(f):
    """``f()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(*arrays):
    """Bytes held by numpy arrays and by the three arrays of CsrMatrix ones."""
    total = 0
    for a in arrays:
        if isinstance(a, CsrMatrix):
            m = a.to_scipy()
            total += m.indptr.nbytes + m.indices.nbytes + m.data.nbytes
        else:
            total += a.nbytes
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
