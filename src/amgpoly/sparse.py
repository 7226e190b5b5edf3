"""Sparse CSR storage and the small dense toolbox used by the oracle paths.

The CSR kernels here are the only place the rest of the library touches
matrix storage: everything else (smoothers, AMG setup, Krylov) goes through
``spmv`` so that floating-point evaluation order is fixed and run-to-run
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse

# Global SpMV counter used by the cost-accounting tests: one degree-k
# polynomial application and k basic sweeps must report the same count.
_spmv_calls = 0


def spmv_count():
    return _spmv_calls


def reset_spmv_count():
    global _spmv_calls
    _spmv_calls = 0


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with sorted, duplicate-free columns."""

    nrows: int
    ncols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _scipy: scipy.sparse.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.row_ptr.shape != (self.nrows + 1,):
            raise ValueError("row_ptr must have length nrows+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise ValueError("row_ptr endpoints inconsistent with values")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values length mismatch")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals):
        """Assemble from triplets; duplicates are summed, zeros dropped."""
        m = scipy.sparse.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(nrows, ncols)
        ).tocsr()
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        return cls(nrows, ncols, m.indptr, m.indices, m.data)

    @classmethod
    def from_scipy(cls, m):
        m = m.tocsr().copy()
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, a):
        return cls.from_scipy(scipy.sparse.csr_matrix(np.asarray(a, dtype=np.float64)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, np.arange(n + 1), np.arange(n), np.ones(n))

    # -- views --------------------------------------------------------------

    def to_scipy(self):
        if self._scipy is None:
            self._scipy = scipy.sparse.csr_matrix(
                (self.values, self.col_idx, self.row_ptr), shape=(self.nrows, self.ncols)
            )
        return self._scipy

    def to_dense(self):
        return self.to_scipy().toarray()

    def transpose(self):
        return CsrMatrix.from_scipy(self.to_scipy().T)

    def diagonal(self):
        return self.to_scipy().diagonal()

    @property
    def nnz(self):
        return len(self.values)

    def matvec(self, x):
        return spmv(self, x)

    def is_symmetric(self, rtol=1e-13):
        if self.nrows != self.ncols:
            return False
        d = self.to_scipy() - self.to_scipy().T
        scale = max(np.max(np.abs(self.values)), 1.0) if self.nnz else 1.0
        return d.nnz == 0 or np.max(np.abs(d.data)) <= rtol * scale


def spmv(A, x):
    """y = A @ x, accumulated in stored-entry order within each row."""
    x = np.asarray(x, dtype=np.float64)
    if A.ncols != len(x):
        raise ValueError(f"dimension mismatch: A is {A.nrows}x{A.ncols}, x has {len(x)}")
    global _spmv_calls
    _spmv_calls += 1
    return A.to_scipy().dot(x)


def fused_update(rho, rho_prev, two_rho_over_delta, s, r, d, x):
    """Single-pass update  r -= s;  d = rho*rho_prev*d + c*r;  x += d.

    Mutates r, d, x in place. The arithmetic per element is identical (and
    bitwise so) to issuing the three vector operations separately.
    """
    if not (len(s) == len(r) == len(d) == len(x)):
        raise ValueError("fused_update: vector length mismatch")
    r -= s
    d *= rho * rho_prev
    d += two_rho_over_delta * r
    x += d


# -- dense oracle toolbox ---------------------------------------------------


def _check_symmetric(S):
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(np.max(np.abs(S)), 1.0)
    if np.max(np.abs(S - S.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return S


def dense_sym_eig(S):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric S.

    Backed by LAPACK; ``jacobi_sym_eig`` provides the self-contained
    cross-check used in the test suite.
    """
    S = _check_symmetric(S)
    w, v = np.linalg.eigh(S)
    return w, v


def jacobi_sym_eig(S, max_sweeps=100, tol=1e-12):
    """Cyclic Jacobi rotations; independent of the LAPACK path.

    Intended for small oracle matrices only (cost grows as n^3 per sweep with
    Python-level rotation loop).
    """
    A = _check_symmetric(S).copy()
    n = A.shape[0]
    V = np.eye(n)
    fro = np.linalg.norm(A)
    if fro == 0.0:
        return np.zeros(n), V
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(A**2) - np.sum(np.diag(A) ** 2))
        if off <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    w = np.diag(A).copy()
    order = np.argsort(w)
    return w[order], V[:, order]


def dense_cholesky_solve(S, b):
    """Solve S x = b for SPD S via Cholesky factorization."""
    S = _check_symmetric(S)
    b = np.asarray(b, dtype=np.float64)
    if len(b) != S.shape[0]:
        raise ValueError("right-hand side length mismatch")
    try:
        c, low = scipy.linalg.cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:  # non-positive pivot
        raise ValueError("matrix is not positive definite") from exc
    return scipy.linalg.cho_solve((c, low), b)


# -- Matrix Market I/O ------------------------------------------------------


def read_matrix_market(path):
    """Read a coordinate Matrix Market file; symmetric storage is expanded."""
    m = scipy.io.mmread(path)
    if not scipy.sparse.issparse(m):
        m = scipy.sparse.csr_matrix(m)
    return CsrMatrix.from_scipy(m)


def write_matrix_market(path, A, symmetric=False):
    m = A.to_scipy()
    if symmetric:
        scipy.io.mmwrite(path, scipy.sparse.tril(m), symmetry="symmetric")
    else:
        scipy.io.mmwrite(path, m, symmetry="general")
