"""Sparse CSR storage, counted SpMV, a dense eigensolver and Matrix Market I/O.

``CsrMatrix`` is one scipy CSR matrix with checked structure: sorted,
duplicate-free columns.  Every operator application of the solve phase
(smoothers, V-cycle, Krylov) goes through ``spmv``, which counts it.  The
setup kernels (``amg``, ``smoothers.l1_jacobi_diag``) read the scipy matrix
through ``to_scipy``.  A matrix they build and nothing else holds (a
Galerkin product, a smoothed prolongator, a transpose) is canonicalized in
place and wrapped by ``CsrMatrix._adopt``; the public ``from_scipy`` copies
its argument first.  The generators in ``problems`` write canonical CSR
arrays and pass them to the checked constructor.  Every kernel reads
the same arrays in scipy's fixed evaluation order, so results are
run-to-run deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

# Largest dense n x n array the library assembles: the synthetic spectral
# operator (``solve problem=spectral``, spectrum-grid sizes) and the
# ``dense_direct`` coarsest level.
MAX_DENSE_N = 1024

# Global SpMV counter used by the cost-accounting tests: one degree-k
# polynomial application and k basic sweeps must report the same count.
_spmv_calls = 0


def spmv_count():
    return _spmv_calls


def reset_spmv_count():
    global _spmv_calls
    _spmv_calls = 0


class CsrMatrix:
    """Compressed sparse row matrix with sorted, duplicate-free columns.

    A checked wrapper around one ``scipy.sparse.csr_matrix``, built in the
    constructor once the arrays pass the structural checks.  ``row_ptr``,
    ``col_idx`` and ``values`` are its ``indptr``, ``indices`` and ``data``
    (scipy picks the index dtype), and ``to_scipy()`` returns it; there is
    no second copy of any array.
    """

    def __init__(self, nrows, ncols, row_ptr, col_idx, values):
        row_ptr, col_idx = np.asarray(row_ptr), np.asarray(col_idx)
        if np.iscomplexobj(values):
            raise ValueError("complex values are not supported")
        values = np.asarray(values, dtype=np.float64)
        nnz = len(values)
        if row_ptr.shape != (nrows + 1,):
            raise ValueError("row_ptr must have length nrows+1")
        if row_ptr[0] != 0 or row_ptr[-1] != nnz:
            raise ValueError("row_ptr endpoints inconsistent with values")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(col_idx) != nnz:
            raise ValueError("col_idx and values length mismatch")
        if nnz:
            if col_idx.min() < 0 or col_idx.max() >= ncols:
                raise ValueError("col_idx must lie in [0, ncols)")
            increasing = np.diff(col_idx) > 0
            # the step into the first entry of a row may go down
            starts = row_ptr[1:-1]
            increasing[starts[(starts > 0) & (starts < nnz)] - 1] = True
            if not increasing.all():
                raise ValueError("col_idx must be strictly increasing within each row")
        self._m = scipy.sparse.csr_matrix((values, col_idx, row_ptr), shape=(nrows, ncols))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_scipy(cls, m):
        """Canonical copy of any scipy sparse matrix; ``m`` is left as it was."""
        return cls._adopt(m.tocsr(copy=True))

    @classmethod
    def _adopt(cls, m):
        """Wrap a scipy CSR matrix that nothing else holds, with no copy.

        ``m`` is canonicalized in place (duplicates summed, zeros dropped,
        columns sorted) and then passes the constructor's checks.  Any other
        format raises ``TypeError``: its arrays would be read as another
        matrix's CSR arrays (a CSC matrix's as its transpose's).
        """
        if getattr(m, "format", None) != "csr":
            raise TypeError(f"_adopt takes a scipy CSR matrix, not {type(m).__name__}")
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, a):
        return cls._adopt(scipy.sparse.csr_matrix(np.asarray(a, dtype=np.float64)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, np.arange(n + 1), np.arange(n), np.ones(n))

    # -- views --------------------------------------------------------------

    @property
    def nrows(self):
        return self._m.shape[0]

    @property
    def ncols(self):
        return self._m.shape[1]

    @property
    def row_ptr(self):
        return self._m.indptr

    @property
    def col_idx(self):
        return self._m.indices

    @property
    def values(self):
        return self._m.data

    @property
    def nnz(self):
        return len(self._m.data)

    def to_scipy(self):
        return self._m

    def to_dense(self):
        return self.to_scipy().toarray()

    def transpose(self):
        return CsrMatrix._adopt(self.to_scipy().T.tocsr())

    def diagonal(self):
        return self.to_scipy().diagonal()

    def matvec(self, x):
        return spmv(self, x)

    def is_symmetric(self):
        """Square, with |a_ij - a_ji| <= 1e-13 max(max |a_ij|, 1) everywhere."""
        if self.nrows != self.ncols:
            return False
        d = self.to_scipy() - self.to_scipy().T
        scale = max(np.max(np.abs(self.values)), 1.0) if self.nnz else 1.0
        return d.nnz == 0 or np.max(np.abs(d.data)) <= 1e-13 * scale


def spmv(A, x):
    """y = A @ x, accumulated in stored-entry order within each row."""
    x = np.asarray(x, dtype=np.float64)
    if A.ncols != len(x):
        raise ValueError(f"dimension mismatch: A is {A.nrows}x{A.ncols}, x has {len(x)}")
    global _spmv_calls
    _spmv_calls += 1
    return A.to_scipy().dot(x)


def fused_update(rho, rho_prev, two_rho_over_delta, s, r, d, x):
    """The update  r -= s;  d = rho*rho_prev*d + c*r;  x += d,  in place.

    Not fused: it runs four numpy statements (r -= s, d *= rho*rho_prev,
    d += c*r, x += d), five passes over the vectors counting the temporary
    c*r, each element's arithmetic bitwise that of the three vector
    expressions above.  No solver calls it; its only caller is the
    determinism check ``test_12_kernel_determinism`` in
    ``tests/test_acceptance.py``.
    """
    if not (len(s) == len(r) == len(d) == len(x)):
        raise ValueError("fused_update: vector length mismatch")
    r -= s
    d *= rho * rho_prev
    d += two_rho_over_delta * r
    x += d


# -- dense symmetric eigensolve ---------------------------------------------


def _check_symmetric(S):
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(np.max(np.abs(S)), 1.0)
    if np.max(np.abs(S - S.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return S


def dense_sym_eig(S):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric S (LAPACK)."""
    w, v = np.linalg.eigh(_check_symmetric(S))
    return w, v


# -- Matrix Market I/O ------------------------------------------------------
# scipy.io is imported on first use, so ``import amgpoly`` does not load it.


def read_matrix_market(path):
    """Read a coordinate Matrix Market file; symmetric storage is expanded."""
    import scipy.io

    m = scipy.io.mmread(path)
    if not scipy.sparse.issparse(m):
        m = scipy.sparse.csr_matrix(m)
    return CsrMatrix.from_scipy(m)


def write_matrix_market(path, A, symmetric=False):
    import scipy.io

    m = A.to_scipy()
    if symmetric:
        scipy.io.mmwrite(path, scipy.sparse.tril(m), symmetry="symmetric")
    else:
        scipy.io.mmwrite(path, m, symmetry="general")
