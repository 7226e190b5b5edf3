"""Sparse CSR storage and counted SpMV.

``CsrMatrix`` is one scipy CSR matrix with checked structure: sorted,
duplicate-free columns.  Its values are float64; only ``float32_twin``
makes a float32 copy (``amg.as_vcycle_preconditioner`` is its caller), and
``spmv`` runs in the matrix's precision.  Every operator application of the
solve phase (smoothers, V-cycle, Krylov) goes through ``spmv``, which counts
it.  The setup kernels (``amg``, ``smoothers.l1_jacobi_diag``) read the
scipy matrix through ``to_scipy``.  A matrix they build and nothing else
holds (a Galerkin product, a smoothed prolongator, a transpose) is
canonicalized in place and wrapped by ``CsrMatrix._adopt``; the public
``from_scipy`` copies its argument first.  The generators in ``problems``
write canonical CSR arrays and pass them to the checked constructor.  Every
kernel reads the same arrays in scipy's fixed evaluation order, so results
are run-to-run deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

# Global SpMV counter; callers count a span of work as the difference of two
# ``spmv_count()`` readings (one degree-k polynomial application and k basic
# sweeps must report the same count).
_spmv_calls = 0


def spmv_count():
    return _spmv_calls


class CsrMatrix:
    """Compressed sparse row matrix with sorted, duplicate-free columns.

    A checked wrapper around one ``scipy.sparse.csr_matrix``, built in the
    constructor once the arrays pass the structural checks.  ``row_ptr``,
    ``col_idx`` and ``values`` are its ``indptr``, ``indices`` and ``data``
    (scipy picks the index dtype), and ``to_scipy()`` returns it; there is
    no second copy of any array.  Real values of any dtype are converted to
    float64.
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
    def dtype(self):
        return self._m.data.dtype

    @property
    def nnz(self):
        return len(self._m.data)

    def to_scipy(self):
        return self._m

    def to_dense(self):
        return self.to_scipy().toarray()

    def float32_twin(self, scale=1.0):
        """This matrix with float32 values ``scale * a_ij``, each rounded once.

        The product is formed in float64 and rounded as it is stored, so a
        power-of-two ``scale`` is exact and moves values that a plain cast
        would overflow into float32's range.  The twin shares ``row_ptr`` and
        ``col_idx``, already checked here, and skips the O(nnz) checks.
        """
        twin = CsrMatrix.__new__(CsrMatrix)
        values = np.multiply(self.values, scale, out=np.empty(self.nnz, np.float32))
        twin._m = scipy.sparse.csr_matrix((values, self.col_idx, self.row_ptr), shape=self._m.shape)
        return twin

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
    """y = A @ x in A's precision, accumulated in stored-entry order within each row."""
    x = np.asarray(x, dtype=A.dtype)
    if A.ncols != len(x):
        raise ValueError(f"dimension mismatch: A is {A.nrows}x{A.ncols}, x has {len(x)}")
    global _spmv_calls
    _spmv_calls += 1
    return A.to_scipy().dot(x)

