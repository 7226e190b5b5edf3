"""Sparse CSR storage and counted SpMV.

``CsrMatrix`` is one scipy CSR matrix with checked structure: sorted,
duplicate-free columns.  Its values are float64; only ``float32_twin``
makes a float32 copy (``amg.as_vcycle_preconditioner`` is its caller), and
``spmv`` runs in the matrix's precision.  A banded float32 twin also keeps
its values by diagonals, the form ``spmv`` multiplies it in (``float32_twin``
says when and why the bits stay the same).  Every operator application of
the solve phase (smoothers, V-cycle, Krylov) goes through ``spmv``, which
counts it.  The setup kernels (``amg``, ``smoothers.l1_jacobi_diag``) read the
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
    (scipy picks the index dtype), and ``to_scipy()`` returns it.  Real
    values of any dtype are converted to float64.  The one second copy of
    values is the DIA (diagonal) form that ``float32_twin`` builds when the
    twin is square and its diagonals hold at most 2 nnz entries, so that DIA
    stores no more bytes than CSR.  Only ``spmv`` reads it, and its products
    have the CSR product's bits in about half the time.
    """

    _dia = None  # scipy DIA form of the same matrix, read only by spmv

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

        A square twin whose diagonals hold at most 2 nnz entries also gets
        a scipy DIA form, which ``spmv`` multiplies with.  At that size DIA
        stores no more bytes than CSR's float32 values and int32 indices, so
        the rule is a byte count, not a tuned threshold.  It picks stencil
        operators and the Galerkin levels just above them (7 to 33
        diagonals, 1.01 to 1.09 entries stored per nonzero on levels 0 and
        1 of poisson3d m=48 and aniso2d m=256) and a dense coarsest level
        (2n - 1 diagonals); it never picks a prolongator or restriction,
        which is not square, nor an aggregated level like aniso2d m=256's
        level 2 (645 diagonals, 9.9 per nonzero).  Everything else stays the
        CSR twin's: ``to_scipy()``, the arrays, ``nnz`` and the SpMV count.

        The DIA product has the CSR product's bits for finite x.  scipy's
        ``dia_matvec`` adds row i's products from zero in ascending column
        order, as ``csr_matvec`` does, and a stored zero adds only a +-0,
        which leaves a sum started at +0 as it was.  It is 2.1 to 2.4 times
        faster in float32 (level 0/1 of poisson3d m=48: 357/159 -> 150/76
        us; aniso2d m=256: 255/157 -> 117/73 us, 2-vCPU VM).  Float64
        matrices stay CSR: there DIA was slower on poisson3d (396 -> 465
        us).
        """
        twin = CsrMatrix.__new__(CsrMatrix)
        values = np.multiply(self.values, scale, out=np.empty(self.nnz, np.float32))
        twin._m = scipy.sparse.csr_matrix((values, self.col_idx, self.row_ptr), shape=self._m.shape)
        twin._dia = _dia_form(twin._m)
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


# Rows per block of _dia_form's passes hold about this many entries, which
# bounds its nnz-long temporaries to a few MB
_DIA_BLOCK_NNZ = 1 << 16


def _dia_form(m):
    """scipy DIA form of square CSR ``m`` if its diagonals hold <= 2 nnz entries, else None.

    Two passes over blocks of rows: the first marks the diagonals present,
    the second scatters each value to row k, column j of the (ndiag, n) data
    array, k its diagonal's rank among the offsets (ascending, as
    ``dia_matvec`` must read them) and j its column.
    """
    n = m.shape[0]
    if m.shape[1] != n or m.nnz == 0:
        return None
    ptr, col = m.indptr, m.indices
    step = max(1, _DIA_BLOCK_NNZ * n // m.nnz)
    blocks = [(r, min(r + step, n)) for r in range(0, n, step)]

    def shifted_offsets(r0, r1):
        # col - row + n - 1, in [0, 2n - 2]: intp, as 2n - 2 may pass int32
        s = np.repeat(np.arange(n - 1 - r0, n - 1 - r1, -1, dtype=np.intp), np.diff(ptr[r0:r1 + 1]))
        s += col[ptr[r0]:ptr[r1]]
        return s

    seen = np.zeros(2 * n - 1, dtype=bool)
    for r0, r1 in blocks:
        seen[shifted_offsets(r0, r1)] = True
    ndiag = int(np.count_nonzero(seen))
    if ndiag * n > 2 * m.nnz:
        return None
    starts = _diagonal_starts(seen, n)
    data = np.zeros((ndiag, n), dtype=m.dtype)
    flat = data.reshape(-1)
    for r0, r1 in blocks:
        pos = starts[shifted_offsets(r0, r1)]
        pos += col[ptr[r0]:ptr[r1]]
        flat[pos] = m.data[ptr[r0]:ptr[r1]]
    return scipy.sparse.dia_matrix((data, np.flatnonzero(seen) - (n - 1)), shape=m.shape)


def _diagonal_starts(seen, n):
    """k * n at each offset ``seen``, k the rank of its diagonal among them:
    where that diagonal starts in flat (ndiag, n) DIA data.  In intp for any
    n: ndiag * n <= 2 nnz can pass 2**31 while int32 indices still hold nnz."""
    starts = np.zeros(len(seen), dtype=np.intp)
    starts[seen] = np.arange(np.count_nonzero(seen), dtype=np.intp) * n
    return starts


def spmv(A, x):
    """y = A @ x in A's precision, accumulated in stored-entry order within each row.

    A float32 twin with a DIA form is multiplied in it (same bits, about
    half the time; see ``CsrMatrix.float32_twin``); every other matrix
    through its scipy CSR matrix.
    """
    x = np.asarray(x, dtype=A.dtype)
    if A.ncols != len(x):
        raise ValueError(f"dimension mismatch: A is {A.nrows}x{A.ncols}, x has {len(x)}")
    global _spmv_calls
    _spmv_calls += 1
    return (A.to_scipy() if A._dia is None else A._dia).dot(x)

