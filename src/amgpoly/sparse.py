"""Sparse CSR storage and counted SpMV.

``CsrMatrix`` is one scipy CSR matrix with sorted, duplicate-free columns,
checked once, where it enters: the generators in ``problems`` and
``identity`` go through the constructor, which runs scipy's own
validators.  A matrix the library builds from checked ones is wrapped
unchecked by ``_wrap``: a tentative prolongator, a float32 twin, a
restriction P^T (scipy's transpose of a canonical, zero-free P is one too),
the coarse sweeps' S (scipy's dense -> CSR conversion stores only the
nonzeros, in column order) and a setup product once ``_adopt`` has
canonicalized it in place.
Its values are float64; only ``float32_twin`` makes a float32 copy
(``amg.as_vcycle_preconditioner`` is its caller), storing 0.0 for entries
below float32's resolution in their row, and ``spmv`` runs in the matrix's
precision.  A banded float32 twin also keeps its values by diagonals, the
form ``spmv`` multiplies it in (``float32_twin`` says when and why the bits
stay the same); the flush and the DIA form are each one whole-array pass
over the twin's entries.  Every operator application of the solve phase
(smoothers, V-cycle, Krylov) goes through ``spmv``, which counts it; the
setup kernels read the scipy matrix through ``to_scipy``.  Every kernel
reads the same arrays in scipy's fixed evaluation order, so results are
run-to-run deterministic.
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

    A wrapper around one ``scipy.sparse.csr_matrix``, which ``to_scipy()``
    returns; its readers use scipy's names for the arrays (``indptr``,
    ``indices``, ``data``; scipy picks the index dtype).  The constructor
    converts real values of any dtype to float64 and raises ``ValueError``
    unless ``row_ptr`` ends at their number and scipy's
    ``check_format(full_check=True)`` and ``has_canonical_format`` pass.
    ``matvec`` is the operator protocol it shares with
    ``problems.SpectralOperator``.  The one second copy of values is the DIA
    (diagonal) form that ``float32_twin`` builds when the twin is square and
    its diagonals hold at most 2 nnz entries, so that DIA stores no more
    bytes than CSR.  Only ``spmv`` reads it, and its products have the CSR
    product's bits in about half the time.
    """

    def __init__(self, nrows, ncols, row_ptr, col_idx, values):
        if np.iscomplexobj(values):
            raise ValueError("complex values are not supported")
        values = np.asarray(values, dtype=np.float64)
        m = scipy.sparse.csr_matrix((values, col_idx, row_ptr), shape=(nrows, ncols))
        if m.nnz != len(values):  # scipy drops the entries past row_ptr[-1]
            raise ValueError("row_ptr must end at the number of values")
        m.check_format(full_check=True)
        if not m.has_canonical_format:  # also where row_ptr decreases with nnz = 0
            raise ValueError("col_idx must be strictly increasing within each row"
                             " and row_ptr nondecreasing")
        self._m, self._dia = m, None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, m, dia=None):
        """Wrap CSR ``m``, built from checked matrices, and its DIA form ``dia`` unchecked."""
        self = cls.__new__(cls)
        self._m, self._dia = m, dia
        return self

    @classmethod
    def _adopt(cls, m):
        """Wrap a scipy CSR matrix that nothing else holds, with no copy.

        ``m`` is canonicalized in place and wrapped unchecked:
        ``sum_duplicates`` sorts the columns and sums duplicates, and
        ``eliminate_zeros`` drops zeros and keeps the order.  Any other
        format raises ``TypeError``: its arrays would be read as another
        matrix's CSR arrays (a CSC matrix's as its transpose's).
        """
        if getattr(m, "format", None) != "csr":
            raise TypeError(f"_adopt takes a scipy CSR matrix, not {type(m).__name__}")
        m.sum_duplicates()
        m.eliminate_zeros()
        return cls._wrap(m)

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
    def nnz(self):
        return len(self._m.data)

    def to_scipy(self):
        return self._m

    def float32_twin(self, scale=1.0):
        """This matrix with float32 values ``scale * a_ij``, each rounded once.

        The product is formed in float64 and rounded as it is stored, so a
        power-of-two ``scale`` is exact and moves values that a plain cast
        would overflow into float32's range.  The twin shares ``indptr`` and
        ``indices`` and is wrapped unchecked, as this matrix's structure is.

        A square twin whose diagonals hold at most 2 nnz entries also gets
        a scipy DIA form, which ``spmv`` multiplies with.  At that size DIA
        stores no more bytes than CSR's float32 values and int32 indices, so
        the rule is a byte count, not a tuned threshold: it picks stencil
        operators, the Galerkin levels just above them and a dense coarsest
        level, and never a prolongator or restriction, which is not square,
        nor an aggregated level with scattered diagonals.  Everything else
        stays the CSR twin's: ``to_scipy()``, the arrays, ``nnz`` and the
        SpMV count.  The DIA product has the CSR product's bits for finite
        x: scipy's ``dia_matvec`` adds row i's products from zero in
        ascending column order, as ``csr_matvec`` does, and a stored zero
        adds only a +-0, which leaves a sum started at +0 as it was.  In
        float32 it takes about half the time; float64 matrices stay CSR,
        where DIA was slower.

        Before either form is built, an entry whose float32 value is
        subnormal and below 2^-24 times the largest magnitude in its row
        is stored as 0.0 (``_flush_subresolution``).  2^-24 is float32's
        unit roundoff, so dropping such an entry changes the row by less
        than the cast may already have rounded its largest entry, and
        subnormal arithmetic is slow on x86.  The structure and ``nnz``
        stay, and a subnormal that is its row's largest entry is kept
        exactly.
        """
        a = self.to_scipy()
        values = np.multiply(a.data, scale, out=np.empty(len(a.data), np.float32))
        m = scipy.sparse.csr_matrix((values, a.indices, a.indptr), shape=a.shape)
        _flush_subresolution(m)
        return CsrMatrix._wrap(m, _dia_form(m))

    def matvec(self, x):
        return spmv(self, x)


def _flush_subresolution(m):
    """Store 0.0, in place, for each entry of float32 CSR ``m`` that is
    subnormal and below 2^-24 of its row's largest magnitude.

    2^-24 is float32's unit roundoff: such an entry is smaller than the
    rounding the cast may have made to the row's largest entry, and it
    only makes the product slower, as subnormal arithmetic is slow on
    x86.  A subnormal that is its row's largest entry is kept.  The row
    maxima are taken only when there is a subnormal.
    """
    a = np.abs(m.data)
    sub = np.flatnonzero((a < np.finfo(np.float32).tiny) & (a > 0.0))
    if len(sub):
        # in float64, where 2^-24 times a subnormal row maximum is exact
        row_max = abs(m).max(axis=1).toarray().ravel().astype(np.float64)
        rows = np.searchsorted(m.indptr, sub, side="right") - 1
        m.data[sub[a[sub] < np.ldexp(row_max[rows], -24)]] = 0.0


def _dia_form(m):
    """scipy DIA form of square CSR ``m`` if its diagonals hold <= 2 nnz entries, else None.

    Each value goes to row k, column j of the (ndiag, n) data array, k its
    diagonal's rank among the offsets (ascending, as ``dia_matvec`` must
    read them) and j its column.
    """
    n = m.shape[0]
    if m.shape[1] != n or m.nnz == 0:
        return None
    # col - row + n - 1, in [0, 2n - 2]: intp, as 2n - 2 may pass int32
    pos = np.repeat(np.arange(n - 1, -1, -1, dtype=np.intp), np.diff(m.indptr))
    pos += m.indices
    seen = np.zeros(2 * n - 1, dtype=bool)
    seen[pos] = True
    ndiag = int(np.count_nonzero(seen))
    if ndiag * n > 2 * m.nnz:
        return None
    # then k * n + col, the flat position in the (ndiag, n) data; "clip"
    # gathers into pos itself, where the default "raise" buffers a copy
    np.take(_diagonal_starts(seen, n), pos, out=pos, mode="clip")
    pos += m.indices
    data = np.zeros((ndiag, n), dtype=m.dtype)
    data.reshape(-1)[pos] = m.data
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
    m = A.to_scipy()
    y = (m if A._dia is None else A._dia).dot(np.asarray(x, dtype=m.dtype))
    global _spmv_calls
    _spmv_calls += 1
    return y

