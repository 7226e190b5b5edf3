import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import amgpoly
from amgpoly.problems import poisson3d
from amgpoly.sparse import (
    CsrMatrix,
    dense_sym_eig,
    fused_update,
    read_matrix_market,
    spmv,
    write_matrix_market,
)

from conftest import random_spd, tridiag


def jacobi_sym_eig(S, max_sweeps=100, tol=1e-12):
    """Cyclic Jacobi rotations: an eigensolver independent of LAPACK.

    For small oracle matrices only (cost grows as n^3 per sweep with a
    Python-level rotation loop).
    """
    A = np.array(S, dtype=np.float64)
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


class TestCsrMatrix:
    def test_identity_roundtrip(self):
        eye = CsrMatrix.identity(3)
        assert np.array_equal(eye.to_dense(), np.eye(3))

    def test_invalid_row_ptr_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("row_ptr, match", [
        ([1, 1, 2, 2], "endpoints"),
        ([0, 1, 1, 1], "endpoints"),  # scipy alone would drop the last entry
        ([0, 2, 1, 2], "nondecreasing"),
    ])
    def test_inconsistent_row_ptr_rejected(self, row_ptr, match):
        with pytest.raises(ValueError, match=match):
            CsrMatrix(3, 3, np.array(row_ptr), np.array([0, 1]), np.ones(2))

    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_out_of_range_rejected(self, col):
        with pytest.raises(ValueError, match="ncols"):
            CsrMatrix(2, 3, np.array([0, 1, 2]), np.array([0, col]), np.ones(2))

    @pytest.mark.parametrize("cols", [[2, 1], [1, 1]])
    def test_unsorted_or_repeated_columns_rejected(self, cols):
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(2, 3, np.array([0, 1, 3]), np.array([0] + cols), np.ones(3))

    def test_columns_restart_at_each_row(self):
        A = CsrMatrix(3, 3, np.array([0, 2, 2, 4]), np.array([1, 2, 0, 2]), np.ones(4))
        assert A.nnz == 4

    def test_arrays_are_the_scipy_matrix(self):
        A = tridiag(5)
        sp = A.to_scipy()
        assert A.to_scipy() is sp
        assert np.shares_memory(A.row_ptr, sp.indptr)
        assert np.shares_memory(A.col_idx, sp.indices)
        assert np.shares_memory(A.values, sp.data)

    def test_from_scipy_does_not_alias_its_input(self):
        m = scipy.sparse.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        A = CsrMatrix.from_scipy(m)
        m.data[:] = 7.0
        m.indices[:] = 0
        assert np.array_equal(A.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_adopt_canonicalizes_in_place(self):
        # row 0 has unsorted columns, a duplicate and an explicit zero
        m = scipy.sparse.csr_matrix(
            (np.array([1.0, 2.0, 0.0, 4.0, 3.0]), np.array([2, 0, 1, 2, 0]),
             np.array([0, 4, 5])), shape=(2, 3))
        A = CsrMatrix._adopt(m)
        assert np.array_equal(A.to_dense(), [[2.0, 0.0, 5.0], [3.0, 0.0, 0.0]])
        assert np.array_equal(A.col_idx, [0, 2, 0])
        assert np.shares_memory(A.values, m.data)

    def test_adopt_keeps_the_structural_checks(self):
        m = scipy.sparse.csr_matrix(np.eye(2))
        m.indices[1] = 5  # out of range, left as it is by canonicalization
        with pytest.raises(ValueError, match="ncols"):
            CsrMatrix._adopt(m)

    def test_adopt_rejects_other_formats(self):
        # a CSC matrix's arrays read as CSR are its transpose's
        m = scipy.sparse.csc_matrix(np.array([[2.0, -1.0], [0.0, 3.0]]))
        with pytest.raises(TypeError, match="CSR"):
            CsrMatrix._adopt(m)

    def test_transpose_does_not_alias(self):
        A = CsrMatrix.from_dense([[2.0, -1.0], [0.0, 3.0]])
        At = A.transpose()
        assert np.array_equal(At.to_dense(), [[2.0, 0.0], [-1.0, 3.0]])
        for a, b in ((At.row_ptr, A.row_ptr), (At.col_idx, A.col_idx), (At.values, A.values)):
            assert not np.shares_memory(a, b)

    def test_transpose_symmetry_check(self):
        A = tridiag(5)
        assert A.is_symmetric()
        B = CsrMatrix.from_dense([[2.0, -1.0], [0.0, 2.0]])
        assert not B.is_symmetric()


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(CsrMatrix.identity(3), x), x)

    def test_laplacian_constant_vector(self):
        y = spmv(tridiag(3), np.ones(3))
        assert np.array_equal(y, [1.0, 0.0, 1.0])

    def test_poisson3d_column_against_dense(self):
        A, _ = poisson3d(2)
        e1 = np.zeros(8)
        e1[1] = 1.0
        assert np.array_equal(spmv(A, e1), A.to_dense()[:, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(CsrMatrix.identity(3), np.ones(4))

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        A = CsrMatrix.from_dense(rng.standard_normal((n, n)))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = spmv(A, a * x + b * y)
        rhs = a * spmv(A, x) + b * spmv(A, y)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13 * np.abs(rhs).max())


class TestFusedUpdate:
    def test_zero_coefficients(self):
        s, r = np.array([1.0]), np.array([3.0])
        d, x = np.array([2.0]), np.array([5.0])
        fused_update(0.0, 0.0, 0.0, s, r, d, x)
        assert r[0] == 2.0 and d[0] == 0.0 and x[0] == 5.0

    def test_hand_evaluated_scalar(self):
        s, r = np.array([1.0]), np.array([3.0])
        d, x = np.array([2.0]), np.array([5.0])
        fused_update(0.5, 0.4, 2.0, s, r, d, x)
        assert r[0] == 2.0
        assert d[0] == pytest.approx(4.4, abs=1e-15)
        assert x[0] == pytest.approx(9.4, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fused_update(1.0, 1.0, 1.0, np.ones(2), np.ones(3), np.ones(3), np.ones(3))

    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equals_unfused(self, n, seed):
        rng = np.random.default_rng(seed)
        s, r, d, x = (rng.standard_normal(n) for _ in range(4))
        rho, rho_prev, c = rng.standard_normal(3)
        r2, d2, x2 = r.copy(), d.copy(), x.copy()
        fused_update(rho, rho_prev, c, s, r, d, x)
        r2 -= s
        d2 = rho * rho_prev * d2 + c * r2
        x2 += d2
        assert np.array_equal(r, r2)
        assert np.array_equal(d, d2)
        assert np.array_equal(x, x2)


class TestDenseEig:
    def test_diagonal(self):
        w, _ = dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [1.0, 2.0, 3.0])

    def test_laplacian_analytic_spectrum(self):
        n = 12
        w, _ = dense_sym_eig(tridiag(n).to_dense())
        exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        assert np.allclose(w, np.sort(exact), atol=1e-12)

    def test_reconstruction(self, rng):
        S = random_spd(20, seed=7).to_dense()
        w, V = dense_sym_eig(S)
        R = V @ np.diag(w) @ V.T
        assert np.linalg.norm(R - S) <= 1e-9 * np.linalg.norm(S)
        assert np.allclose(V.T @ V, np.eye(20), atol=1e-10)
        assert np.all(w > 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            dense_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_jacobi_cross_check(self):
        S = random_spd(15, seed=3).to_dense()
        w_ref, _ = dense_sym_eig(S)
        w_jac, V = jacobi_sym_eig(S)
        assert np.allclose(w_jac, w_ref, rtol=1e-10, atol=1e-10)
        assert np.linalg.norm(S @ V - V * w_jac) <= 1e-9 * np.linalg.norm(S)


class TestGalerkinSymmetry:
    def test_rap_symmetric(self, rng):
        A = random_spd(12, seed=11).to_dense()
        P = rng.standard_normal((12, 5))
        R = P.T @ A @ P
        assert np.max(np.abs(R - R.T)) <= 1e-13 * np.max(np.abs(R))


class TestMatrixMarket:
    def test_roundtrip_general(self, tmp_path):
        A = tridiag(6)
        p = tmp_path / "a.mtx"
        write_matrix_market(p, A)
        B = read_matrix_market(p)
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_symmetric_storage_expanded(self, tmp_path):
        A = tridiag(6)
        p = tmp_path / "a_sym.mtx"
        write_matrix_market(p, A, symmetric=True)
        B = read_matrix_market(p)
        assert B.nnz == A.nnz
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_import_leaves_scipy_io_unloaded(self):
        assert not loaded_by_import_amgpoly("scipy.io")

    def test_import_leaves_scipy_linalg_unloaded(self):
        # only coarse_solver=dense_direct needs it, and imports it itself
        assert not loaded_by_import_amgpoly("scipy.linalg")


def loaded_by_import_amgpoly(module):
    """Whether ``import amgpoly`` in a fresh interpreter loads ``module``."""
    src = os.path.dirname(os.path.dirname(amgpoly.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, amgpoly; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"
