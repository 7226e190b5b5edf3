import hashlib
import math

import numpy as np
import pytest

from amgpoly import problems
from amgpoly.problems import (
    MAX_DENSE_N,
    SpectralOperator,
    aniso2d_q1,
    poisson3d,
    spectral_synthetic,
)

from conftest import nbytes, to_dense, traced_peak


def digest(A, b):
    h = hashlib.sha256()
    m = A.to_scipy()
    for a in (m.indptr, m.indices, m.data, b):
        h.update(a.tobytes())
    return h.hexdigest()


class TestBenchOperatorsPinned:
    """sha256 of the bench operators and loads as the triplet assembly built them.

    Only exact sums of the same terms in the same order, so no host
    dependence; the index arrays are int32, as scipy picks them.
    """

    def test_poisson3d_m48(self):
        A, b = poisson3d(48)
        m = A.to_scipy()
        assert (A.nrows, A.nnz, m.indptr.dtype, m.indices.dtype) == (
            110592, 760320, np.int32, np.int32)
        assert digest(A, b) == "709049b2a7774800e2839b57575dba3c556d83d0766798fb5d0b5d5c0aee2b85"

    def test_aniso2d_m256(self):
        A, b = aniso2d_q1(256, 100.0, math.pi / 6)
        m = A.to_scipy()
        assert (A.nrows, A.nnz, m.indptr.dtype, m.indices.dtype) == (
            65792, 589054, np.int32, np.int32)
        assert digest(A, b) == "b8d60a9b05eb45fcbd5073cba26affc89b034681279bf2e48055904bd5f617e2"


class TestAssemblyMemory:
    """Traced peak of a generator call as a multiple of the bytes it returns.

    Both generators write their CSR arrays directly.  aniso2d m=128 reads
    2.29x: its (n, 9) stencil, keep mask and column arrays live beside the
    CSR arrays they fill; poisson3d m=32 reads 1.10x.
    """

    def test_aniso2d_m128(self):
        (A, b), peak = traced_peak(lambda: aniso2d_q1(128, 100.0, math.pi / 6))
        assert peak <= 3.0 * nbytes(A, b)

    def test_poisson3d_m32(self):
        (A, b), peak = traced_peak(lambda: poisson3d(32))
        assert peak <= 2.0 * nbytes(A, b)


class TestPoisson3d:
    def test_m2_structure(self):
        A, b = poisson3d(2)
        assert A.nrows == 8
        dense = to_dense(A)
        assert np.all(np.diag(dense) == 6.0)
        # every corner node of the 2x2x2 grid has exactly three neighbors
        for i in range(8):
            off = dense[i].copy()
            off[i] = 0.0
            assert np.sum(off == -1.0) == 3
        assert np.array_equal(b, np.ones(8))

    def test_row_sums(self):
        A, _ = poisson3d(4)
        dense = to_dense(A)
        sums = dense.sum(axis=1)
        neighbors = 6.0 - sums
        assert np.all((neighbors >= 3) & (neighbors <= 6))
        interior = 1 + 4 + 16  # node (1,1,1)
        assert sums[interior] == 0.0

    def test_nnz_formula(self):
        for m in (2, 3, 5, 8):
            A, _ = poisson3d(m)
            assert A.nnz == 7 * m**3 - 6 * m**2

    def test_spd(self):
        A = to_dense(poisson3d(4)[0])
        assert np.array_equal(A, A.T)
        assert np.min(np.linalg.eigvalsh(A)) > 0.0

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            poisson3d(1)


class TestAniso2d:
    def test_isotropic_interior_stencil(self):
        A, _ = aniso2d_q1(8, 1.0, 0.0)
        dense = to_dense(A)
        nx = 9
        # interior node (4,4) of the reduced grid (y=-1 row eliminated)
        i = (4 - 1) * nx + 4
        row = dense[i]
        assert row[i] == pytest.approx(8.0 / 3.0)
        for j in (i - 1, i + 1, i - nx, i + nx, i - nx - 1, i - nx + 1, i + nx - 1, i + nx + 1):
            assert row[j] == pytest.approx(-1.0 / 3.0)

    def test_rotation_by_pi_invariant(self):
        A0, _ = aniso2d_q1(6, 50.0, 0.0)
        A1, _ = aniso2d_q1(6, 50.0, math.pi)
        assert np.allclose(to_dense(A0), to_dense(A1), atol=1e-12)

    def test_isotropic_rotation_invariant(self):
        A0, _ = aniso2d_q1(6, 1.0, 0.0)
        A1, _ = aniso2d_q1(6, 1.0, math.pi / 4)
        assert np.allclose(to_dense(A0), to_dense(A1), atol=1e-12)

    def test_anisotropic_spd(self):
        A = to_dense(aniso2d_q1(8, 100.0, math.pi / 6)[0])
        assert np.max(np.abs(A - A.T)) <= 1e-13 * np.max(np.abs(A))  # symmetric to rounding
        assert np.min(np.linalg.eigvalsh(A)) > 0.0

    def test_load_vector_positive_near_origin(self):
        _, b = aniso2d_q1(16, 1.0, 0.0)
        assert np.all(b >= 0.0)
        assert b.max() > 0.0


class TestSpectral:
    def test_equispaced_eigenvalues(self):
        op, _ = spectral_synthetic(4, "equispaced")
        assert np.allclose(op.eigenvalues, [0.25, 0.5, 0.75, 1.0])

    def test_boundary_eigenvalues_literal(self):
        op, _ = spectral_synthetic(4, "boundary")
        assert np.allclose(op.eigenvalues, [1.0 - 1e-8, 0.9, 1e-8, 1e-1])

    def test_gapped_has_two_clusters(self):
        op, _ = spectral_synthetic(8, "gapped")
        d = op.eigenvalues
        assert np.all(d[:4] <= 0.1 + 1e-12)
        assert np.all(d[4:] >= 10.0 - 1e-9)

    def test_basis_orthogonal(self):
        op, _ = spectral_synthetic(64, "equispaced")
        Q = op.basis()
        assert np.linalg.norm(Q.T @ Q - np.eye(64)) <= 1e-10

    def test_matvec_matches_dense(self):
        op, _ = spectral_synthetic(32, "gapped")
        x = np.sin(np.arange(32.0))
        assert np.allclose(op.matvec(x), op.to_dense() @ x, atol=1e-12)

    def test_rhs_is_operator_times_ones(self):
        op, b = spectral_synthetic(16, "equispaced")
        assert np.allclose(b, op.to_dense() @ np.ones(16), atol=1e-13)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            spectral_synthetic(5, "boundary")

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_n_below_two(self, n):
        with pytest.raises(ValueError, match=">= 2"):
            spectral_synthetic(n, "equispaced")

    def test_rejects_oversize_n_before_assembly(self, monkeypatch):
        def no_build(eigenvalues):
            raise AssertionError("the dense operator must not be built")

        monkeypatch.setattr(problems, "SpectralOperator", no_build)
        assert MAX_DENSE_N == 1024
        with pytest.raises(ValueError, match="n must be <= 1024, got 1026"):
            spectral_synthetic(1026, "equispaced")

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            spectral_synthetic(8, "uniform")

    def test_spectrum_reproduced(self):
        op, _ = spectral_synthetic(24, "equispaced")
        w = np.linalg.eigvalsh(op.to_dense())
        assert np.allclose(np.sort(w), np.sort(op.eigenvalues), atol=1e-12)

    def test_large_operator_dense_matvec_matches_factored_reference(self):
        op = SpectralOperator(np.linspace(0.01, 1.0, 600))
        x = np.ones(600)
        direct = (op.basis() * op.eigenvalues) @ (op.basis().T @ x)
        assert np.allclose(op.matvec(x), direct, atol=1e-12)
