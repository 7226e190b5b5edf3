import ast
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import amgpoly
from amgpoly import sparse
from amgpoly.amg import build_hierarchy
from amgpoly.problems import aniso2d_q1, poisson3d
from amgpoly.sparse import CsrMatrix, spmv, spmv_count

from conftest import csr, nbytes, random_spd, to_dense, traced_peak, tridiag


class TestCsrMatrix:
    def test_identity_roundtrip(self):
        eye = CsrMatrix.identity(3)
        assert np.array_equal(to_dense(eye), np.eye(3))

    def test_invalid_row_ptr_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("row_ptr, match", [
        ([1, 1, 2, 2], "start with 0"),
        ([0, 1, 1, 1], "end at the number of values"),  # scipy alone would drop the last entry
        ([0, 2, 1, 2], "non-decreasing"),
    ])
    def test_inconsistent_row_ptr_rejected(self, row_ptr, match):
        with pytest.raises(ValueError, match=match):
            CsrMatrix(3, 3, np.array(row_ptr), np.array([0, 1]), np.ones(2))

    def test_decreasing_row_ptr_of_an_empty_matrix_rejected(self):
        # scipy's full check reads row_ptr only when nnz > 0
        with pytest.raises(ValueError, match="row_ptr nondecreasing"):
            CsrMatrix(2, 2, np.array([0, 1, 0]), np.array([], int), np.array([]))

    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_out_of_range_rejected(self, col):
        with pytest.raises(ValueError, match="indices must be"):
            CsrMatrix(2, 3, np.array([0, 1, 2]), np.array([0, col]), np.ones(2))

    @pytest.mark.parametrize("cols", [[2, 1], [1, 1]])
    def test_unsorted_or_repeated_columns_rejected(self, cols):
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(2, 3, np.array([0, 1, 3]), np.array([0] + cols), np.ones(3))

    def test_columns_restart_at_each_row(self):
        A = CsrMatrix(3, 3, np.array([0, 2, 2, 4]), np.array([1, 2, 0, 2]), np.ones(4))
        assert A.nnz == 4

    def test_complex_values_rejected(self):
        with pytest.raises(ValueError, match="complex"):
            CsrMatrix(2, 2, [0, 1, 2], [0, 1], [1 + 1j, 2.0])
        with pytest.raises(ValueError, match="complex"):
            csr(scipy.sparse.csr_matrix(np.array([[2.0, 1j], [-1j, 2.0]])))
        with pytest.raises(ValueError, match="complex"):  # not a real matrix with a warning
            csr(np.array([[2.0, 1j], [-1j, 2.0]]))

    def test_views_read_the_scipy_matrix(self):
        A = tridiag(5)
        sp = A.to_scipy()
        assert A.to_scipy() is sp and sp.format == "csr"
        assert (A.nrows, A.ncols, A.nnz) == (*sp.shape, len(sp.data)) == (5, 5, 13)

    @pytest.mark.parametrize("data, cols, want_cols, want", [
        # row 0 has unsorted columns, a duplicate and an explicit zero
        ([1.0, 2.0, 0.0, 4.0, 3.0], [2, 0, 1, 2, 0], [0, 2, 0],
         [[2.0, 0.0, 5.0], [3.0, 0.0, 0.0]]),
        # unsorted columns alone: sum_duplicates still sorts them
        ([1.0, 2.0, 4.0, 3.0], [2, 0, 1, 0], [0, 1, 2, 0],
         [[2.0, 4.0, 1.0], [3.0, 0.0, 0.0]]),
    ])
    def test_adopt_canonicalizes_in_place(self, data, cols, want_cols, want):
        m = scipy.sparse.csr_matrix(
            (np.array(data), np.array(cols), np.array([0, len(data) - 1, len(data)])),
            shape=(2, 3))
        A = CsrMatrix._adopt(m)
        assert np.array_equal(to_dense(A), want)
        assert A.to_scipy() is m and m.has_canonical_format
        assert np.array_equal(m.indices, want_cols)

    def test_adopt_runs_no_structural_check(self, monkeypatch):
        # a product of checked matrices is trusted: only the entry checks
        A = csr([[2.0, -1.0], [-1.0, 2.0]])

        def checked_constructor(self, *args):
            raise AssertionError("_adopt must not re-run the structural checks")

        monkeypatch.setattr(CsrMatrix, "__init__", checked_constructor)
        B = CsrMatrix._adopt(A.to_scipy() @ A.to_scipy())
        assert np.array_equal(to_dense(B), [[5.0, -4.0], [-4.0, 5.0]])
        assert B._dia is None

    def test_adopt_rejects_other_formats(self):
        # a CSC matrix's arrays read as CSR are its transpose's
        m = scipy.sparse.csc_matrix(np.array([[2.0, -1.0], [0.0, 3.0]]))
        with pytest.raises(TypeError, match="CSR"):
            CsrMatrix._adopt(m)



class TestFloat32:
    def test_constructor_converts_every_real_dtype_to_float64(self):
        # float32_twin is the only way to a float32 matrix
        ptr, cols = np.arange(3), np.arange(2)
        for values in (np.ones(2, np.float32), np.ones(2, np.float16), np.ones(2, np.int64), [1, 2]):
            assert CsrMatrix(2, 2, ptr, cols, values).to_scipy().dtype == np.float64

    def test_twin_shares_structure_and_rounds_once(self, monkeypatch):
        A, _ = poisson3d(5)
        A = csr(A.to_scipy() * (1.0 / 3.0))
        # the structure was checked when A was built: the twin skips the checks
        def checked_constructor(self, *args):
            raise AssertionError("the twin must not re-run the structural checks")

        monkeypatch.setattr(CsrMatrix, "__init__", checked_constructor)
        T = A.float32_twin()
        assert T._dia is not None  # a 7-point stencil: the DIA form is built here too
        a, t = A.to_scipy(), T.to_scipy()
        assert t.dtype == np.float32
        assert (T.nrows, T.ncols, T.nnz) == (A.nrows, A.ncols, A.nnz)
        assert np.shares_memory(t.indptr, a.indptr)
        assert np.shares_memory(t.indices, a.indices)
        assert t.data.tobytes() == a.data.astype(np.float32).tobytes()
        # a power of two is exact: the scaled twin is the plain cast, scaled
        S = A.float32_twin(2.0**-3)
        assert S.to_scipy().data.tobytes() == (a.data.astype(np.float32) * np.float32(0.125)).tobytes()

    def test_twin_scales_before_it_rounds(self):
        # 1e40 overflows float32; scaled by 2^-133 it lies in [1/2, 1)
        A = csr(np.diag([1e40, 1.0]))
        t = A.float32_twin(2.0**-133).to_scipy().data
        assert np.all(np.isfinite(t))
        assert t[0] == np.float32(1e40 * 2.0**-133)
        assert t[1] == np.float32(2.0**-133)  # subnormal, exact

    def test_spmv_runs_in_the_matrix_precision(self, rng):
        A, _ = poisson3d(4)
        A = csr(A.to_scipy() * (1.0 / 3.0))
        x = rng.standard_normal(A.nrows)
        x32 = x.astype(np.float32)
        y32 = spmv(A.float32_twin(), x32)
        assert y32.dtype == np.float32
        assert y32.tobytes() == A.to_scipy().astype(np.float32).dot(x32).tobytes()
        # a float64 matrix runs in float64: x is converted and the product is scipy's
        for v in (x, x32, x.tolist()):
            y = spmv(A, v)
            assert y.dtype == np.float64
            assert y.tobytes() == A.to_scipy().dot(np.asarray(v, dtype=np.float64)).tobytes()


def flushed_by_rule(m):
    """Loop oracle of ``float32_twin``'s flush: per row, the positions of the
    entries that are subnormal and below 2^-24 of the row's largest magnitude."""
    tiny = float(np.finfo(np.float32).tiny)
    out = []
    for i in range(m.shape[0]):
        row = [abs(float(v)) for v in m.data[m.indptr[i]:m.indptr[i + 1]]]
        for k, a in enumerate(row):
            if 0.0 < a < tiny and a < max(row) * 2.0**-24:
                out.append(m.indptr[i] + k)
    return out


class TestSubresolutionFlush:
    """``float32_twin`` stores 0.0 for entries below float32's resolution in their row."""

    def test_rule(self):
        a = np.array([
            [1.0, 2.0**-130, 0.0, -(2.0**-140)],  # both subnormals flushed
            [2.0**-127, 2.0**-140, 0.0, 0.0],  # row of subnormals: 2^-140 >= 2^-151, kept
            [2.0**-103, 0.0, 2.0**-127, 2.0**-128],  # 2^-127 at the bound kept, 2^-128 flushed
            [1e-30, 0.0, 0.0, 1e10],  # 1e-30 is tiny in its row but normal: kept
        ])
        A = csr(a)
        T = A.float32_twin()
        want = a.astype(np.float32)
        want[0, 1] = want[0, 3] = want[2, 3] = 0.0
        assert to_dense(T).tobytes() == want.tobytes()
        assert want[1, 0] == np.float32(2.0**-127) and want[2, 2] == np.float32(2.0**-127)
        # the rule reads the scaled value: scaled by 2^60 nothing is subnormal
        assert to_dense(A.float32_twin(2.0**60)).tobytes() == (a * 2.0**60).astype(np.float32).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(-60, 0))
    def test_rule_against_the_loop(self, n, seed, shift):
        # entries spread over 2^-160 .. 2^0, scaled by 2^shift
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.uniform(0.5, 1.0, (n, n)), rng.integers(-160, 1, (n, n)))
        a *= rng.choice([-1.0, 1.0], (n, n))
        a[rng.random((n, n)) < 0.3] = 0.0
        A = csr(a)
        scale = 2.0**shift
        T = A.float32_twin(scale)
        cast = A.to_scipy().astype(np.float64)
        cast.data = (cast.data * scale).astype(np.float32)
        want = cast.data.copy()
        want[flushed_by_rule(cast)] = 0.0
        assert T.to_scipy().data.tobytes() == want.tobytes()

    @pytest.fixture(scope="class")
    def galerkin_level(self):
        # level 3 of aniso2d m=64 SA, whose twin holds subnormal entries from
        # Galerkin cancellation, scaled as as_vcycle_preconditioner scales it
        h = build_hierarchy(aniso2d_q1(64, 100.0, math.pi / 6)[0])
        A = h.levels[3].A
        q = int(np.frexp(np.max(np.abs(h.levels[0].A.to_scipy().data)))[1])
        return A, 2.0**-q

    def test_structure_and_nnz_stay(self, galerkin_level):
        A, scale = galerkin_level
        T = A.float32_twin(scale)
        a, t = A.to_scipy(), T.to_scipy()
        cast = (a.data * scale).astype(np.float32)
        flushed = np.flatnonzero(t.data != cast)
        assert len(flushed) > 0
        assert np.all(t.data[flushed] == 0.0)
        assert T.nnz == A.nnz
        assert np.shares_memory(t.indptr, a.indptr) and np.shares_memory(t.indices, a.indices)

    def test_dia_product_is_the_flushed_csr_product(self, galerkin_level, rng):
        A, scale = galerkin_level
        T = A.float32_twin(scale)
        assert T._dia is not None
        assert np.count_nonzero(T._dia.data) == np.count_nonzero(T.to_scipy().data)
        x = rng.standard_normal(T.ncols).astype(np.float32)
        assert spmv(T, x).tobytes() == T.to_scipy().dot(x).tobytes()


# The hierarchies of perfbench's smoke workloads (poisson3d m=12 matching,
# aniso2d m=32 SA) and two larger ones
DIA_HIERARCHIES = {
    "poisson3d-m12": (lambda: poisson3d(12)[0], "pairwise_matching"),
    "poisson3d-m16": (lambda: poisson3d(16)[0], "pairwise_matching"),
    "aniso2d-m32": (lambda: aniso2d_q1(32, 100.0, math.pi / 6)[0], "smoothed_aggregation"),
    "aniso2d-m64": (lambda: aniso2d_q1(64, 100.0, math.pi / 6)[0], "smoothed_aggregation"),
}


@pytest.fixture(scope="module", params=sorted(DIA_HIERARCHIES))
def hierarchy(request):
    problem, coarsening = DIA_HIERARCHIES[request.param]
    return request.param, build_hierarchy(problem(), coarsening=coarsening)


def diagonal_fill(A):
    """Entries the diagonals of A hold, over nnz."""
    m = A.to_scipy()
    offsets = np.unique(m.indices - np.repeat(np.arange(A.nrows), np.diff(m.indptr)))
    return len(offsets) * A.nrows / A.nnz


class TestDiaForm:
    """``float32_twin`` keeps a banded twin's values by diagonals as well."""

    def test_same_bits_as_csr_on_every_level(self, hierarchy, rng):
        _, h = hierarchy
        for level in h.levels:
            for M in (level.A, level.P, level.R):
                if M is None:
                    continue
                T = M.float32_twin(2.0**-3)
                x = rng.standard_normal(T.ncols).astype(np.float32)
                signed_zeros = x.copy()
                signed_zeros[::3] = 0.0
                signed_zeros[1::3] = -0.0
                for v in (x, signed_zeros):
                    y = spmv(T, v)
                    assert y.dtype == np.float32
                    assert y.tobytes() == T.to_scipy().dot(v).tobytes()

    def test_levels_0_and_1_get_it_and_no_transfer_does(self, hierarchy):
        name, h = hierarchy
        assert len(h.levels) >= 3
        for i, level in enumerate(h.levels):
            if i <= 1:
                assert level.A.float32_twin()._dia is not None, (name, i)
            for M in (level.P, level.R):
                if M is not None:
                    assert M.float32_twin()._dia is None, (name, i)
        if name == "aniso2d-m64":
            # an aggregated level whose diagonals would hold more than 2 nnz
            A2 = h.levels[2].A
            assert diagonal_fill(A2) > 2.0
            assert A2.float32_twin()._dia is None

    def test_layout_is_scipys_todia(self, hierarchy):
        # scipy's todia() builds the same layout independently, through COO
        # and np.unique; each square level's twin and S's, scaled as
        # as_vcycle_preconditioner scales them
        _, h = hierarchy
        q = int(np.frexp(np.max(np.abs(h.levels[0].A.to_scipy().data)))[1])
        for level in h.levels:
            for M, scale in ((level.A, 2.0**-q), (level.S, 2.0**q)):
                if M is None:
                    continue
                T = M.float32_twin(scale)
                with warnings.catch_warnings():  # aniso2d's S has 109 diagonals
                    warnings.filterwarnings("ignore", "Constructing a DIA matrix with",
                                            scipy.sparse.SparseEfficiencyWarning)
                    want = T.to_scipy().todia()
                if T._dia is None:
                    assert len(want.offsets) * T.nrows > 2 * T.nnz
                else:
                    assert T._dia.offsets.tolist() == want.offsets.tolist()
                    assert T._dia.data.shape == want.data.shape
                    assert T._dia.data.tobytes() == want.data.tobytes()

    def test_rule_is_two_nnz_on_the_diagonals(self):
        # 4x4: the main diagonal and both corners make 3 diagonals of 12
        # entries over nnz = 6, at the bound; one more entry on a fourth
        # diagonal makes 16 over nnz = 7, past it
        a = np.eye(4)
        a[0, 3] = a[3, 0] = 0.5
        assert csr(a).float32_twin()._dia is not None
        a[1, 3] = 0.25
        assert csr(a).float32_twin()._dia is None
        assert csr(np.ones((2, 3))).float32_twin()._dia is None

    def test_nothing_else_moves(self):
        A, _ = poisson3d(6)
        T = A.float32_twin()
        assert T._dia is not None and T._dia.format == "dia"
        m = T.to_scipy()
        assert m.format == "csr"
        a = A.to_scipy()
        assert np.shares_memory(m.indptr, a.indptr) and np.shares_memory(m.indices, a.indices)
        assert m.dtype == np.float32 and T.nnz == len(m.data) == A.nnz
        before = spmv_count()
        T.matvec(np.ones(T.ncols, np.float32))
        spmv(T, np.ones(T.ncols, np.float32))
        assert spmv_count() - before == 2

    def test_float64_matrices_stay_csr(self, hierarchy):
        _, h = hierarchy
        for level in h.levels:
            for M in (level.A, level.P, level.R, level.S):
                assert M is None or M._dia is None

    def test_build_memory(self):
        # one pass over all entries: the twin's own values and DIA data, one
        # intp position per entry and the offset table, 2n - 1 intp
        A, _ = poisson3d(24)
        T, peak = traced_peak(A.float32_twin)
        assert T._dia is not None
        own = nbytes(T.to_scipy().data, T._dia.data, T._dia.offsets)
        assert peak <= own + 8 * A.nnz + 16 * A.nrows

    def test_flat_positions_do_not_overflow(self):
        # k * n reaches 2**31 at the third diagonal of a 2**30-column matrix,
        # where a matrix of int32 indices can still qualify; the table is
        # built from the mask alone, so no such matrix is allocated
        n = np.int32(2**30)
        starts = sparse._diagonal_starts(np.array([True, False, True, True]), n)
        assert starts.dtype == np.intp
        assert starts[[0, 2, 3]].tolist() == [0, 2**30, 2**31]
        pos = starts[np.array([3], np.int32)]
        pos += np.array([2**30 - 1], np.int32)
        assert pos.tolist() == [2**31 + 2**30 - 1]


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
        assert np.array_equal(spmv(A, e1), to_dense(A)[:, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(CsrMatrix.identity(3), np.ones(4))

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        A = csr(rng.standard_normal((n, n)))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = spmv(A, a * x + b * y)
        rhs = a * spmv(A, x) + b * spmv(A, y)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13 * np.abs(rhs).max())


class TestGalerkinSymmetry:
    def test_rap_symmetric(self, rng):
        A = to_dense(random_spd(12, seed=11))
        P = rng.standard_normal((12, 5))
        R = P.T @ A @ P
        assert np.max(np.abs(R - R.T)) <= 1e-13 * np.max(np.abs(R))


def test_import_leaves_scipy_linalg_unloaded():
    # no amgpoly code uses it: the dense algebra is numpy.linalg.  The
    # package root imports nothing, so import every submodule.
    names = sorted(m.name for m in pkgutil.iter_modules(amgpoly.__path__))
    assert names == ["amg", "cli", "krylov", "optimize", "problems", "smoothers", "sparse"]
    run = "import " + ", ".join(f"amgpoly.{name}" for name in names)
    assert not loaded_by_import_amgpoly("scipy.linalg", run)


def test_no_submodule_uses_numpy_polynomial():
    # polynomial algebra is for the oracles in tests/oracles.py.  scipy.sparse
    # loads numpy.polynomial itself (through its array-API layer), so
    # sys.modules cannot tell; read every submodule's imports and attributes.
    def dotted(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom):
            return [f"{node.module}.{a.name}" for a in node.names]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return [f"{node.value.id}.{node.attr}"]
        return []

    pkg = os.path.dirname(amgpoly.__file__)
    for m in pkgutil.iter_modules(amgpoly.__path__):
        with open(os.path.join(pkg, m.name + ".py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            for name in dotted(node):
                name = "numpy" + name[2:] if name.startswith("np.") else name
                assert not (name + ".").startswith("numpy.polynomial."), (m.name, name)


@pytest.mark.parametrize("argv", [
    ["solve", "--override", "m=4"],
    ["spectrum-grid", "--sizes", "8", "--degrees", "1,2"],
    ["bounds", "--kmax", "12"],
], ids=lambda a: a[0])
def test_cli_leaves_scipy_optimize_unloaded(argv):
    # importing it costs about 0.45 s; only optimize_beta needs it
    run = f"from amgpoly.cli import main; assert main({argv + ['-o', os.devnull]!r}) == 0"
    assert not loaded_by_import_amgpoly("scipy.optimize", run)


def loaded_by_import_amgpoly(module, then="pass"):
    """Whether ``import amgpoly`` and the statement ``then``, run in a fresh
    interpreter, load ``module``."""
    src = os.path.dirname(os.path.dirname(amgpoly.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, amgpoly\n{then}\nprint({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"
