import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from amgpoly import amg, sparse
from amgpoly.amg import (
    POWER_STEPS,
    as_vcycle_preconditioner,
    build_hierarchy,
    estimate_lambda_max,
    galerkin_rap,
    matching_aggregate,
    sa_aggregate,
    smooth_prolongator,
    strength_graph,
    vcycle_apply,
)
from amgpoly.krylov import solve
from amgpoly.problems import MAX_DENSE_N, aniso2d_q1, poisson3d
from amgpoly.smoothers import FAMILIES, PolySmootherConfig, l1_jacobi_diag, smoother_apply
from amgpoly.sparse import CsrMatrix, spmv, spmv_count

from conftest import (
    build_with,
    integer_m_matrices,
    linear_interp_1d,
    nbytes,
    poisson2d_5pt,
    random_spd,
    traced_peak,
    tridiag,
)
from oracles import smoothing_constant, two_level_constants


class TestSaAggregate:
    def test_identity_all_singletons(self):
        P = sa_aggregate(CsrMatrix.identity(5), 0.01)
        assert np.array_equal(P.to_dense(), np.eye(5))

    def test_tridiag6_grouping(self):
        P = sa_aggregate(tridiag(6), theta=0.01)
        agg = P.to_dense().argmax(axis=1)
        assert np.array_equal(agg, [0, 0, 0, 1, 1, 1])

    def test_one_entry_per_row(self):
        A, _ = poisson3d(4)
        P = sa_aggregate(A, 0.01)
        dense = P.to_dense()
        assert np.all(dense.sum(axis=1) == 1.0)
        assert np.all((dense == 0.0) | (dense == 1.0))

    def test_poisson3d_coarsening_ratio(self):
        A, _ = poisson3d(4)
        P = sa_aggregate(A, 0.01)
        assert 64 / 27 <= P.ncols < 64

    def test_level0_aniso2d_memory(self):
        # the peak was 36x the prolongator's bytes when the strength graph
        # went to Python lists whole; 14x since only visited rows do
        A = aniso2d_q1(128, 100.0, math.pi / 6)[0]
        P, peak = traced_peak(lambda: sa_aggregate(A, 0.01))
        assert peak <= 20.0 * nbytes(P)


class TestStrengthGraph:
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
    def test_matches_dense_mask(self, theta):
        A = random_spd(12, seed=3)
        D = A.to_dense()
        ptr, cols, weights = strength_graph(A, theta)
        assert all(isinstance(a, np.ndarray) for a in (ptr, cols, weights))
        d = np.diag(D)
        for i in range(A.nrows):
            strong = [j for j in range(A.ncols) if j != i and D[i, j] != 0.0
                      and abs(D[i, j]) >= theta * np.sqrt(abs(d[i] * d[j]))]
            assert cols[ptr[i]:ptr[i + 1]].tolist() == strong
            assert weights[ptr[i]:ptr[i + 1]].tolist() == [abs(D[i, j]) for j in strong]

    @pytest.mark.parametrize("k", [600, -600])
    def test_power_of_two_scaling_keeps_the_graph(self, k):
        # a_ii a_jj overflows at 2^600 (about 4e180) and underflows at 2^-600
        # unless the diagonal is scaled before the product
        A = aniso2d_q1(32, 100.0, math.pi / 6)[0]
        B = CsrMatrix.from_scipy(A.to_scipy() * 2.0**k)
        ptr, cols, weights = strength_graph(A, 0.01)
        ptr_b, cols_b, weights_b = strength_graph(B, 0.01)
        assert np.array_equal(ptr_b, ptr) and np.array_equal(cols_b, cols)
        assert weights_b.tobytes() == (weights * 2.0**k).tobytes()
        sizes = [l.A.nrows for l in build_hierarchy(A).levels]
        assert len(sizes) >= 3
        assert [l.A.nrows for l in build_hierarchy(B).levels] == sizes


class TestMatchingAggregate:
    def test_identity_no_edges(self):
        P = matching_aggregate(CsrMatrix.identity(4), sweeps=3)
        assert np.array_equal(P.to_dense(), np.eye(4))

    def test_two_by_two_pair(self):
        A = CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        P = matching_aggregate(A, sweeps=1)
        assert P.ncols == 1

    def test_tridiag8_size_cap(self):
        P = matching_aggregate(tridiag(8), sweeps=3)
        assert P.ncols in (1, 2)
        sizes = P.to_dense().sum(axis=0)
        assert np.max(sizes) <= 8

    def test_aggregate_size_bounded_by_sweeps(self):
        A, _ = poisson3d(4)
        for sweeps in (1, 2, 3):
            P = matching_aggregate(A, sweeps=sweeps)
            assert np.max(P.to_dense().sum(axis=0)) <= 2**sweeps


class TestSmoothProlongator:
    def test_omega_zero_identity(self):
        A = tridiag(6)
        P_hat = sa_aggregate(A, 0.01)
        P = smooth_prolongator(A, P_hat, 0.0)
        assert np.array_equal(P.to_dense(), P_hat.to_dense())

    def test_scalar_case(self):
        eye = CsrMatrix.identity(3)
        P = smooth_prolongator(eye, eye, 2.0 / 3.0)
        assert np.allclose(P.to_dense(), np.eye(3) / 3.0)

    def test_interior_column_sums_preserved(self):
        A = tridiag(9)
        P_hat = sa_aggregate(A, theta=0.01)
        P = smooth_prolongator(A, P_hat, 0.5)
        cs_hat = P_hat.to_dense().sum(axis=0)
        cs = P.to_dense().sum(axis=0)
        # interior aggregates see zero row sums of D^-1 A
        assert cs[1] == pytest.approx(cs_hat[1], abs=1e-12)


class TestEstimateLambdaMax:
    def test_exact_for_identity_scaled(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0, 4.0]))
        assert estimate_lambda_max(A) == pytest.approx(1.0)

    def test_tridiag_within_5_percent(self):
        A = tridiag(50)
        exact = 1.0 + np.cos(np.pi / 51.0)
        est = estimate_lambda_max(A)
        assert abs(est - exact) <= 0.05 * exact

    def test_rayleigh_quotient_of_the_last_step(self):
        # bit for bit the quotient of a plain power iteration's last step,
        # one SpMV per step
        A = poisson2d_5pt(9)
        d = A.diagonal()
        ds = np.sqrt(d)
        v = np.ones(A.nrows) + np.random.default_rng(0).uniform(-0.5, 0.5, A.nrows)
        for _ in range(POWER_STEPS):
            w = (A.to_scipy() @ (v / ds)) / ds
            lam = float(v @ w) / float(v @ v)
            v = w / np.linalg.norm(w)
        before = spmv_count()
        assert estimate_lambda_max(A) == lam
        assert spmv_count() - before == POWER_STEPS

    def test_poisson3d_band(self):
        A, _ = poisson3d(4)
        est = estimate_lambda_max(A)
        exact = np.max(np.linalg.eigvalsh(A.to_dense())) / 6.0
        assert 1.5 <= est <= 2.0
        assert 0.5 * exact <= est <= 1.05 * exact


def rap(A, P):
    return galerkin_rap(A, P, P.transpose())


class TestGalerkinRap:
    def test_identity_prolongator(self):
        A = tridiag(5)
        assert np.array_equal(rap(A, CsrMatrix.identity(5)).to_dense(), A.to_dense())

    def test_ones_column(self):
        A = tridiag(3)
        P = CsrMatrix.from_dense(np.ones((3, 1)))
        assert rap(A, P).to_dense()[0, 0] == pytest.approx(2.0)

    def test_congruence_preserves_spd(self, rng):
        A = random_spd(12, seed=4)
        P = CsrMatrix.from_dense(rng.standard_normal((12, 5)))
        Ac = rap(A, P).to_dense()
        assert np.min(np.linalg.eigvalsh(Ac)) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rap(tridiag(4), CsrMatrix.identity(5))
        with pytest.raises(ValueError):  # R does not map the fine level
            galerkin_rap(tridiag(4), CsrMatrix.identity(4), CsrMatrix.identity(5))

    def test_bits_of_the_transposed_product(self):
        # aniso2d's fine operator is symmetric only to rounding, so A^T and A
        # give different bits; the product keeps those of P.T @ A @ P
        A, _ = aniso2d_q1(32, 100.0, math.pi / 6)
        Asp = A.to_scipy()
        assert (Asp != Asp.T).nnz > 0
        P = build_with(A, MAX_LEVELS=2).levels[0].P
        ref = P.to_scipy().T @ Asp @ P.to_scipy()
        ref = ((ref + ref.T) * 0.5).tocsr()
        ref.eliminate_zeros()
        Ac = rap(A, P)
        assert Ac.nnz == ref.nnz
        assert Ac.to_dense().tobytes() == ref.toarray().tobytes()


class TestBuildHierarchy:
    def test_single_level_small(self):
        A = CsrMatrix.from_dense([[4.0]])
        h = build_hierarchy(A)
        assert len(h.levels) == 1
        assert h.coarse_smoother == PolySmootherConfig(family="l1_jacobi", degree=30)

    def test_poisson3d_matching_depth(self):
        A, _ = poisson3d(8)
        h = build_hierarchy(A, coarsening="pairwise_matching")
        assert 2 <= len(h.levels) <= 4

    def test_galerkin_consistency(self):
        A, _ = poisson3d(6)
        h = build_with(A, MIN_COARSE_SIZE=20)
        for fine, coarse in zip(h.levels, h.levels[1:]):
            assert np.array_equal(fine.R.to_dense(), fine.P.to_dense().T)
            recomputed = galerkin_rap(fine.A, fine.P, fine.R).to_dense()
            have = coarse.A.to_dense()
            assert np.linalg.norm(recomputed - have) <= 1e-12 * np.linalg.norm(have)

    def test_prolongators_full_rank(self):
        A, _ = poisson3d(6)
        h = build_with(A, MIN_COARSE_SIZE=20)
        for level in h.levels[:-1]:
            G = level.P.to_dense().T @ level.P.to_dense()
            assert np.min(np.linalg.eigvalsh(G)) > 0.0

    def test_operator_complexity_bounded(self):
        for kind in ("smoothed_aggregation", "pairwise_matching"):
            A, _ = poisson3d(8)
            h = build_hierarchy(A, coarsening=kind)
            assert h.operator_complexity() <= 3.0

    @pytest.mark.parametrize(
        "A, message",
        [
            (CsrMatrix.from_dense(np.ones((2, 3))), "square"),
            (CsrMatrix.from_dense([[2.0, -1.0], [0.0, 2.0]]), "symmetric"),
            (CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 0.0]]), "positive diagonal"),
            (CsrMatrix.from_dense([[-2.0, 1.0], [1.0, -2.0]]), "positive diagonal"),
            (CsrMatrix.from_dense([[2.0, np.inf], [np.inf, 2.0]]),
             r"non-finite entries \(2 of 4\), the first a\[0, 1\]"),
            (CsrMatrix.from_dense([[2.0, -1.0], [-1.0, -np.inf]]),
             r"non-finite entries \(1 of 4\), the first a\[1, 1\]"),
            (CsrMatrix.from_dense([[np.nan, -1.0], [-1.0, 2.0]]),
             r"\(1 of 4\), the first a\[0, 0\] = nan"),
            # every entry is finite, the l1 row sums 2e308 are not
            (CsrMatrix.from_dense([[1e308, -1e308], [-1e308, 1e308]]), "row sums overflow"),
            # one level of no rows, whose V-cycle's max |r_i| has nothing to reduce
            (CsrMatrix.identity(0), "no rows"),
        ],
    )
    def test_rejects_bad_fine_matrix(self, A, message):
        with pytest.raises(ValueError, match=message):
            build_hierarchy(A)

    def test_indefinite_matrix_ends_in_breakdown(self):
        # symmetric with a positive diagonal, so the hierarchy builds; A is
        # indefinite, and PCG must stop at its first d'Ad that is not positive
        A = CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        h = build_hierarchy(A)
        _, rep = solve(A, np.array([1.0, 0.0]), precond=as_vcycle_preconditioner(h))
        assert rep.breakdown

    @pytest.mark.parametrize("kind", ["smoothed_aggregation", "pairwise_matching"])
    def test_prolongator_is_smoothed_tentative(self, kind):
        # every level's P is one damped Jacobi step on its tentative prolongator
        A, _ = poisson3d(12)
        h = build_hierarchy(A, coarsening=kind)
        assert len(h.levels) >= 2
        for level in h.levels[:-1]:
            if kind == "smoothed_aggregation":
                P_hat = sa_aggregate(level.A, amg.STRENGTH_THETA)
            else:
                P_hat = matching_aggregate(level.A, amg.MATCHING_SWEEPS)
            omega = 4.0 / (3.0 * estimate_lambda_max(level.A))
            want = smooth_prolongator(level.A, P_hat, omega)
            assert np.array_equal(level.P.to_dense(), want.to_dense())
            assert not np.array_equal(level.P.to_dense(), P_hat.to_dense())

    def test_built_hierarchy_is_frozen(self):
        A, _ = poisson3d(4)
        h = build_with(A, MIN_COARSE_SIZE=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.stagnated = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.levels[0].P = None
        assert h.levels[0].P is not None

    def test_coarsening_without_progress_stops_stagnated(self, monkeypatch):
        # every row is isolated: the first coarsening keeps all 300 rows, and
        # it is dropped before lambda_max is estimated or P is smoothed
        def no_smoothing(*args):
            raise AssertionError("a dropped coarsening must not be smoothed")

        monkeypatch.setattr(amg, "smooth_prolongator", no_smoothing)
        before = spmv_count()
        h = build_hierarchy(CsrMatrix.identity(300))
        assert spmv_count() == before
        assert [l.A.nrows for l in h.levels] == [300]
        assert h.stagnated

    def test_two_coarsenings_above_95_percent_stop_stagnated(self):
        # 5000 isolated rows outweigh the 1-D Laplacian that still coarsens
        A = CsrMatrix.from_scipy(
            scipy.sparse.block_diag([scipy.sparse.identity(5000), tridiag(400).to_scipy()])
        )
        h = build_hierarchy(A)
        assert [l.A.nrows for l in h.levels] == [5400, 5133, 5044]
        assert h.stagnated

    def test_unknown_coarsening_is_rejected(self):
        with pytest.raises(ValueError, match="unknown coarsening kind 'bogus'"):
            build_hierarchy(poisson3d(4)[0], coarsening="bogus")

    def test_oversize_single_level_is_not_densified(self, monkeypatch):
        # the l1-Jacobi coarse solve has no size cap: 1728 rows > MAX_DENSE_N
        def no_densify(A):
            raise AssertionError("the coarsest level must not be densified")

        monkeypatch.setattr(CsrMatrix, "to_dense", no_densify)
        A, b = poisson3d(12)
        h = build_with(A, MAX_LEVELS=1)
        _, rep = solve(A, b, precond=as_vcycle_preconditioner(h))
        assert [l.A.nrows for l in h.levels] == [1728]
        assert 1728 > MAX_DENSE_N
        assert rep.converged

    @pytest.mark.parametrize(
        "problem, kind, settings, default_sizes, sizes",
        [
            ("aniso2d", "smoothed_aggregation", {"MAX_LEVELS": 2},
             [1056, 271, 66], [1056, 271]),
            ("poisson3d", "smoothed_aggregation", {"MIN_COARSE_SIZE": 20},
             [512, 127], [512, 127, 15]),
            ("aniso2d", "smoothed_aggregation", {"STRENGTH_THETA": 0.1},
             [1056, 271, 66], [1056, 256, 71]),
            ("poisson3d", "pairwise_matching", {"MATCHING_SWEEPS": 1},
             [512, 64], [512, 256, 128]),
        ],
        ids=["MAX_LEVELS", "MIN_COARSE_SIZE", "STRENGTH_THETA", "MATCHING_SWEEPS"],
    )
    def test_reads_each_setting_from_the_module(self, problem, kind, settings,
                                                default_sizes, sizes):
        # the module constants are the only way to set these values, and every
        # test that builds a small hierarchy relies on build_hierarchy reading
        # them at call time: a copied or hard-coded value keeps default_sizes
        A = {"aniso2d": lambda: aniso2d_q1(32, 100.0, math.pi / 6)[0],
             "poisson3d": lambda: poisson3d(8)[0]}[problem]()
        assert [l.A.nrows for l in build_hierarchy(A, kind).levels] == default_sizes
        assert [l.A.nrows for l in build_with(A, kind, **settings).levels] == sizes

    def test_reads_coarse_sweeps_from_the_module(self):
        A, _ = poisson3d(8)
        h = build_with(A, COARSE_SWEEPS=7)
        coarse = h.levels[-1]
        assert h.coarse_smoother == PolySmootherConfig(family="l1_jacobi", degree=7)
        want = amg.coarse_sweep_matrix(coarse.A, coarse.M, 7)
        assert np.array_equal(coarse.S.to_dense(), want.to_dense())
        default = build_hierarchy(A).levels[-1].S
        assert not np.array_equal(coarse.S.to_dense(), default.to_dense())

    def test_summary_json_roundtrip(self):
        A, _ = poisson3d(4)
        h = build_with(A, MIN_COARSE_SIZE=10)
        s = json.loads(json.dumps(h.summary(), indent=2))
        assert s["levels"][0]["size"] == 64
        assert s["operator_complexity"] >= 1.0


def without_s(h):
    """``h`` with no ``S``: its coarsest level runs the l1-Jacobi sweeps."""
    coarsest = dataclasses.replace(h.levels[-1], S=None)
    return dataclasses.replace(h, levels=h.levels[:-1] + (coarsest,))


# The hierarchies of perfbench's smoke workloads
SMOKE_HIERARCHIES = {
    "poisson3d-m12-match": (lambda: poisson3d(12)[0], "pairwise_matching"),
    "aniso2d-m32-sa": (lambda: aniso2d_q1(32, 100.0, math.pi / 6)[0], "smoothed_aggregation"),
}


def assert_s_is_the_sweeps(h):
    """S e_j is the coarse sweeps' e_j within 1e-12 relative, for every j, and S is symmetric."""
    coarse = h.levels[-1]
    S = coarse.S
    n = coarse.A.nrows
    assert (S.nrows, S.ncols) == (n, n)
    assert S.to_dense().tobytes() == S.to_dense().T.tobytes()
    assert S.is_symmetric()
    for j, e in enumerate(np.eye(n)):
        want = smoother_apply(h.coarse_smoother, coarse.A, coarse.M, e)
        assert np.abs(spmv(S, e) - want).max() <= 1e-12 * np.abs(want).max(), j


class TestCoarseSweepMatrix:
    """``build_hierarchy`` forms the coarse sweeps into one matrix S where it costs no more."""

    @pytest.mark.parametrize("name", sorted(SMOKE_HIERARCHIES))
    def test_bench_hierarchies_get_s(self, name):
        problem, coarsening = SMOKE_HIERARCHIES[name]
        h = build_hierarchy(problem(), coarsening=coarsening)
        assert h.levels[-1].S is not None
        assert all(level.S is None for level in h.levels[:-1])
        assert_s_is_the_sweeps(h)

    @settings(max_examples=40, deadline=None)
    @given(
        integer_m_matrices(),
        st.integers(1, 12),
        st.sampled_from(["smoothed_aggregation", "pairwise_matching"]),
    )
    def test_m_matrices(self, A, sweeps, kind):
        h = build_with(A, kind, MIN_COARSE_SIZE=2, COARSE_SWEEPS=sweeps)
        coarse = h.levels[-1]
        n = coarse.A.nrows
        assert (coarse.S is not None) == (n * n <= (sweeps - 1) * coarse.A.nnz)
        if coarse.S is not None:
            assert_s_is_the_sweeps(h)

    def test_rule_is_a_work_count(self):
        # periodic 6-point ring: n^2 = 36 = (3 - 1) * 18 nnz, at the bound
        ring = 4.0 * np.eye(6) - np.roll(np.eye(6), 1, axis=1) - np.roll(np.eye(6), -1, axis=1)
        A = CsrMatrix.from_dense(ring)
        M = l1_jacobi_diag(A)
        assert A.nnz == 18
        assert amg.coarse_sweep_matrix(A, M, 3) is not None
        assert amg.coarse_sweep_matrix(A, M, 2) is None

    def test_none_for_one_sweep(self):
        # a dense 2 x 2 coarsest level: n^2 = nnz, so any second sweep forms S
        A = CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        assert build_with(A, COARSE_SWEEPS=1).levels[-1].S is None
        h = build_with(A, COARSE_SWEEPS=2)
        assert h.levels[-1].S is not None
        assert_s_is_the_sweeps(h)

    def test_none_past_the_dense_cap(self, monkeypatch):
        # 1025 rows pass the work count at 400 sweeps but not MAX_DENSE_N,
        # and no n x n array is made on the way to None
        def no_dense(*args):
            raise AssertionError("S must not be formed")

        A = tridiag(MAX_DENSE_N + 1)
        assert A.nrows**2 <= 399 * A.nnz
        monkeypatch.setattr(np, "eye", no_dense)
        assert amg.coarse_sweep_matrix(A, l1_jacobi_diag(A), 400) is None

    def test_none_where_the_sweeps_read_less(self):
        # 200 tridiagonal rows: n^2 = 40000 > 29 * 598
        h = build_with(tridiag(200), MAX_LEVELS=1)
        assert len(h.levels) == 1
        assert h.levels[-1].S is None

    def test_forming_s_counts_no_spmv(self):
        A, _ = poisson3d(6)
        h = build_with(A, MIN_COARSE_SIZE=10, MAX_LEVELS=2)
        coarse = h.levels[-1]
        before = spmv_count()
        S = amg.coarse_sweep_matrix(coarse.A, coarse.M, 30)
        assert spmv_count() == before
        assert S.to_dense().tobytes() == coarse.S.to_dense().tobytes()


def test_setup_and_solve_check_no_structure(monkeypatch):
    # the structure is checked once, where the fine matrix enters; the smoke
    # benchmark hierarchies, their float32 V-cycle and the PCG solve build
    # every other matrix from checked ones and wrap it unchecked
    problems = [
        (poisson3d(12), "pairwise_matching"),
        (aniso2d_q1(32, 100.0, math.pi / 6), "smoothed_aggregation"),
    ]

    def checked_constructor(self, *args):
        raise AssertionError("a structure check ran after the fine matrix was built")

    monkeypatch.setattr(CsrMatrix, "__init__", checked_constructor)
    for (A, b), kind in problems:
        h = build_hierarchy(A, coarsening=kind)
        assert len(h.levels) >= 3 and h.levels[-1].S is not None
        _, rep = solve(A, b, precond=as_vcycle_preconditioner(h))
        assert rep.converged


# Prints a sha256 per array of every level of four hierarchies.  The sizes
# stop below where BLAS threading reaches setup: at poisson3d m=24 and
# aniso2d m=128, estimate_lambda_max's dots already round differently at one
# and two OpenBLAS threads, and the hierarchies differ.
HASH_HIERARCHIES = """
import hashlib, math
from amgpoly.amg import build_hierarchy
from amgpoly.problems import aniso2d_q1, poisson3d
for name, A, kind in [
    ("poisson3d-m12", poisson3d(12)[0], "pairwise_matching"),
    ("poisson3d-m16", poisson3d(16)[0], "pairwise_matching"),
    ("aniso2d-m32", aniso2d_q1(32, 100.0, math.pi / 6)[0], "smoothed_aggregation"),
    ("aniso2d-m64", aniso2d_q1(64, 100.0, math.pi / 6)[0], "smoothed_aggregation"),
]:
    for i, level in enumerate(build_hierarchy(A, coarsening=kind).levels):
        for key in "APRMS":
            m = getattr(level, key)
            arrays = [] if m is None else [m] if key == "M" else [m.row_ptr, m.col_idx, m.values]
            for a in arrays:
                print(name, i, key, hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_hierarchies_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(amg.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        digests.append(subprocess.run([sys.executable, "-c", HASH_HIERARCHIES], env=env,
                                      check=True, capture_output=True, text=True).stdout)
    assert digests[0] and digests[0] == digests[1]


class TestVcycle:
    @pytest.mark.parametrize(
        "A, r",
        [
            (tridiag(12), np.ones(12)),
            (CsrMatrix.identity(3), np.array([4.0, 5.0, 6.0])),
            (CsrMatrix.from_dense(np.diag([2.0, 4.0])), np.array([2.0, 8.0])),
            (tridiag(4), tridiag(4).to_dense() @ np.array([1.0, 2.0, 3.0, 4.0])),
        ],
        ids=["tridiag12", "identity3", "diag2_4", "tridiag4"],
    )
    def test_single_level_is_the_coarse_smoother(self, A, r):
        # n^2 <= 29 nnz on each: the V-cycle is one product with S, and
        # without S it is the 30 sweeps themselves
        h = build_with(A, MIN_COARSE_SIZE=20)
        assert len(h.levels) == 1
        level = h.levels[0]
        assert level.S is not None
        assert vcycle_apply(h, r).tobytes() == spmv(level.S, r).tobytes()
        want = smoother_apply(h.coarse_smoother, A, level.M, r)
        assert vcycle_apply(without_s(h), r).tobytes() == want.tobytes()

    def test_zero_maps_to_zero(self):
        A, _ = poisson3d(4)
        h = build_with(A, MIN_COARSE_SIZE=10)
        assert np.array_equal(vcycle_apply(h, np.zeros(64)), np.zeros(64))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_equal_to_public_smoother_calls(self, family, rng):
        # two levels: the public smoother calls around the coarse solve, one
        # product with S, or the l1-Jacobi sweeps where there is no S
        A, _ = poisson3d(6)
        smoother = PolySmootherConfig(family=family, degree=3)
        h = build_with(A, smoother=smoother, MAX_LEVELS=2, MIN_COARSE_SIZE=10)
        assert len(h.levels) == 2
        fine, coarse = h.levels
        assert coarse.S is not None
        r = rng.standard_normal(A.nrows)
        x = smoother_apply(smoother, fine.A, fine.M, r)
        rc = spmv(fine.R, r - spmv(fine.A, x))
        for hh, xc in (
            (h, spmv(coarse.S, rc)),
            (without_s(h), smoother_apply(h.coarse_smoother, coarse.A, coarse.M, rc)),
        ):
            want = smoother_apply(smoother, fine.A, fine.M, r, x + spmv(fine.P, xc))
            assert vcycle_apply(hh, r).tobytes() == want.tobytes()

    def test_linearity(self, rng):
        A, _ = poisson3d(4)
        h = build_with(A, MIN_COARSE_SIZE=10)
        r, s = rng.standard_normal(64), rng.standard_normal(64)
        a, b = 0.7, -1.3
        lhs = vcycle_apply(h, a * r + b * s)
        rhs = a * vcycle_apply(h, r) + b * vcycle_apply(h, s)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))

    def test_preconditioner_symmetric_positive(self, rng):
        # the float64 V-cycle as an operator; the float32 preconditioner
        # built from it is held to it in TestFloat32Preconditioner
        A, _ = poisson3d(4)
        h = build_with(A, MIN_COARSE_SIZE=10)
        B = lambda r: vcycle_apply(h, r)
        for _ in range(5):
            u, v = rng.standard_normal(64), rng.standard_normal(64)
            assert B(u) @ v == pytest.approx(u @ B(v), rel=1e-10, abs=1e-10)
            assert u @ B(u) > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        integer_m_matrices(),
        st.sampled_from(FAMILIES),
        st.integers(1, 12),
        st.sampled_from(["smoothed_aggregation", "pairwise_matching"]),
    )
    def test_preconditioner_spd_property(self, A, family, k, kind):
        h = build_with(
            A,
            coarsening=kind,
            smoother=PolySmootherConfig(family=family, degree=k),
            MIN_COARSE_SIZE=2,
            COARSE_SWEEPS=3,
        )
        n = A.nrows
        B = np.column_stack([vcycle_apply(h, e) for e in np.eye(n)])
        scale = np.abs(B).max()
        assert np.abs(B - B.T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 1e-8 * scale

    def test_two_level_contraction(self, rng):
        A, _ = poisson3d(4)
        h = build_with(
            A,
            MIN_COARSE_SIZE=10,
            smoother=PolySmootherConfig(family="opt_cheb1", degree=4),
        )
        Ad = A.to_dense()
        for _ in range(50):
            e = rng.standard_normal(64)
            r = Ad @ e
            e_new = e - vcycle_apply(h, r)
            assert e_new @ Ad @ e_new < e @ Ad @ e

    @pytest.mark.parametrize(
        "k, sweeps, coarse", [(1, 1, 0), (3, 5, 1), (4, 30, 1)], ids=["1-1", "3-5", "4-30"]
    )
    def test_spmv_count_per_vcycle(self, k, sweeps, coarse):
        # per non-coarse level: (k - 1) pre-smoothing + 1 residual + k
        # post-smoothing on A, plus restriction and prolongation; the coarse
        # solve is one product with S (its 15 rows are dense: n^2 <= 4 nnz), or
        # l1-Jacobi sweeps from zero, sweeps - 1 SpMVs, where S is None
        A, _ = poisson3d(8)
        h = build_with(
            A,
            smoother=PolySmootherConfig(family="cheb4", degree=k),
            MIN_COARSE_SIZE=10,
            MAX_LEVELS=3,
            COARSE_SWEEPS=sweeps,
        )
        assert len(h.levels) == 3
        assert (h.levels[-1].S is None) == (sweeps == 1)
        precond = as_vcycle_preconditioner(h)  # its fine level multiplies in DIA form
        bare = without_s(h)
        for cycle, want in (
            (lambda r: vcycle_apply(h, r), coarse),
            (precond, coarse),
            (lambda r: vcycle_apply(bare, r), sweeps - 1),
        ):
            before = spmv_count()
            cycle(np.ones(A.nrows))
            assert spmv_count() - before == 2 * (2 * k + 2) + want

    def test_every_smoothing_is_one_smoother_apply_call(self, monkeypatch):
        # pre and post on each of two levels; between them the coarse solve,
        # one SpMV with S, or without S one call of the l1-Jacobi sweeps
        calls = []

        def counting(*args):
            calls.append(args[:2])
            return smoother_apply(*args)

        def recording(mat, x):
            calls.append(mat)
            return spmv(mat, x)

        A, _ = poisson3d(8)
        h = build_with(A, MIN_COARSE_SIZE=10, MAX_LEVELS=3)
        assert len(h.levels) == 3
        monkeypatch.setattr(amg, "smoother_apply", counting)
        monkeypatch.setattr(amg, "spmv", recording)
        fine, mid, coarse = h.levels
        for hh, coarse_solve in ((h, coarse.S), (without_s(h), (h.coarse_smoother, coarse.A))):
            calls.clear()
            vcycle_apply(hh, np.ones(A.nrows))
            assert calls == [
                (h.smoother, fine.A), fine.A, fine.R,
                (h.smoother, mid.A), mid.A, mid.R,
                coarse_solve,
                mid.P, (h.smoother, mid.A),
                fine.P, (h.smoother, fine.A),
            ]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_equal_to_explicit_zero_guess_vcycle(self, family, rng):
        # the coarse solve is one product with S, and without S the sweeps
        # from an explicit zero guess
        def reference(h, r, lvl=0):
            level = h.levels[lvl]
            if lvl == len(h.levels) - 1:
                if level.S is not None:
                    return spmv(level.S, r)
                return smoother_apply(h.coarse_smoother, level.A, level.M, r, np.zeros_like(r))
            x = smoother_apply(h.smoother, level.A, level.M, r, np.zeros_like(r))
            rc = spmv(level.R, r - spmv(level.A, x))
            x = x + spmv(level.P, reference(h, rc, lvl + 1))
            return smoother_apply(h.smoother, level.A, level.M, r, x)

        A, _ = poisson3d(8)
        h = build_with(
            A,
            smoother=PolySmootherConfig(family=family, degree=3),
            MIN_COARSE_SIZE=10,
            MAX_LEVELS=3,
        )
        assert h.levels[-1].S is not None
        r = rng.standard_normal(A.nrows)
        for hh in (h, without_s(h)):
            assert vcycle_apply(hh, r).tobytes() == reference(hh, r).tobytes()


class TestFloat32Preconditioner:
    """``as_vcycle_preconditioner`` runs the V-cycle in float32 between two float64 casts."""

    CASES = {
        "poisson3d-m4": lambda: poisson3d(4),
        "poisson3d-m16": lambda: poisson3d(16),
        "aniso2d-m64": lambda: aniso2d_q1(64, 100.0, math.pi / 6),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_float64_out_positive_and_close_to_the_float64_vcycle(self, case, rng):
        A, _ = self.CASES[case]()
        h = build_with(A, MIN_COARSE_SIZE=10)
        B = as_vcycle_preconditioner(h)
        for _ in range(3):
            r = rng.standard_normal(A.nrows)
            z, want = B(r), vcycle_apply(h, r)
            assert z.dtype == np.float64
            assert r @ z > 0.0
            assert np.linalg.norm(z - want) <= 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "k, sweeps, coarse", [(1, 1, 0), (3, 5, 1), (4, 30, 1)], ids=["1-1", "3-5", "4-30"]
    )
    def test_spmv_accounting_matches_the_float64_vcycle(self, k, sweeps, coarse, monkeypatch):
        # the count of test_spmv_count_per_vcycle, on float32 operators with
        # the shapes and nnz of their float64 twins, in the same order; the
        # coarse solve is S's one product, or the sweeps where S is None
        A, _ = poisson3d(8)
        h = build_with(
            A,
            smoother=PolySmootherConfig(family="cheb4", degree=k),
            MIN_COARSE_SIZE=10,
            MAX_LEVELS=3,
            COARSE_SWEEPS=sweeps,
        )
        calls = []

        def recording(mat, x):
            calls.append((mat.nrows, mat.ncols, mat.nnz, mat.dtype))
            return spmv(mat, x)

        B = as_vcycle_preconditioner(h)
        r = np.ones(A.nrows)
        monkeypatch.setattr(sparse, "spmv", recording)
        monkeypatch.setattr(amg, "spmv", recording)
        before = spmv_count()
        B(r)
        assert spmv_count() - before == 2 * (2 * k + 2) + coarse
        ran32, calls[:] = calls[:], []
        vcycle_apply(h, r)
        assert [c[:3] for c in ran32] == [c[:3] for c in calls]
        assert {c[3] for c in ran32} == {np.dtype(np.float32)}
        assert {c[3] for c in calls} == {np.dtype(np.float64)}

    def test_scaled_residual_gives_the_same_run(self):
        # powers of two are exact all the way: r * 2^200 runs the same
        # float32 V-cycle, and PCG's relative residuals repeat bit for bit
        A, b = poisson3d(8)
        h = build_hierarchy(A)
        B = as_vcycle_preconditioner(h)
        _, rep = solve(A, b, precond=B)
        _, rep_big = solve(A, b * 2.0**200, precond=B)
        assert rep.converged and rep_big.converged
        assert rep_big.iterations == rep.iterations
        assert rep_big.residual_history == rep.residual_history

    def test_operator_beyond_float32_range(self):
        # entries near 1e40 overflow a plain float32 cast; scaled by 2^-q
        # they do not, and the preconditioner stays close to the float64 one
        A, _ = poisson3d(8)
        A = CsrMatrix.from_scipy(A.to_scipy() * 1e40)
        h = build_hierarchy(A)
        r = np.random.default_rng(3).standard_normal(A.nrows) * 1e45
        z, want = as_vcycle_preconditioner(h)(r), vcycle_apply(h, r)
        assert np.all(np.isfinite(z))
        assert np.linalg.norm(z - want) <= 1e-5 * np.linalg.norm(want)


class TestTwoLevelConstants:
    def test_rejects_nonsymmetric(self):
        A = tridiag(8, lo=-1.0, up=-0.5)
        cfg = PolySmootherConfig(family="l1_jacobi", degree=1)
        with pytest.raises(ValueError, match="symmetric"):
            two_level_constants(A, linear_interp_1d(8), cfg)

    def test_rejects_indefinite(self):
        # symmetric with a positive diagonal, eigenvalues 3 and -1
        A = CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        cfg = PolySmootherConfig(family="l1_jacobi", degree=1)
        with pytest.raises(ValueError, match="positive definite"):
            two_level_constants(A, CsrMatrix.from_dense([[1.0], [1.0]]), cfg)

    def test_square_invertible_prolongator(self):
        A = tridiag(8)
        P = CsrMatrix.identity(8)
        C, _, bound, actual = two_level_constants(
            A, P, PolySmootherConfig(family="l1_jacobi", degree=1)
        )
        assert C == pytest.approx(0.0, abs=1e-10)
        assert bound == pytest.approx(0.0, abs=1e-10)
        assert actual == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_plain_sweeps_bound_1d(self, k):
        A = tridiag(64)
        P = linear_interp_1d(64)
        cfg = PolySmootherConfig(family="l1_jacobi", degree=k)
        C, gamma, bound, actual = two_level_constants(A, P, cfg)
        assert gamma == pytest.approx(1.0 / (2.0 * k))
        assert bound == pytest.approx(C / (C + 2.0 * k))
        assert actual <= bound + 1e-8

    def test_first_kind_bound_1d(self):
        A = tridiag(64)
        P = linear_interp_1d(64)
        cfg = PolySmootherConfig(family="opt_cheb1", degree=2)
        C, gamma, bound, actual = two_level_constants(A, P, cfg)
        assert gamma == pytest.approx(0.112015284483472, rel=1e-4)
        assert actual <= C / (C + 1.0 / 0.112015284483472) + 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gamma_is_smoothing_constant(self, family):
        A = tridiag(16)
        cfg = PolySmootherConfig(family=family, degree=3)
        C, gamma, bound, _ = two_level_constants(A, linear_interp_1d(16), cfg)
        assert gamma == smoothing_constant(cfg)
        assert bound == C / (C + 1.0 / gamma)

    def test_bound_ordering_matches_gamma_ordering(self):
        A = poisson2d_5pt(8)
        P1 = linear_interp_1d(8).to_dense()
        P = CsrMatrix.from_dense(np.kron(P1, P1))
        bounds = {}
        for family in ("cheb4", "opt_cheb4", "opt_cheb1"):
            cfg = PolySmootherConfig(family=family, degree=3)
            bounds[family] = two_level_constants(A, P, cfg)[2]
        assert bounds["opt_cheb4"] <= bounds["opt_cheb1"] <= bounds["cheb4"]

