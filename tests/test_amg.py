import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from amgpoly import amg
from amgpoly.amg import (
    POWER_STEPS,
    CoarseningConfig,
    as_vcycle_preconditioner,
    build_hierarchy,
    estimate_lambda_max,
    galerkin_rap,
    matching_aggregate,
    sa_aggregate,
    smooth_prolongator,
    strength_graph,
    two_level_constants,
    vcycle_apply,
)
from amgpoly.krylov import KrylovConfig, solve
from amgpoly.problems import aniso2d_q1, poisson3d
from amgpoly.smoothers import (
    FAMILIES,
    PolySmootherConfig,
    l1_jacobi_diag,
    smoother_apply,
    smoothing_constant,
)
from amgpoly.sparse import CsrMatrix, reset_spmv_count, spmv, spmv_count

from conftest import (
    integer_m_matrices,
    linear_interp_1d,
    nbytes,
    poisson2d_5pt,
    random_spd,
    traced_peak,
    tridiag,
)


class TestSaAggregate:
    def test_identity_all_singletons(self):
        P = sa_aggregate(CsrMatrix.identity(5))
        assert np.array_equal(P.to_dense(), np.eye(5))

    def test_tridiag6_grouping(self):
        P = sa_aggregate(tridiag(6), theta=0.01)
        agg = P.to_dense().argmax(axis=1)
        assert np.array_equal(agg, [0, 0, 0, 1, 1, 1])

    def test_one_entry_per_row(self):
        A, _ = poisson3d(4)
        P = sa_aggregate(A)
        dense = P.to_dense()
        assert np.all(dense.sum(axis=1) == 1.0)
        assert np.all((dense == 0.0) | (dense == 1.0))

    def test_poisson3d_coarsening_ratio(self):
        A, _ = poisson3d(4)
        P = sa_aggregate(A)
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
        P_hat = sa_aggregate(A)
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
        reset_spmv_count()
        assert estimate_lambda_max(A) == lam
        assert spmv_count() == POWER_STEPS

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
        P = build_hierarchy(A, max_levels=2).levels[0].P
        ref = P.to_scipy().T @ Asp @ P.to_scipy()
        ref = ((ref + ref.T) * 0.5).tocsr()
        ref.eliminate_zeros()
        Ac = rap(A, P)
        assert Ac.nnz == ref.nnz
        assert Ac.to_dense().tobytes() == ref.toarray().tobytes()


class TestBuildHierarchy:
    def test_single_level_small(self):
        A = CsrMatrix.from_dense([[4.0]])
        h = build_hierarchy(A, coarse_solver="dense_direct")
        assert len(h.levels) == 1
        assert h.coarse_solver == "dense_direct" and h.coarse_smoother is None

    def test_poisson3d_matching_depth(self):
        A, _ = poisson3d(8)
        h = build_hierarchy(
            A, coarsening=CoarseningConfig(kind="pairwise_matching"), min_coarse_size=200
        )
        assert 2 <= len(h.levels) <= 4

    def test_galerkin_consistency(self):
        A, _ = poisson3d(6)
        h = build_hierarchy(A, min_coarse_size=20)
        for fine, coarse in zip(h.levels, h.levels[1:]):
            assert np.array_equal(fine.R.to_dense(), fine.P.to_dense().T)
            recomputed = galerkin_rap(fine.A, fine.P, fine.R).to_dense()
            have = coarse.A.to_dense()
            assert np.linalg.norm(recomputed - have) <= 1e-12 * np.linalg.norm(have)

    def test_prolongators_full_rank(self):
        A, _ = poisson3d(6)
        h = build_hierarchy(A, min_coarse_size=20)
        for level in h.levels[:-1]:
            G = level.P.to_dense().T @ level.P.to_dense()
            assert np.min(np.linalg.eigvalsh(G)) > 0.0

    def test_operator_complexity_bounded(self):
        for kind in ("smoothed_aggregation", "pairwise_matching"):
            A, _ = poisson3d(8)
            h = build_hierarchy(A, coarsening=CoarseningConfig(kind=kind))
            assert h.operator_complexity() <= 3.0

    @pytest.mark.parametrize(
        "A, message",
        [
            (CsrMatrix.from_dense(np.ones((2, 3))), "square"),
            (CsrMatrix.from_dense([[2.0, -1.0], [0.0, 2.0]]), "symmetric"),
            (CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 0.0]]), "positive diagonal"),
            (CsrMatrix.from_dense([[-2.0, 1.0], [1.0, -2.0]]), "positive diagonal"),
        ],
    )
    def test_rejects_bad_fine_matrix(self, A, message):
        with pytest.raises(ValueError, match=message):
            build_hierarchy(A)

    def test_dense_direct_rejects_indefinite_coarsest_level(self):
        A = CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            build_hierarchy(A, coarse_solver="dense_direct")

    @pytest.mark.parametrize("kind", ["smoothed_aggregation", "pairwise_matching"])
    def test_unsmoothed_prolongator_is_tentative(self, kind):
        A, b = poisson3d(12)
        coarsening = CoarseningConfig(kind=kind, prolongator_smoothing=False)
        h = build_hierarchy(A, coarsening=coarsening)
        assert len(h.levels) >= 2
        for level in h.levels[:-1]:
            if kind == "smoothed_aggregation":
                P_hat = sa_aggregate(level.A, coarsening.strength_theta)
            else:
                P_hat = matching_aggregate(level.A, coarsening.matching_sweeps)
            assert np.array_equal(level.P.to_dense(), P_hat.to_dense())
            assert np.array_equal(np.diff(level.P.row_ptr), np.ones(level.A.nrows))
            assert np.array_equal(level.P.values, np.ones(level.A.nrows))
        x, rep = solve(A, b, precond=as_vcycle_preconditioner(h), cfg=KrylovConfig(tol=1e-7))
        assert rep.converged
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-7 * np.linalg.norm(b)

    def test_built_hierarchy_is_frozen(self):
        A, _ = poisson3d(4)
        h = build_hierarchy(A, min_coarse_size=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.stagnated = True

    def test_summary_json_roundtrip(self):
        A, _ = poisson3d(4)
        h = build_hierarchy(A, min_coarse_size=10)
        s = json.loads(json.dumps(h.summary(), indent=2))
        assert s["levels"][0]["size"] == 64
        assert s["operator_complexity"] >= 1.0


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
    def test_single_level_direct_is_exact(self, A, r):
        h = build_hierarchy(A, min_coarse_size=20, coarse_solver="dense_direct")
        assert len(h.levels) == 1
        assert np.allclose(
            vcycle_apply(h, r), np.linalg.solve(A.to_dense(), r), atol=1e-10
        )

    def test_zero_maps_to_zero(self):
        A, _ = poisson3d(4)
        h = build_hierarchy(A, min_coarse_size=10)
        assert np.array_equal(vcycle_apply(h, np.zeros(64)), np.zeros(64))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_equal_to_public_smoother_calls(self, family, rng):
        # two levels: the public smoother calls around the dense coarse solve
        A, _ = poisson3d(6)
        smoother = PolySmootherConfig(family=family, degree=3)
        h = build_hierarchy(A, smoother=smoother, max_levels=2, min_coarse_size=10,
                            coarse_solver="dense_direct")
        assert len(h.levels) == 2
        fine = h.levels[0]
        r = rng.standard_normal(A.nrows)
        x = smoother_apply(smoother, fine.A, fine.M, r)
        rc = spmv(fine.R, r - spmv(fine.A, x))
        xc = scipy.linalg.cho_solve(h.coarse_factor, rc)
        want = smoother_apply(smoother, fine.A, fine.M, r, x + spmv(fine.P, xc))
        assert vcycle_apply(h, r).tobytes() == want.tobytes()

    def test_linearity(self, rng):
        A, _ = poisson3d(4)
        h = build_hierarchy(A, min_coarse_size=10)
        r, s = rng.standard_normal(64), rng.standard_normal(64)
        a, b = 0.7, -1.3
        lhs = vcycle_apply(h, a * r + b * s)
        rhs = a * vcycle_apply(h, r) + b * vcycle_apply(h, s)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))

    def test_preconditioner_symmetric_positive(self, rng):
        A, _ = poisson3d(4)
        h = build_hierarchy(A, min_coarse_size=10, coarse_solver="dense_direct")
        B = as_vcycle_preconditioner(h)
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
        st.sampled_from(["l1_jacobi", "dense_direct"]),
    )
    def test_preconditioner_spd_property(self, A, family, k, kind, coarse_solver):
        h = build_hierarchy(
            A,
            coarsening=CoarseningConfig(kind=kind),
            smoother=PolySmootherConfig(family=family, degree=k),
            min_coarse_size=2,
            coarse_solver=coarse_solver,
            coarse_sweeps=3,
        )
        n = A.nrows
        B = np.column_stack([vcycle_apply(h, e) for e in np.eye(n)])
        scale = np.abs(B).max()
        assert np.abs(B - B.T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 1e-8 * scale

    def test_two_level_contraction(self, rng):
        A, _ = poisson3d(4)
        h = build_hierarchy(
            A,
            min_coarse_size=10,
            coarse_solver="dense_direct",
            smoother=PolySmootherConfig(family="opt_cheb1", degree=4),
        )
        Ad = A.to_dense()
        for _ in range(50):
            e = rng.standard_normal(64)
            r = Ad @ e
            e_new = e - vcycle_apply(h, r)
            assert e_new @ Ad @ e_new < e @ Ad @ e

    @pytest.mark.parametrize("k, sweeps", [(1, 1), (3, 5), (4, 30)])
    def test_spmv_count_per_vcycle(self, k, sweeps):
        # per non-coarse level: (k - 1) pre-smoothing + 1 residual + k
        # post-smoothing on A, plus restriction and prolongation; the coarse
        # l1-Jacobi solve starts from zero and costs sweeps - 1
        A, _ = poisson3d(8)
        h = build_hierarchy(
            A,
            smoother=PolySmootherConfig(family="cheb4", degree=k),
            min_coarse_size=10,
            max_levels=3,
            coarse_sweeps=sweeps,
        )
        assert len(h.levels) == 3
        reset_spmv_count()
        vcycle_apply(h, np.ones(A.nrows))
        assert spmv_count() == 2 * (2 * k + 2) + sweeps - 1

    def test_every_smoothing_is_one_smoother_apply_call(self, monkeypatch):
        # pre and post on each of two levels, plus the l1-Jacobi coarse solve
        calls = []

        def counting(*args):
            calls.append(args[0])
            return smoother_apply(*args)

        A, _ = poisson3d(8)
        h = build_hierarchy(A, min_coarse_size=10, max_levels=3)
        assert len(h.levels) == 3
        monkeypatch.setattr(amg, "smoother_apply", counting)
        vcycle_apply(h, np.ones(A.nrows))
        fine, mid = h.levels[0].smoother, h.levels[1].smoother
        assert calls == [fine, mid, h.coarse_smoother, mid, fine]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_equal_to_explicit_zero_guess_vcycle(self, family, rng):
        def reference(h, r, lvl=0):
            level = h.levels[lvl]
            if lvl == len(h.levels) - 1:
                return smoother_apply(h.coarse_smoother, level.A, level.M, r, np.zeros_like(r))
            x = smoother_apply(level.smoother, level.A, level.M, r, np.zeros_like(r))
            rc = spmv(level.R, r - spmv(level.A, x))
            x = x + spmv(level.P, reference(h, rc, lvl + 1))
            return smoother_apply(level.smoother, level.A, level.M, r, x)

        A, _ = poisson3d(8)
        h = build_hierarchy(
            A,
            smoother=PolySmootherConfig(family=family, degree=3),
            min_coarse_size=10,
            max_levels=3,
        )
        r = rng.standard_normal(A.nrows)
        assert np.array_equal(vcycle_apply(h, r), reference(h, r))


class TestTwoLevelConstants:
    def test_square_invertible_prolongator(self):
        A = tridiag(8)
        M = l1_jacobi_diag(A)
        P = CsrMatrix.identity(8)
        C, _, bound, actual = two_level_constants(
            A, P, M, PolySmootherConfig(family="l1_jacobi", degree=1)
        )
        assert C == pytest.approx(0.0, abs=1e-10)
        assert bound == pytest.approx(0.0, abs=1e-10)
        assert actual == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_plain_sweeps_bound_1d(self, k):
        A = tridiag(64)
        M = l1_jacobi_diag(A)
        P = linear_interp_1d(64)
        cfg = PolySmootherConfig(family="l1_jacobi", degree=k)
        C, gamma, bound, actual = two_level_constants(A, P, M, cfg)
        assert gamma == pytest.approx(1.0 / (2.0 * k))
        assert bound == pytest.approx(C / (C + 2.0 * k))
        assert actual <= bound + 1e-8

    def test_first_kind_bound_1d(self):
        A = tridiag(64)
        M = l1_jacobi_diag(A)
        P = linear_interp_1d(64)
        cfg = PolySmootherConfig(family="opt_cheb1", degree=2)
        C, gamma, bound, actual = two_level_constants(A, P, M, cfg)
        assert gamma == pytest.approx(0.112015284483472, rel=1e-4)
        assert actual <= C / (C + 1.0 / 0.112015284483472) + 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gamma_is_smoothing_constant(self, family):
        A = tridiag(16)
        cfg = PolySmootherConfig(family=family, degree=3)
        C, gamma, bound, _ = two_level_constants(A, linear_interp_1d(16), l1_jacobi_diag(A), cfg)
        assert gamma == smoothing_constant(cfg)
        assert bound == C / (C + 1.0 / gamma)

    def test_bound_ordering_matches_gamma_ordering(self):
        A = poisson2d_5pt(8)
        M = l1_jacobi_diag(A)
        P1 = linear_interp_1d(8).to_dense()
        P = CsrMatrix.from_dense(np.kron(P1, P1))
        bounds = {}
        for family in ("cheb4", "opt_cheb4", "opt_cheb1"):
            cfg = PolySmootherConfig(family=family, degree=3)
            bounds[family] = two_level_constants(A, P, M, cfg)[2]
        assert bounds["opt_cheb4"] <= bounds["opt_cheb1"] <= bounds["cheb4"]

