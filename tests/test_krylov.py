import math
import types

import numpy as np
import pytest

from amgpoly.amg import as_vcycle_preconditioner, build_hierarchy
from amgpoly.krylov import KrylovConfig, solve
from amgpoly.problems import poisson3d
from amgpoly.sparse import CsrMatrix, spmv_count

from conftest import csr, random_spd, to_dense, tridiag


class TestConfig:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            KrylovConfig(tol=0.0)
        with pytest.raises(ValueError):
            KrylovConfig(itmax=0)


class TestSolve:
    def test_identity_one_iteration(self):
        A = CsrMatrix.identity(5)
        b = np.arange(1.0, 6.0)
        x, rep = solve(A, b)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(x, b, atol=1e-12)

    def test_first_residual_is_the_scaled_b(self, monkeypatch):
        # r starts as b scaled into range, whose relative residual is exactly
        # 1.0: one norm for ||b||, then one per iteration, and the caller's
        # b is left as it was
        A = tridiag(30)
        b = np.linspace(-1.0, 3.0, 30) * 1e5
        b0 = b.copy()
        norm, norms = np.linalg.norm, []

        def counted(v):
            norms.append(len(v))
            return norm(v)

        monkeypatch.setattr(np.linalg, "norm", counted)
        _, rep = solve(A, b)
        assert rep.converged and rep.residual_history[0] == 1.0
        assert b.tobytes() == b0.tobytes()
        assert len(norms) == rep.iterations + 1

    def test_zero_rhs(self):
        x, rep = solve(tridiag(5), np.zeros(5))
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(x, np.zeros(5))

    def test_finite_termination(self):
        # with d distinct eigenvalues CG terminates in d steps; this version
        # of the finite-termination property survives rounding
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        vals = np.repeat([1.0, 2.0, 5.0], 10)
        A = csr(Q @ np.diag(vals) @ Q.T)
        _, rep = solve(A, np.ones(30), cfg=KrylovConfig(tol=1e-10, itmax=40))
        assert rep.converged
        assert rep.iterations <= 4

    def test_final_relres_below_tol(self):
        A = tridiag(40)
        b = np.ones(40)
        x, rep = solve(A, b, cfg=KrylovConfig(tol=1e-10, itmax=200))
        assert rep.converged
        assert np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b) <= 1e-10

    @pytest.mark.parametrize("itmax", [1, 3, 8])
    def test_itmax_reached_reported(self, itmax):
        # each iteration applies the preconditioner once, at its top, and A
        # once (x starts at 0, so r costs none): a solve that stops at itmax
        # applies neither after its last iteration
        calls = []

        def counting(r):
            calls.append(None)
            return r.copy()

        A = tridiag(200)
        cfg = KrylovConfig(tol=1e-14, itmax=itmax)
        _, rep = solve(A, np.ones(200), precond=counting, cfg=cfg)
        assert not rep.converged
        assert rep.iterations == itmax
        assert len(calls) == rep.precond_count == rep.spmv_count == rep.iterations

    @pytest.mark.parametrize("preconditioned", [True, False])
    def test_converged_solve_applies_no_extra_preconditioner(self, preconditioned):
        # convergence is tested before the preconditioner is applied, so a
        # converged solve has applied it, and A, once per iteration
        A, b = poisson3d(8)
        precond = as_vcycle_preconditioner(build_hierarchy(A)) if preconditioned else None
        calls = []

        def counting(r):
            calls.append(None)
            return precond(r)

        _, rep = solve(A, b, precond=counting if preconditioned else None)
        assert rep.converged and not rep.breakdown and rep.iterations > 0
        assert rep.precond_count == rep.spmv_count == rep.iterations
        assert len(calls) == (rep.iterations if preconditioned else 0)

    @pytest.mark.parametrize("matrix", ["tridiag", "random_spd", "poisson3d"])
    def test_preconditioner_may_return_r_itself(self, matrix):
        # the first direction is a copy of z: were it r itself, the residual
        # update would move it too
        A = {"tridiag": lambda: tridiag(40), "random_spd": lambda: random_spd(25, seed=3),
             "poisson3d": lambda: poisson3d(6)[0]}[matrix]()
        b = np.linspace(1.0, 2.0, A.nrows)
        x, rep = solve(A, b, precond=lambda r: r)
        x0, rep0 = solve(A, b)
        assert rep.converged and rep.iterations > 1
        assert x.tobytes() == x0.tobytes()
        assert rep == rep0

    def test_breakdown_on_indefinite(self):
        A = csr(np.diag([1.0, -1.0]))
        _, rep = solve(A, np.array([1.0, 1.0]), cfg=KrylovConfig(tol=1e-12))
        assert rep.breakdown
        assert not rep.converged

    def test_nan_preconditioner_is_breakdown(self):
        nan_precond = lambda r: np.full_like(r, np.nan)
        cfg = KrylovConfig(itmax=50)
        _, rep = solve(tridiag(10), np.ones(10), precond=nan_precond, cfg=cfg)
        assert rep.breakdown
        assert not rep.converged
        assert rep.iterations == 0

    @pytest.mark.parametrize("flip", ["alternating", "all"])
    def test_preconditioner_with_r_z_not_positive_is_breakdown(self, flip):
        # z_i = (-1)^i r_i makes r'z = 0 exactly on b = ones, z = -r makes it
        # negative: neither preconditioner is SPD
        A, _ = poisson3d(8)
        n = A.nrows
        sign = -np.ones(n) if flip == "all" else np.where(np.arange(n) % 2, -1.0, 1.0)
        _, rep = solve(A, np.ones(n), precond=lambda r: sign * r)
        assert rep.breakdown
        assert not rep.converged
        assert rep.iterations == rep.spmv_count == 0 and rep.precond_count == 1

    def test_overflowing_residual_is_breakdown(self):
        # alpha = 1e10 from the tiny first entry overflows the second residual entry
        A = types.SimpleNamespace(matvec=lambda x: np.array([1e-10 * x[0], 1e300 * x[0]]))
        precond = lambda r: np.array([r[0], 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            _, rep = solve(A, np.ones(2), precond=precond)
        assert rep.breakdown
        assert not rep.converged
        assert rep.iterations == rep.spmv_count == rep.precond_count == 1
        assert rep.final_relres == math.inf

    def test_infinite_preconditioner_after_one_iteration_is_breakdown(self):
        calls = []

        def precond(r):
            calls.append(None)
            return r.copy() if len(calls) == 1 else np.full_like(r, np.inf)

        with np.errstate(invalid="ignore"):
            _, rep = solve(tridiag(10), np.ones(10), precond=precond)
        assert rep.breakdown
        assert not rep.converged
        assert rep.iterations == rep.spmv_count == 1

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_breakdown_keeps_the_last_iterate(self, bad, k):
        # a preconditioner that turns non-finite on its (k+1)-th call ends the
        # solve at the top of iteration k: x and the history are those of a
        # solve stopped at itmax = k, and A was applied k times
        calls = []

        def precond(r):
            calls.append(None)
            return r.copy() if len(calls) <= k else np.full_like(r, bad)

        A = tridiag(50)
        b = np.ones(50)
        with np.errstate(invalid="ignore"):
            x, rep = solve(A, b, precond=precond)
        assert rep.breakdown and not rep.converged
        assert rep.iterations == rep.spmv_count == k and rep.precond_count == k + 1
        if k == 0:
            assert not x.any() and rep.residual_history == [1.0]
        else:
            xk, repk = solve(A, b, cfg=KrylovConfig(itmax=k))
            assert not repk.converged
            assert x.tobytes() == xk.tobytes()
            assert rep.residual_history == repk.residual_history

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rhs_ends_before_any_work(self, bad):
        A, b = poisson3d(8)
        precond = as_vcycle_preconditioner(build_hierarchy(A))
        calls = []

        def counting(r):
            calls.append(None)
            return precond(r)

        b = b.copy()
        b[3] = bad
        before = spmv_count()
        x, rep = solve(A, b, precond=counting)
        assert rep.breakdown and not rep.converged
        assert rep.iterations == rep.spmv_count == rep.precond_count == 0
        assert calls == [] and spmv_count() == before
        assert math.isnan(rep.final_relres) and rep.residual_history == []
        assert not x.any()

    def test_a_norm_error_monotone(self):
        A = random_spd(25, seed=6)
        Ad = to_dense(A)
        b = np.ones(25)
        x_star = np.linalg.solve(Ad, b)
        errs = []
        for it in range(1, 12):
            x, _ = solve(A, b, cfg=KrylovConfig(tol=1e-16, itmax=it))
            e = x - x_star
            errs.append(e @ Ad @ e)
        assert all(e2 <= e1 + 1e-13 for e1, e2 in zip(errs, errs[1:]))

    def test_history_recorded(self):
        A = tridiag(30)
        _, rep = solve(A, np.ones(30), cfg=KrylovConfig(record_history=True))
        assert len(rep.residual_history) == rep.iterations + 1
        _, rep = solve(A, np.ones(30), cfg=KrylovConfig(record_history=False))
        assert rep.residual_history == []


class TestRightHandSideScaling:
    """``solve`` runs on b scaled by 2^-p into [1/2, 1) and scales x back."""

    @pytest.fixture(scope="class")
    def amg_problem(self):
        A, b = poisson3d(8)
        return A, b, as_vcycle_preconditioner(build_hierarchy(A))

    @pytest.mark.parametrize("preconditioned", [True, False])
    @pytest.mark.parametrize("e", [-1000, 1000])
    def test_power_of_two_scaling_keeps_every_bit(self, amg_problem, preconditioned, e):
        # b b under- or overflows at 2^-1000 and 2^1000: unscaled, the solve
        # stops at iteration 0
        A, b, precond = amg_problem
        precond = precond if preconditioned else None
        x, rep = solve(A, b, precond=precond)
        xs, reps = solve(A, np.ldexp(b, e), precond=precond)
        assert rep.converged and reps.converged
        assert reps.iterations == rep.iterations
        assert reps.residual_history == rep.residual_history
        assert np.array_equal(xs, np.ldexp(x, e))

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    def test_extreme_right_hand_sides_converge(self, amg_problem, factor):
        A, b, precond = amg_problem
        b = b * factor
        x, rep = solve(A, b, precond=precond)
        assert rep.converged and not rep.breakdown and rep.iterations > 0
        # the true residual, with both vectors divided by max|b| to keep the norms in range
        s = np.max(np.abs(b))
        relres = np.linalg.norm((b - A.matvec(x)) / s) / np.linalg.norm(b / s)
        assert relres <= KrylovConfig().tol
