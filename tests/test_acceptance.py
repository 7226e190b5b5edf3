"""End-to-end acceptance checks with pinned tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
reference values are the published per-degree constants the optimization and
bound machinery must reproduce.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from amgpoly.amg import as_vcycle_preconditioner, build_hierarchy
from amgpoly.cli import main as cli_main
from amgpoly.krylov import KrylovConfig, solve
from amgpoly.optimize import gamma_cheb4, lambda_of, optimize_beta, solve_a_star, theorem_bounds
from amgpoly.problems import aniso2d_q1, poisson3d
from amgpoly.smoothers import (
    FAMILIES,
    PolySmootherConfig,
    l1_jacobi_diag,
    smoother_apply,
)

from conftest import csr, linear_interp_1d, poisson2d_5pt, random_spd, to_dense, tridiag
from oracles import (
    coefficient_roots,
    smoother_error_oracle,
    smoothing_objective,
    two_level_constants,
)

A_STAR_REF = [
    0.3333333333333333, 0.1805359927403007, 0.1159278464862213,
    0.0820780659590383, 0.0618496002413377, 0.0486605823426062,
    0.0395132986024057, 0.0328701017544880,
]

LAMBDA_REF = [
    0.333333333333333, 0.112015284483472, 0.0583799108887474,
    0.0364585625794908, 0.0251807505038628, 0.0185523566224834,
    0.0142996943551221, 0.0113957022544334, 0.00931777395189635,
    0.00777582002921479, 0.00659772898163279, 0.00567585604215863,
    0.00493992741097829, 0.00434240512759291, 0.0038501517289458,
]

GAMMA_CHEB4_REF = [
    0.375, 0.125, 0.0625, 0.0375, 0.025,
    0.0178571428571429, 0.0133928571428571, 0.0104166666666667,
]

GAMMA_OPT4_REF = [
    0.333333333333333, 0.105572809000084, 0.052095083601687,
    0.0310912041257632, 0.020672197824105, 0.014743298009627,
    0.0110469002707826, 0.00858655133486778,
]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")
    assert ok, f"acceptance {num}: {name}{suffix}"


def test_01_optimal_parameter_table():
    t0 = time.perf_counter()
    errs = [abs(solve_a_star(k) - ref) for k, ref in enumerate(A_STAR_REF, 1)]
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-12 and elapsed < 1.0
    _report(1, "optimal-parameter table k=1..8",
            ok, f"max abs err {max(errs):.2e}, {elapsed:.2f}s")


def test_02_minimax_values():
    rel = [
        abs(lambda_of(k, solve_a_star(k)) - ref) / ref
        for k, ref in enumerate(LAMBDA_REF, 1)
    ]
    _report(2, "first-kind minimax values k=1..15",
            max(rel) <= 1e-9, f"max rel err {max(rel):.2e}")


def test_03_baseline_constant():
    ok = all(
        gamma_cheb4(k) == 3.0 / (4.0 * k * (k + 1))
        and abs(gamma_cheb4(k) - ref) <= 1e-15
        for k, ref in enumerate(GAMMA_CHEB4_REF, 1)
    )
    _report(3, "fourth-kind baseline constant", ok)


def test_04_optimized_fourth_kind():
    t0 = time.perf_counter()
    rel = [
        abs(optimize_beta(k).gamma_value - ref) / ref
        for k, ref in enumerate(GAMMA_OPT4_REF, 1)
    ]
    elapsed = time.perf_counter() - t0
    ok = max(rel) <= 0.02 and elapsed < 60.0
    _report(4, "optimized fourth-kind gammas k=1..8",
            ok, f"max rel err {max(rel):.2e}, {elapsed:.1f}s")


def test_05_theorem_sandwich():
    t0 = time.perf_counter()
    ok = True
    for k in range(3, 51):
        a_lo, a_hi, l_lo, l_hi = theorem_bounds(k)
        a = solve_a_star(k)
        lam = lambda_of(k, a)
        ok = ok and a_lo < a < a_hi and l_lo < lam < l_hi
    elapsed = time.perf_counter() - t0
    _report(5, "analytic sandwich bounds k=3..50",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_06_lemmas_and_interlacing():
    ok = True
    # weighted-error profile positive and decreasing left of the interval
    for k in range(1, 13):
        a_star = solve_a_star(k)
        for a in {a_star, 0.5 * a_star, min(2.0 * a_star, 0.999)}:
            grid = np.linspace(a / 2001.0, a, 2001)
            f = np.array([smoothing_objective(a, k, x) for x in grid])
            ok = ok and np.all(f > 0.0) and np.all(np.diff(f) <= 1e-12 * f[0])
    # binomial-ratio profile increasing on (0,1)
    for k in range(1, 13):
        pc = [math.comb(2 * k, 2 * j) for j in range(k + 1)]
        qc = [math.comb(2 * k, 2 * j + 1) for j in range(k)]
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        num = sum(c * grid**j for j, c in enumerate(pc))
        den = 2.0 * k * sum(c * grid**j for j, c in enumerate(qc))
        g = num / den
        ok = ok and np.all(np.diff(g) >= -1e-14)
    # closed-form root interlacing
    for k in range(2, 21):
        alpha, delta = coefficient_roots(k)
        ok = ok and alpha[0] < 0.0
        for j in range(k - 1):
            ok = ok and alpha[j] > delta[j] > alpha[j + 1]
    _report(6, "monotonicity lemmas and root interlacing", ok)


def test_07_smoother_oracle_equivalence():
    worst = 0.0
    cases = [random_spd(50, seed=42), poisson3d(5)[0]]
    for A in cases:
        M = l1_jacobi_diag(A)
        rng = np.random.default_rng(7)
        e0 = rng.standard_normal(A.nrows)
        for family in FAMILIES:
            for k in range(1, 9):
                cfg = PolySmootherConfig(family=family, degree=k)
                got = smoother_apply(cfg, A, M, np.zeros_like(e0), e0)
                want = smoother_error_oracle(A, M, cfg, e0)
                worst = max(
                    worst, np.linalg.norm(got - want) / np.linalg.norm(e0)
                )
    _report(7, "smoother-vs-oracle equivalence (4 families, k=1..8)",
            worst <= 1e-9, f"max rel err {worst:.2e}")


def test_08_two_level_bound():
    t0 = time.perf_counter()
    P1 = to_dense(linear_interp_1d(16))
    setups = [
        (tridiag(64), linear_interp_1d(64)),
        (poisson2d_5pt(16), csr(np.kron(P1, P1))),
    ]
    ok = True
    min_margin = math.inf
    for A, P in setups:
        for family in FAMILIES:
            for k in (1, 2, 4):
                cfg = PolySmootherConfig(family=family, degree=k)
                C, gamma, bound, actual = two_level_constants(A, P, cfg)
                if family == "l1_jacobi":
                    ok = ok and bound == pytest.approx(C / (C + 2.0 * k))
                ok = ok and actual <= bound + 1e-8
                min_margin = min(min_margin, bound - actual)
    elapsed = time.perf_counter() - t0
    _report(8, "two-level error bound (24 configurations)",
            ok and elapsed < 30.0,
            f"min margin {min_margin:+.4f}, {elapsed:.1f}s")


def _amg_iteration_counts(A, b, coarsening, configs):
    h = build_hierarchy(A, coarsening=coarsening, smoother=configs[0][1])
    counts = {}
    for label, smoother in configs:
        _, rep = solve(
            A, b,
            precond=as_vcycle_preconditioner(dataclasses.replace(h, smoother=smoother)),
            cfg=KrylovConfig(tol=1e-7, itmax=1000, record_history=False),
        )
        counts[label] = (rep.iterations, rep.converged)
    return counts


ORDERING_CONFIGS = [
    ("l1x4", PolySmootherConfig(family="l1_jacobi", degree=4)),
    ("cheb4_k4", PolySmootherConfig(family="cheb4", degree=4)),
    ("cheb4_k6", PolySmootherConfig(family="cheb4", degree=6)),
    ("opt4_k4", PolySmootherConfig(family="opt_cheb4", degree=4)),
    ("opt4_k6", PolySmootherConfig(family="opt_cheb4", degree=6)),
    ("opt1_k4", PolySmootherConfig(family="opt_cheb1", degree=4)),
    ("opt1_k6", PolySmootherConfig(family="opt_cheb1", degree=6)),
]


def test_09_iteration_count_ordering():
    match = "pairwise_matching"
    sa = "smoothed_aggregation"
    runs = [
        ("poisson3d m=12", *poisson3d(12), match),
        ("poisson3d m=16", *poisson3d(16), match),
        ("aniso2d m=128", *aniso2d_q1(128, 100.0, math.pi / 6.0), sa),
    ]
    ok = True
    details = []
    for label, A, b, coarsening in runs:
        counts = _amg_iteration_counts(A, b, coarsening, ORDERING_CONFIGS)
        ok = ok and all(conv for _, conv in counts.values())
        ok = ok and counts["opt1_k4"][0] <= counts["l1x4"][0]
        for fam in ("cheb4", "opt4", "opt1"):
            ok = ok and counts[f"{fam}_k6"][0] <= counts[f"{fam}_k4"][0]
        details.append(
            f"{label}: opt1_k4={counts['opt1_k4'][0]} l1x4={counts['l1x4'][0]}"
        )
    _report(9, "iteration-count ordering", ok, "; ".join(details))


def test_10_scalability_proxy():
    iters = {}
    for m in (8, 16):
        A, b = poisson3d(m)
        h = build_hierarchy(
            A,
            coarsening="pairwise_matching",
            smoother=PolySmootherConfig(family="opt_cheb1", degree=4),
        )
        _, rep = solve(
            A, b,
            precond=as_vcycle_preconditioner(h),
            cfg=KrylovConfig(tol=1e-7, itmax=1000, record_history=False),
        )
        assert rep.converged
        iters[m] = rep.iterations
    ok = iters[16] <= 1.5 * iters[8]
    _report(10, "iteration growth m=8 -> m=16",
            ok, f"{iters[8]} -> {iters[16]}")


def test_11_spectrum_grid(tmp_path):
    out = tmp_path / "grid.csv"
    code = cli_main([
        "spectrum-grid",
        "--sizes", "64,128,256",
        "--degrees", ",".join(str(k) for k in range(1, 9)),
        "--tol", "1e-5",
        "-o", str(out),
    ])
    rows = list(csv.DictReader(out.open()))
    ok = code == 0 and len(rows) == 3 * 3 * 8
    for r in rows:
        if r["distribution"] in ("equispaced", "boundary"):
            ok = ok and r["converged_cheb1"] == "1" and r["converged_cheb4"] == "1"
    diffs = [int(r["diff"]) for r in rows]
    ok = ok and any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
    _report(11, "spectrum-grid sign coexistence",
            ok, f"diff range [{min(diffs)}, {max(diffs)}]")


def test_12_kernel_determinism():
    # the smoother kernel every V-cycle runs, from an explicit x0, against
    # its recurrence written as plain expressions with temporaries
    A, _ = poisson3d(47)
    M = l1_jacobi_diag(A)
    rng = np.random.default_rng(2024)
    b, x0 = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
    total = 0
    ok = True
    for family in FAMILIES:
        for k in (1, 4, 7):
            cfg = PolySmootherConfig(family=family, degree=k)
            x, d, r = x0, np.zeros_like(b), b - A.matvec(x0)
            for j, (c, e, w) in enumerate(cfg.steps, 1):
                d = c * d + e * (r / M)
                x = x + w * d
                if j < k:
                    r = r - A.matvec(d)
            ok = ok and np.array_equal(smoother_apply(cfg, A, M, b, x0), x)
            total += len(x)
    _report(12, "smoother kernel bitwise determinism (1e6 entries)",
            ok and total >= 10**6, f"{total} entries, 4 families x degrees 1,4,7")
