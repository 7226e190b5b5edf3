"""The four benchmark workloads, their correctness checks and their spans.

Each workload runs one *set* at a time: the whole call a user makes
(``cli.run_solve``, ``cli.main(["spectrum-grid", ...])`` or
``optimize.optimize_beta`` for every k), followed by the checks on what it
returned.  Every set wraps the few phase calls that split ``wall_s`` into
``setup_s`` and ``solve_s`` (one timer per phase call, a few microseconds in
all).  A traced set also wraps the public functions of every layer; its
times feed only the per-layer metrics.

Right-hand sides: seed 0 keeps each generator's own right-hand side, as
``amgpoly solve`` does.  Any other seed draws an exact solution x* from
``numpy.random.default_rng`` and uses b = A x* on the same operator.  A
right-hand side drawn directly as white noise makes the PCG count on
poisson3d m=48 flip between 6 and 7 from seed to seed, and it leaves the
ill-conditioned boundary cells of the spectrum grid short of the tolerance
within itmax; b = A x* is how ``spectral_synthetic`` builds its own b (with
x* = 1).  ``optimize-beta`` has no random input and ignores the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.optimize

from amgpoly import amg, cli, optimize, problems, smoothers, sparse

from spans import Tracer

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Levels of the AMG workloads' hierarchies (expected.json); per-level
# metrics are reported for L0..L4 on every workload, 0 where a level is absent.
LEVELS = 5
AMG_SETUP_FNS = (
    "matching_aggregate", "sa_aggregate", "estimate_lambda_max",
    "smooth_prolongator", "galerkin_rap",
)
BETA_KS = (4, 8, 12)


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass
class SetResult:
    """What one set measured and what its checks found."""

    wall_s: float
    setup_s: float
    solve_s: float
    iterations: int
    digest: str
    work_units: float | None = None  # exact; traced sets only
    layers: dict | None = None  # per-layer metrics; traced sets only
    peak_rss_mb: float | None = None  # warm-up set only
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def operation(self, what, failures):
        """Count one operation; it fails if any of its checks failed."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(failures)}")


def _kw(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else args[pos]


def solve_failures(A_dense_matvec, b, x, rep, tol, must_converge=True):
    """Checks on one PCG solve; the residual is recomputed from the returned x."""
    out = []
    if rep.breakdown:
        out.append("breakdown reported")
    if must_converge and not rep.converged:
        out.append(f"not converged in {rep.iterations} iterations")
    if rep.converged or must_converge:
        relres = np.linalg.norm(b - A_dense_matvec(x)) / np.linalg.norm(b)
        if not relres <= tol:  # also false for NaN
            out.append(f"true residual {relres:.3e} > tol {tol:g}")
    return out


class SpmvAccounting:
    """Counts every SpMV by level and nnz, from outside the library.

    ``sparse.spmv`` is wrapped under each name it is looked up by:
    ``amgpoly.sparse.spmv`` (reached by ``CsrMatrix.matvec``, hence by the
    Krylov and smoother kernels) and ``amgpoly.amg.spmv`` (V-cycle residual
    and transfers, lambda_max power iteration).  During the solve a matrix's
    level is read off its shape: A_i is n_i x n_i, P_i is n_i x n_(i+1) and
    its transpose n_(i+1) x n_i, all distinct because the sizes decrease.
    SpMVs outside the solve are counted as setup.
    """

    def __init__(self, tr):
        self.tr = tr
        self.level_of_shape = {}

    def set_hierarchy(self, h):
        sizes = [lvl.A.nrows for lvl in h.levels]
        self.level_of_shape = {}
        for i, n in enumerate(sizes):
            self.level_of_shape[(n, n)] = i
            if i + 1 < len(sizes):
                self.level_of_shape[(n, sizes[i + 1])] = i
                self.level_of_shape[(sizes[i + 1], n)] = i

    def on_spmv(self, args, kwargs, y):
        A = args[0]
        if self.tr.phase == "solve":
            lvl = self.level_of_shape.get((A.nrows, A.ncols))
            where = "unattributed" if lvl is None else f"L{lvl}"
            self.tr.count("spmv.solve_nnz", A.nnz)
        else:
            where = "setup"
        sp = A.to_scipy()
        self.tr.count(f"spmv.calls.{where}")
        self.tr.count("spmv.nnz", A.nnz)
        self.tr.count(
            "spmv.bytes",
            sp.data.nbytes + sp.indices.nbytes + sp.indptr.nbytes + 8 * (A.nrows + A.ncols),
        )

    def install(self):
        for mod in (sparse, amg):
            self.tr.wrap(mod, "spmv", "sparse.spmv", after=self.on_spmv)

    def check(self, spmv_count_before):
        """A call site the wrappers miss shows as a gap against the library's own counter."""
        out = []
        seen = self.tr.calls["sparse.spmv"]
        actual = sparse.spmv_count() - spmv_count_before
        if seen != actual:
            out.append(f"wrapped {seen} SpMVs but sparse.spmv_count() moved by {actual}")
        if self.tr.counts["spmv.calls.unattributed"]:
            out.append("solve SpMV on a matrix of no hierarchy level")
        return out


def install_layer_spans(tr, accounting):
    """Wrap the public functions of every layer, at each name they are looked up by."""
    for fn in AMG_SETUP_FNS:
        tr.wrap(amg, fn, f"amg.{fn}")
    tr.wrap(amg, "l1_jacobi_diag", "smoothers.l1_jacobi_diag")
    tr.wrap(
        amg, "vcycle_apply",
        lambda a, k: f"amg.vcycle.L{a[2] if len(a) > 2 else k.get('_level', 0)}",
    )
    tr.wrap(amg, "smoother_apply", "smoothers.apply")
    tr.wrap(smoothers, "smoother_apply", "smoothers.apply")
    accounting.install()

    def on_matvec(args, kwargs, y):
        if tr.phase == "solve":
            tr.count("spectral.solve_matvecs")

    tr.wrap(problems.SpectralOperator, "matvec", "problems.spectral_matvec", after=on_matvec)


def layer_metrics(tr, wall_s, hierarchy=None, reps=(), workers=0):
    """Every per-layer metric of a traced set; 0 for layers the workload never enters."""
    m = {f"amg.{fn}_s": tr.total_s[f"amg.{fn}"] for fn in AMG_SETUP_FNS}
    m["smoothers.l1_jacobi_diag_s"] = tr.total_s["smoothers.l1_jacobi_diag"]
    sizes = [lvl["size"] for lvl in hierarchy["levels"]] if hierarchy else []
    m["amg.levels"] = len(sizes)
    m["amg.operator_complexity"] = hierarchy["operator_complexity"] if hierarchy else 0.0
    m["amg.grid_complexity"] = sum(sizes) / sizes[0] if sizes else 0.0
    m["amg.coarse_rows"] = sizes[-1] if sizes else 0
    for i in range(LEVELS):
        m[f"amg.vcycle.L{i}.self_s"] = tr.self_s[f"amg.vcycle.L{i}"]
    m["amg.vcycle_calls"] = tr.calls["amg.vcycle.L0"]
    m["amg.coarse_solve_s"] = tr.total_s[f"amg.vcycle.L{len(sizes) - 1}"] if sizes else 0.0
    m["smoothers.apply_s"] = tr.total_s["smoothers.apply"]
    m["smoothers.apply_calls"] = tr.calls["smoothers.apply"]
    m["smoothers.self_s"] = tr.self_s["smoothers.apply"]
    m["sparse.spmv_calls"] = tr.calls["sparse.spmv"]
    m["sparse.spmv_calls.setup"] = tr.counts["spmv.calls.setup"]
    for i in range(LEVELS):
        m[f"sparse.spmv_calls.L{i}"] = tr.counts[f"spmv.calls.L{i}"]
    m["sparse.spmv_nnz"] = tr.counts["spmv.nnz"]
    spmv_s = tr.total_s["sparse.spmv"]
    m["sparse.spmv_s"] = spmv_s
    m["sparse.spmv_gbps_computed"] = tr.counts["spmv.bytes"] / spmv_s / 1e9 if spmv_s else 0.0
    m["krylov.self_s"] = tr.self_s["krylov.solve"]
    m["krylov.precond_calls"] = sum(r.precond_count for r in reps)
    m["krylov.report_spmv_count"] = sum(r.spmv_count for r in reps)
    m["problems.generate_s"] = tr.total_s["problems.generate"]
    m["problems.spectral_matvec_s"] = tr.total_s["problems.spectral_matvec"]
    m["problems.spectral_matvec_calls"] = tr.calls["problems.spectral_matvec"]
    m["cli.pool_busy_ratio"] = tr.root_s / (wall_s * workers) if workers else 0.0
    for k in BETA_KS:
        m[f"optimize.beta_s.k{k}"] = tr.total_s[f"optimize.beta.k{k}"]
    m["optimize.linprog_calls"] = tr.calls["optimize.linprog"]
    m["optimize.linprog_s"] = tr.total_s["optimize.linprog"]
    m["optimize.self_s"] = sum(v for n, v in tr.self_s.items() if n.startswith("optimize.beta.k"))
    return m


# -- AMG-PCG through cli.run_solve ------------------------------------------


class AmgSolve:
    """``cli.run_solve`` on one config: generation + hierarchy setup + PCG."""

    def __init__(self, name, overrides, seed, smoke):
        self.seed = seed
        self.cfg = cli.parse_config(None, overrides)
        self.expected = EXPECTED["hierarchy"][name]["smoke" if smoke else "full"]
        self._rhs = None

    def describe(self):
        return {"config": self.cfg}

    def _seeded(self, build_problem):
        def build(cfg):
            A, b = build_problem(cfg)
            if self.seed:
                if self._rhs is None:
                    x_star = np.random.default_rng(self.seed).standard_normal(A.nrows)
                    self._rhs = A.to_scipy() @ x_star
                b = self._rhs
            return A, b

        return build

    def run_set(self, traced):
        tr = Tracer()
        accounting = SpmvAccounting(tr)
        cap = {}

        def on_hierarchy(args, kwargs, h):
            accounting.set_hierarchy(h)

        def on_solve(args, kwargs, result):
            cap.update(A=args[0], b=args[1], x=result[0], tol=_kw(args, kwargs, "cfg", 3).tol)

        for gen in ("poisson3d", "aniso2d_q1"):
            tr.wrap(cli, gen, "problems.generate")
        tr.patch(cli, "build_problem", self._seeded)
        tr.wrap(cli, "build_hierarchy", "amg.build_hierarchy", phase="setup", after=on_hierarchy)
        tr.wrap(cli, "solve", "krylov.solve", phase="solve", after=on_solve)
        if traced:
            install_layer_spans(tr, accounting)
        spmv0 = sparse.spmv_count()
        t0 = perf_counter()
        try:
            report, rep = cli.run_solve(self.cfg)
        finally:
            wall = perf_counter() - t0
            tr.close()

        res = SetResult(
            wall_s=wall,
            setup_s=tr.total_s["amg.build_hierarchy"],
            solve_s=tr.total_s["krylov.solve"],
            iterations=rep.iterations,
            digest=hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
        )
        A = cap["A"].to_scipy()
        failures = solve_failures(A.dot, cap["b"], cap["x"], rep, cap["tol"])
        levels = report["hierarchy"]["levels"]
        shape = {key: [lvl[key] for lvl in levels] for key in self.expected}
        if shape != self.expected:
            failures.append(f"hierarchy {shape} differs from expected.json {self.expected}")
        if traced:
            failures += accounting.check(spmv0)
            res.work_units = tr.counts["spmv.solve_nnz"] / cap["A"].nnz
            res.layers = layer_metrics(tr, wall, report["hierarchy"], [rep])
        res.operation("solve", failures)
        return res

    def extra_sets(self):
        return []


# -- spectrum-grid through cli.main ------------------------------------------


class SpectrumGrid:
    """``amgpoly spectrum-grid``: smoother-only PCG over a grid of dense spectra."""

    def __init__(self, seed, sizes, degrees, tol):
        self.seed = seed
        self.workers = nproc()
        self.argv = [
            "spectrum-grid",
            "--sizes", ",".join(map(str, sizes)),
            "--degrees", ",".join(map(str, degrees)),
            "--tol", repr(tol),
        ]
        self.cells = {
            (dist, n, k, family)
            for dist in cli.GRID_DISTRIBUTIONS
            for n in sizes
            for k in degrees
            for family in ("opt_cheb1", "cheb4")
        }

    def describe(self):
        return {"argv": self.argv, "AMGPOLY_THREADS": self.workers}

    def _seeded(self, spectral_synthetic):
        def generate(n, distribution):
            op, b = spectral_synthetic(n, distribution)
            if self.seed:
                dist_index = cli.GRID_DISTRIBUTIONS.index(distribution)
                x_star = np.random.default_rng([self.seed, n, dist_index]).standard_normal(n)
                b = op.to_dense() @ x_star
            return op, b

        return generate

    def run_set(self, traced, workers=None):
        workers = workers or self.workers
        tr = Tracer()
        operators, preconds, solves = {}, {}, []

        def on_generate(args, kwargs, result):
            operators[id(result[0])] = (result[0], args[1], args[0])

        def tagged(as_preconditioner):
            def make(config, A, M):
                apply = as_preconditioner(config, A, M)
                preconds[id(apply)] = (apply, config.family, config.degree)
                return apply

            return make

        def on_solve(args, kwargs, result):
            solves.append((args[0], args[1], _kw(args, kwargs, "precond", 2),
                           _kw(args, kwargs, "cfg", 3).tol) + result)

        tr.wrap(cli, "spectral_synthetic", "problems.generate", phase="setup", after=on_generate)
        tr.patch(cli, "spectral_synthetic", self._seeded)
        tr.wrap(cli, "l1_jacobi_diag", "smoothers.l1_jacobi_diag", phase="setup")
        tr.patch(cli, "as_preconditioner", tagged)
        tr.wrap(cli, "solve", "krylov.solve", phase="solve", after=on_solve)
        if traced:
            install_layer_spans(tr, SpmvAccounting(tr))
        out = io.StringIO()
        saved_threads = os.environ.get("AMGPOLY_THREADS")
        os.environ["AMGPOLY_THREADS"] = str(workers)
        t0 = perf_counter()
        try:
            with redirect_stdout(out):
                code = cli.main(self.argv)
        finally:
            wall = perf_counter() - t0
            tr.close()
            if saved_threads is None:
                del os.environ["AMGPOLY_THREADS"]
            else:
                os.environ["AMGPOLY_THREADS"] = saved_threads

        text = out.getvalue()
        res = SetResult(
            wall_s=wall,
            setup_s=tr.total_s["problems.generate"] + tr.total_s["smoothers.l1_jacobi_diag"],
            solve_s=tr.total_s["krylov.solve"],
            iterations=sum(s[5].iterations for s in solves),
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )
        by_cell = {}
        for A, b, precond, tol, x, rep in solves:
            op, dist, n = operators[id(A)]
            _, family, k = preconds[id(precond)]
            cell = (dist, n, k, family)
            failures = solve_failures(
                op.to_dense().dot, b, x, rep, tol,
                must_converge=dist in ("equispaced", "boundary"),
            )
            if cell in by_cell:
                failures.append("solved twice")
            by_cell[cell] = rep
            res.operation(f"{dist} n={n} k={k} {family}", failures)
        grid = []
        if code != 0:
            grid.append(f"exit code {code}")
        if set(by_cell) != self.cells:
            grid.append(f"solved {len(by_cell)} distinct cells, expected {len(self.cells)}")
        for row in csv.DictReader(io.StringIO(text)):
            key = (row["distribution"], int(row["n"]), int(row["k"]))
            r1, r4 = by_cell.get(key + ("opt_cheb1",)), by_cell.get(key + ("cheb4",))
            if r1 is None or r4 is None or [
                row["iters_cheb1"], row["converged_cheb1"], row["iters_cheb4"],
                row["converged_cheb4"], row["diff"],
            ] != [str(r1.iterations), str(int(r1.converged)), str(r4.iterations),
                  str(int(r4.converged)), str(r1.iterations - r4.iterations)]:
                grid.append(f"CSV row {key} disagrees with the solves it reports")
        res.operation("grid CSV", grid)
        if traced:
            res.work_units = tr.counts["spectral.solve_matvecs"]
            res.layers = layer_metrics(tr, wall, reps=[s[5] for s in solves], workers=workers)
        return res

    def extra_sets(self):
        """The CSV must not depend on the thread count: one set on a single thread."""
        return [self.run_set(traced=False, workers=1)] if self.workers > 1 else []


# -- optimize_beta -------------------------------------------------------------


class OptimizeBeta:
    """The offline LP-bisection fit of the optimized fourth-kind tables."""

    def __init__(self, ks):
        self.ks = ks

    def describe(self):
        return {"k": list(self.ks), "seed": "ignored: optimize_beta has no random input"}

    def run_set(self, traced):
        tr = Tracer()
        widths = []

        def on_linprog(args, kwargs, result):
            widths.append(kwargs["A_ub"].shape[1])

        tr.wrap(scipy.optimize, "linprog", "optimize.linprog", after=on_linprog)
        tr.wrap(optimize, "optimize_beta", lambda a, k: f"optimize.beta.k{a[0]}")
        t0 = perf_counter()
        try:
            tables = [optimize.optimize_beta(k) for k in self.ks]
        finally:
            wall = perf_counter() - t0
            tr.close()

        lp_s = tr.total_s["optimize.linprog"]
        digest = hashlib.sha256()
        for t in tables:
            digest.update(t.beta.tobytes() + np.float64(t.gamma_value).tobytes())
        res = SetResult(
            wall_s=wall,
            setup_s=wall - lp_s,
            solve_s=lp_s,
            iterations=tr.calls["optimize.linprog"],
            digest=digest.hexdigest(),
            # LP solves weighted by their width (k + 1 variables each)
            work_units=float(sum(widths)),
        )
        shipped = optimize.load_beta_tables()
        for k, t in zip(self.ks, tables):
            ref = shipped[k]
            same = np.array_equal(t.beta, ref.beta) and t.gamma_value == ref.gamma_value
            res.operation(f"optimize_beta({k})", [] if same else ["differs from beta_tables.csv"])
        if traced:
            res.layers = layer_metrics(tr, wall)
        return res

    def extra_sets(self):
        return []


ANISO = ["problem=aniso2d", "epsilon=100", f"angle={math.pi / 6!r}",
         "coarsening=smoothed_aggregation"]
POISSON = ["problem=poisson3d", "coarsening=pairwise_matching"]
COMMON = ["smoother=opt_cheb1", "degree=4", "tol=1e-7"]


def make(name, seed, smoke=False):
    """The workload called ``name``; ``smoke`` shrinks it to run in seconds."""
    if name == "poisson3d-m48-match":
        m = 12 if smoke else 48
        return AmgSolve(name, POISSON + COMMON + [f"m={m}"], seed, smoke)
    if name == "aniso2d-m256-sa":
        m = 32 if smoke else 256
        return AmgSolve(name, ANISO + COMMON + [f"m={m}"], seed, smoke)
    if name == "spectrum-grid":
        if smoke:
            return SpectrumGrid(seed, (16, 32), (1, 2, 3), 1e-5)
        return SpectrumGrid(seed, (64, 128, 256), tuple(range(1, 9)), 1e-5)
    if name == "optimize-beta":
        return OptimizeBeta((4,) if smoke else BETA_KS)
    raise KeyError(name)
