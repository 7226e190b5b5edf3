"""Benchmark CLI: reproducible experiments over the library building blocks.

Subcommands
-----------
optimize       CSV of per-degree smoother parameters and bounds
bounds         CSV comparing the three smoothing-constant series
solve          AMG-PCG run from a flat key=value config file, JSON report
spectrum-grid  iteration-count grid for polynomial-preconditioned CG
import         summarize a Matrix Market file

Every command is a pure function of its inputs and the shipped parameter
tables: outputs are byte-identical across runs.  Wall-clock metadata goes to
stderr, never into the report files.  Exit codes: 0 success, 2 config error,
3 solver breakdown, 4 ``solve`` stopped at ``itmax`` without converging (the
report is still written; ``spectrum-grid`` records convergence per cell).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from .amg import CoarseningConfig, as_vcycle_preconditioner, build_hierarchy
from .krylov import KrylovConfig, solve
from .optimize import params_csv_rows
from .problems import aniso2d_q1, poisson3d, spectral_synthetic
from .smoothers import PolySmootherConfig, as_preconditioner, l1_jacobi_diag
from .sparse import MAX_DENSE_N, read_matrix_market

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_NOT_CONVERGED = 4


class ConfigError(Exception):
    pass


def _fmt(v):
    """17-significant-digit float serialization (lossless round-trip)."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_rows(out, header, rows):
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])


@contextmanager
def _output(path):
    """The file at ``path``, or stdout for ``None`` or ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        try:
            out = open(path, "w")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        with out:
            yield out


# -- optimize / bounds -------------------------------------------------------

PARAMS_HEADER = [
    "k", "a_star", "lambda_k", "gamma_cheb4", "gamma_opt4",
    "a_lower", "a_upper", "lam_lower", "lam_upper",
]


def cmd_optimize(args):
    if not 0 <= args.kmax <= 30:
        raise ConfigError("kmax must lie in 0..30")
    rows = [[r[h] for h in PARAMS_HEADER] for r in params_csv_rows(args.kmax)]
    with _output(args.output) as out:
        _write_rows(out, PARAMS_HEADER, rows)
    return EXIT_OK


def cmd_bounds(args):
    if not 0 <= args.kmax <= 12:
        raise ConfigError("kmax must lie in 0..12")
    header = ["k", "gamma_cheb4", "lambda_1st", "gamma_opt4", "crossover"]
    rows = [
        [r["k"], r["gamma_cheb4"], r["lambda_k"], r["gamma_opt4"],
         int(r["lambda_k"] < r["gamma_cheb4"])]
        for r in params_csv_rows(args.kmax)
    ]
    with _output(args.output) as out:
        _write_rows(out, header, rows)
    return EXIT_OK


# -- solve -------------------------------------------------------------------

_SOLVE_DEFAULTS = {
    "problem": "poisson3d",
    "m": "8",
    "epsilon": "1.0",
    "angle": "0.0",
    "n": "64",
    "distribution": "equispaced",
    "coarsening": "smoothed_aggregation",
    "strength_theta": "0.01",
    "matching_sweeps": "3",
    "prolongator_smoothing": "true",
    "smoother": "opt_cheb1",
    "degree": "4",
    "variant": "pcg",
    "tol": "1e-7",
    "itmax": "1000",
    "coarse_solver": "l1_jacobi",
    "coarse_sweeps": "30",
    "min_coarse_size": "200",
    "max_levels": "10",
}


def parse_config(path, overrides):
    """Flat INI-style key=value config with # comments; overrides win."""
    cfg = dict(_SOLVE_DEFAULTS)
    seen = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, _, val = line.partition("=")
                    seen[key.strip()] = val.strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, val = item.partition("=")
        seen[key.strip()] = val.strip()
    for key, val in seen.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = val
    return cfg


def _to_bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def build_problem(cfg):
    kind = cfg["problem"]
    try:
        if kind == "poisson3d":
            return poisson3d(int(cfg["m"]))
        if kind == "aniso2d":
            return aniso2d_q1(int(cfg["m"]), float(cfg["epsilon"]), float(cfg["angle"]))
        if kind == "spectral":
            n = int(cfg["n"])
            if n > MAX_DENSE_N:
                raise ConfigError(f"spectral n must be <= {MAX_DENSE_N}, got {n}")
            return spectral_synthetic(n, cfg["distribution"])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad problem config: {exc}") from exc
    raise ConfigError(f"unknown problem kind {cfg['problem']!r}")


def run_solve(cfg):
    A, b = build_problem(cfg)
    try:
        smoother = PolySmootherConfig(family=cfg["smoother"], degree=int(cfg["degree"]))
        coarsening = CoarseningConfig(
            kind=cfg["coarsening"],
            strength_theta=float(cfg["strength_theta"]),
            matching_sweeps=int(cfg["matching_sweeps"]),
            prolongator_smoothing=_to_bool(cfg["prolongator_smoothing"]),
        )
        kcfg = KrylovConfig(
            variant=cfg["variant"], tol=float(cfg["tol"]), itmax=int(cfg["itmax"])
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["problem"] == "spectral":
        # dense synthetic operator: precondition with the smoother alone
        M = l1_jacobi_diag(A)
        precond = as_preconditioner(smoother, A, M)
        hierarchy = None
    else:
        try:
            hierarchy = build_hierarchy(
                A,
                coarsening=coarsening,
                smoother=smoother,
                max_levels=int(cfg["max_levels"]),
                min_coarse_size=int(cfg["min_coarse_size"]),
                coarse_solver=cfg["coarse_solver"],
                coarse_sweeps=int(cfg["coarse_sweeps"]),
            )
        except ValueError as exc:
            raise ConfigError(f"cannot build the AMG hierarchy: {exc}") from exc
        precond = as_vcycle_preconditioner(hierarchy)
    _, rep = solve(A, b, precond=precond, cfg=kcfg)
    report = {"config": cfg, "solve": dataclasses.asdict(rep)}
    if hierarchy is not None:
        report["hierarchy"] = hierarchy.summary()
    return report, rep


def cmd_solve(args):
    cfg = parse_config(args.config, args.override)
    t0 = time.perf_counter()
    report, rep = run_solve(cfg)
    elapsed = time.perf_counter() - t0
    with _output(args.output) as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    print(f"elapsed_s={elapsed:.3f}", file=sys.stderr)
    if rep.breakdown:
        return EXIT_BREAKDOWN
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


# -- spectrum-grid -----------------------------------------------------------

GRID_DISTRIBUTIONS = ("equispaced", "boundary", "gapped")


def cmd_spectrum_grid(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
        degrees = [int(s) for s in args.degrees.split(",")]
        cfg = KrylovConfig(variant="pcg", tol=args.tol, itmax=args.itmax, record_history=False)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if any(n < 2 or n % 2 or n > MAX_DENSE_N for n in sizes):
        raise ConfigError(f"sizes must be even, >= 2 and <= {MAX_DENSE_N}")
    if any(k < 1 for k in degrees):
        raise ConfigError("degrees must be >= 1")
    header = [
        "distribution", "n", "k",
        "iters_cheb1", "converged_cheb1", "iters_cheb4", "converged_cheb4", "diff",
    ]
    rows = []
    for dist in GRID_DISTRIBUTIONS:
        for n in sizes:
            A, b = spectral_synthetic(n, dist)
            M = l1_jacobi_diag(A)
            for k in degrees:
                row = [dist, n, k]
                for family in ("opt_cheb1", "cheb4"):
                    sm = PolySmootherConfig(family=family, degree=k)
                    _, rep = solve(A, b, precond=as_preconditioner(sm, A, M), cfg=cfg)
                    row += [rep.iterations, int(rep.converged)]
                rows.append(row + [row[3] - row[5]])  # iters_cheb1 - iters_cheb4
    with _output(args.output) as out:
        _write_rows(out, header, rows)
    return EXIT_OK


# -- import ------------------------------------------------------------------


def cmd_import(args):
    try:
        A = read_matrix_market(args.matrix)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix {args.matrix}: {exc}") from exc
    info = {
        "path": args.matrix,
        "nrows": A.nrows,
        "ncols": A.ncols,
        "nnz": A.nnz,
        "symmetric": bool(A.is_symmetric()),
    }
    d = A.diagonal() if A.nrows == A.ncols else np.array([])
    info["positive_diagonal"] = bool(len(d) and np.all(d > 0))
    json.dump(info, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def make_parser():
    p = argparse.ArgumentParser(prog="amgpoly", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("optimize", help="per-degree smoother parameter CSV")
    po.add_argument("--kmax", type=int, required=True)
    po.add_argument("--output", "-o", default=None)
    po.set_defaults(func=cmd_optimize)

    pb = sub.add_parser("bounds", help="smoothing-constant comparison CSV")
    pb.add_argument("--kmax", type=int, required=True)
    pb.add_argument("--output", "-o", default=None)
    pb.set_defaults(func=cmd_bounds)

    ps = sub.add_parser("solve", help="AMG-PCG run from a key=value config")
    ps.add_argument("--config", default=None)
    ps.add_argument("--override", action="append", metavar="KEY=VAL")
    ps.add_argument("--output", "-o", default=None)
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("spectrum-grid", help="iteration grid, smoother-only CG")
    pg.add_argument("--sizes", required=True, help="comma-separated even sizes >= 2")
    pg.add_argument("--degrees", required=True, help="comma-separated degrees")
    pg.add_argument("--tol", type=float, default=1e-5)
    pg.add_argument("--itmax", type=int, default=2000)
    pg.add_argument("--output", "-o", default=None)
    pg.set_defaults(func=cmd_spectrum_grid)

    pi = sub.add_parser("import", help="summarize a Matrix Market file")
    pi.add_argument("--matrix", required=True)
    pi.set_defaults(func=cmd_import)
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
