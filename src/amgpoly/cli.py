"""Benchmark CLI: reproducible experiments over the library building blocks.

Subcommands
-----------
optimize       CSV of per-degree smoother parameters, bounds and crossover
solve          AMG-PCG run from a flat key=value config file, JSON report
spectrum-grid  iteration-count grid for polynomial-preconditioned CG

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
import math
import sys
import time
from contextlib import contextmanager

from .amg import COARSENINGS, as_vcycle_preconditioner, build_hierarchy
from .krylov import KrylovConfig, solve
from .optimize import params_csv_rows
from .problems import MAX_DENSE_N, aniso2d_q1, poisson3d, spectral_synthetic
from .smoothers import PolySmootherConfig, as_preconditioner, l1_jacobi_diag

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


# -- optimize ----------------------------------------------------------------

PARAMS_HEADER = [
    "k", "a_star", "lambda_k", "gamma_cheb4", "gamma_opt4",
    "a_lower", "a_upper", "lam_lower", "lam_upper", "crossover",
]


def cmd_optimize(args):
    if not 0 <= args.kmax <= 30:
        raise ConfigError("kmax must lie in 0..30")
    rows = [[r[h] for h in PARAMS_HEADER] for r in params_csv_rows(args.kmax)]
    with _output(args.output) as out:
        _write_rows(out, PARAMS_HEADER, rows)
    return EXIT_OK


# -- solve -------------------------------------------------------------------

def _finite(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s!r}")
    return v


def _finite_positive(s):
    v = float(s)
    if not 0.0 < v < math.inf:  # NaN fails the comparison too
        raise ValueError(f"must be finite and positive, got {s!r}")
    return v


# every key of the solve config: its default string and its parser
_SOLVE_KEYS = {
    "problem": ("poisson3d", str),
    "m": ("8", int),
    "epsilon": ("1.0", _finite_positive),
    "angle": ("0.0", _finite),
    "coarsening": ("smoothed_aggregation", str),
    "smoother": ("opt_cheb1", str),
    "degree": ("4", int),
    "tol": ("1e-7", float),
    "itmax": ("1000", int),
}


def parse_config(path, overrides):
    """Each key's raw string from a flat key=value config with # comments.

    A key may appear once in the file; overrides win over the file, and a
    later override over an earlier one.
    """
    seen = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, _, val = (s.strip() for s in line.partition("="))
                    if key in seen:
                        raise ConfigError(f"{path}:{lineno}: {key!r} is set twice")
                    seen[key] = val
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, val = item.partition("=")
        seen[key.strip()] = val.strip()
    for key in seen:
        if key not in _SOLVE_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return {key: default for key, (default, _) in _SOLVE_KEYS.items()} | seen


def _parsed(name, parse, text):
    """``parse(text)``, with a ValueError turned into a config error naming ``name``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_values(cfg):
    """Every key's value parsed, whether or not the problem reads it."""
    return {key: _parsed(key, parse, cfg[key]) for key, (_, parse) in _SOLVE_KEYS.items()}


def build_problem(values):
    kind = values["problem"]
    if kind == "poisson3d":
        return poisson3d(values["m"])
    if kind == "aniso2d":
        return aniso2d_q1(values["m"], values["epsilon"], values["angle"])
    raise ValueError(f"unknown problem kind {kind!r}")


def run_solve(cfg):
    v = parse_values(cfg)
    if v["coarsening"] not in COARSENINGS:
        raise ConfigError(f"unknown coarsening kind {v['coarsening']!r}")
    try:
        smoother = PolySmootherConfig(family=v["smoother"], degree=v["degree"])
        kcfg = KrylovConfig(tol=v["tol"], itmax=v["itmax"])
        A, b = build_problem(v)
        hierarchy = build_hierarchy(A, coarsening=v["coarsening"], smoother=smoother)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:  # a problem too large for this machine
        raise ConfigError(f"out of memory: {exc}") from exc
    summary = hierarchy.summary()
    precond = as_vcycle_preconditioner(hierarchy)
    del hierarchy  # frees the float64 levels the solve does not read
    _, rep = solve(A, b, precond=precond, cfg=kcfg)
    report = {"config": cfg, "solve": dataclasses.asdict(rep), "hierarchy": summary}
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
    sizes = [_parsed("sizes", int, s) for s in args.sizes.split(",")]
    degrees = [_parsed("degrees", int, s) for s in args.degrees.split(",")]
    try:
        cfg = KrylovConfig(tol=args.tol, itmax=args.itmax, record_history=False)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if any(n < 2 or n % 2 or n > MAX_DENSE_N for n in sizes):
        raise ConfigError(f"sizes must be even, >= 2 and <= {MAX_DENSE_N}")
    if any(k < 1 for k in degrees):
        raise ConfigError("degrees must be >= 1")
    if len(set(sizes)) < len(sizes) or len(set(degrees)) < len(degrees):
        raise ConfigError("sizes and degrees must not repeat")
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


# -- entry point -------------------------------------------------------------


def make_parser():
    p = argparse.ArgumentParser(prog="amgpoly", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("optimize", help="per-degree smoother parameter CSV")
    po.add_argument("--kmax", type=int, required=True)
    po.add_argument("--output", "-o", default=None)
    po.set_defaults(func=cmd_optimize)

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
