#!/usr/bin/env python3
"""Run the benchmark experiment suite and collect CSV/JSON outputs.

Produces, under --outdir (default ./results):
  params.csv         per-degree optimal parameters, analytic bounds and crossover
  spectrum_grid.csv  smoother-only PCG iteration grid over synthetic spectra
  solves.csv         AMG-PCG iteration counts across problems and smoothers

Everything is deterministic; re-running overwrites byte-identical files.
The script stops at the first command that fails and exits with its code.
"""

import argparse
import csv
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from amgpoly.cli import main as cli_main  # noqa: E402
from amgpoly.cli import run_solve, parse_config  # noqa: E402


SOLVE_MATRIX = [
    ("poisson3d-m16-match", ["problem=poisson3d", "m=16", "coarsening=pairwise_matching"]),
    ("poisson3d-m16-sa", ["problem=poisson3d", "m=16", "coarsening=smoothed_aggregation"]),
    ("aniso2d-m64-sa", [
        "problem=aniso2d", "m=64", "epsilon=100", f"angle={math.pi / 6}",
        "coarsening=smoothed_aggregation",
    ]),
]

SMOOTHERS = [
    ("l1_jacobi", 4),
    ("cheb4", 4),
    ("opt_cheb4", 4),
    ("opt_cheb1", 4),
    ("cheb4", 6),
    ("opt_cheb4", 6),
    ("opt_cheb1", 6),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, argv in [
        ("params.csv", ["optimize", "--kmax", "20"]),
        ("spectrum_grid.csv", [
            "spectrum-grid",
            "--sizes", "64,128,256",
            "--degrees", "1,2,3,4,5,6,7,8",
            "--tol", "1e-5",
        ]),
    ]:
        code = cli_main(argv + ["-o", str(outdir / name)])
        if code:
            return code  # cli_main has printed the error
        print(f"wrote {name}")

    with open(outdir / "solves.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["case", "smoother", "degree", "iterations", "converged",
                    "operator_complexity", "levels"])
        for case, overrides in SOLVE_MATRIX:
            for family, degree in SMOOTHERS:
                cfg = parse_config(None, overrides + [
                    f"smoother={family}", f"degree={degree}",
                ])
                report, _ = run_solve(cfg)
                hier = report["hierarchy"]
                w.writerow([
                    case, family, degree,
                    report["solve"]["iterations"],
                    int(report["solve"]["converged"]),
                    f"{hier['operator_complexity']:.4f}",
                    len(hier["levels"]),
                ])
                print(f"{case} {family} k={degree}: "
                      f"{report['solve']['iterations']} iterations")
    print("wrote solves.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
