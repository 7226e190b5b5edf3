#!/usr/bin/env python3
"""Regenerate the shipped fourth-kind coefficient tables.

Writes src/amgpoly/data/beta_tables.csv (k = 1..12).  The test suite
re-solves a sample of degrees and compares against this file, so run this
after any change to the optimization code.
"""

import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from amgpoly.optimize import optimize_beta  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "amgpoly" / "data"


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    with open(DATA / "beta_tables.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "gamma_value", "beta"])
        for k in range(1, 13):
            bt = optimize_beta(k)
            w.writerow([k, f"{bt.gamma_value:.17g}", " ".join(f"{b:.17g}" for b in bt.beta)])
            print(f"beta table k={k}: gamma={bt.gamma_value:.12g}")
    print("wrote beta_tables.csv")


if __name__ == "__main__":
    main()
