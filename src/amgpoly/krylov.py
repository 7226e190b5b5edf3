"""Preconditioned conjugate gradient solvers (classical PCG and flexible FCG).

The stopping test uses the relative residual ||b - A x|| / ||b||, the only
computable proxy for the error tolerance quoted with the benchmark runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class KrylovConfig:
    variant: str = "pcg"  # pcg | fcg
    tol: float = 1e-7
    itmax: int = 1000
    record_history: bool = True

    def __post_init__(self):
        if self.variant not in ("pcg", "fcg"):
            raise ValueError(f"unknown Krylov variant {self.variant!r}")
        if not 0.0 < self.tol < math.inf or self.itmax < 1:  # NaN fails too
            raise ValueError("tol must be finite and positive and itmax >= 1")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    final_relres: float
    residual_history: list = field(default_factory=list)
    spmv_count: int = 0
    precond_count: int = 0
    breakdown: bool = False


def solve(A, b, precond=None, cfg=None, x0=None):
    """Solve SPD A x = b; returns (x, SolveReport).

    ``precond`` is a callable r -> z applying a fixed SPD preconditioner (or
    None for plain CG).  The flexible variant re-orthogonalizes each new
    direction against the previous one only, which tolerates mildly variable
    preconditioning; with a fixed preconditioner both variants coincide up
    to roundoff.  A curvature d'Ad that is not finite and positive, or a
    non-finite residual norm or r'z, ends the solve with ``breakdown`` set.
    """
    cfg = cfg or KrylovConfig()
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    spmv = 0
    pc = 0
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x * 0.0, SolveReport(0, True, 0.0, [], 0, 0)

    r = b - A.matvec(x)
    spmv += 1
    history = []
    relres = np.linalg.norm(r) / bnorm
    if cfg.record_history:
        history.append(relres)

    def report(it, converged, breakdown=False):
        return SolveReport(
            iterations=it,
            converged=converged,
            final_relres=relres,
            residual_history=history,
            spmv_count=spmv,
            precond_count=pc,
            breakdown=breakdown,
        )

    if relres <= cfg.tol:
        return x, report(0, True)

    apply_prec = precond if precond is not None else (lambda v: v.copy())
    z = apply_prec(r)
    pc += 1
    d = z.copy()
    rz = float(r @ z)

    for it in range(1, cfg.itmax + 1):
        Ad = A.matvec(d)
        spmv += 1
        dAd = float(d @ Ad)
        if not 0.0 < dAd < math.inf:  # NaN fails the comparison too
            return x, report(it - 1, False, breakdown=True)
        alpha = rz / dAd if cfg.variant == "pcg" else float(r @ d) / dAd
        x += alpha * d
        r -= alpha * Ad
        relres = np.linalg.norm(r) / bnorm
        if cfg.record_history:
            history.append(relres)
        if relres <= cfg.tol:
            return x, report(it, True)
        if not math.isfinite(relres):
            return x, report(it, False, breakdown=True)
        z = apply_prec(r)
        pc += 1
        if cfg.variant == "pcg":
            rz_new = float(r @ z)
            if not math.isfinite(rz_new):
                return x, report(it, False, breakdown=True)
            beta = rz_new / rz
            rz = rz_new
            d = z + beta * d
        else:
            # one-direction orthogonalization: make the new direction
            # A-orthogonal to the previous one
            beta = float(z @ Ad) / dAd
            d = z - beta * d
    return x, report(cfg.itmax, False)
