"""Preconditioned conjugate gradient solvers (classical PCG and flexible FCG).

The stopping test uses the relative residual ||b - A x|| / ||b||, the only
computable proxy for the error tolerance quoted with the benchmark runs.
Everything here runs in float64; the preconditioner may run in lower
precision and returns float64.  The solve runs on b scaled by a power of
two into [1/2, 1), so its norms and dot products neither underflow nor
overflow for any finite b; the scaling is exact, so in range it changes
no bit of the iterates or of the report.
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


def solve(A, b, precond=None, cfg=None):
    """Solve SPD A x = b from x = 0; returns (x, SolveReport).

    ``precond`` is a callable r -> z applying a fixed SPD preconditioner (or
    None for plain CG).  The flexible variant re-orthogonalizes each new
    direction against the previous one only, which tolerates mildly variable
    preconditioning; with a fixed preconditioner both variants coincide up
    to roundoff.  A curvature d'Ad that is not finite and positive, an r'z
    that is not (the first one in either variant, each one in pcg; r'z <= 0
    means the preconditioner is not SPD), or a non-finite residual norm
    ends the solve with ``breakdown`` set.
    So does a NaN or +-inf in b, at iteration 0 and before any SpMV or
    preconditioner call, with ``final_relres`` NaN.
    """
    cfg = cfg or KrylovConfig()
    b = np.asarray(b, dtype=np.float64)
    bmax = float(np.max(np.abs(b), initial=0.0))  # NaN if b holds one
    p = int(np.frexp(bmax)[1]) if math.isfinite(bmax) else 0  # 2^p > max|b| >= 2^(p-1)
    b = np.ldexp(b, -p)
    x = np.zeros(len(b))
    spmv = pc = 0
    relres = 0.0
    history = []

    def report(it, converged, breakdown=False):
        """The one exit: x scaled back by 2^p, and the report."""
        return np.ldexp(x, p), SolveReport(
            iterations=it,
            converged=converged,
            final_relres=relres,
            residual_history=history,
            spmv_count=spmv,
            precond_count=pc,
            breakdown=breakdown,
        )

    if not math.isfinite(bmax):
        relres = math.nan
        return report(0, False, breakdown=True)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return report(0, True)

    r = b  # b - A x, as x = 0; ldexp made b a new array, which r may update
    relres = 1.0
    if cfg.record_history:
        history.append(relres)

    if relres <= cfg.tol:
        return report(0, True)

    apply_prec = precond if precond is not None else (lambda v: v.copy())
    z = apply_prec(r)
    pc += 1
    d = z.copy()
    rz = float(r @ z)
    if not 0.0 < rz < math.inf:  # NaN fails the comparison too
        return report(0, False, breakdown=True)

    for it in range(1, cfg.itmax + 1):
        Ad = A.matvec(d)
        spmv += 1
        dAd = float(d @ Ad)
        if not 0.0 < dAd < math.inf:  # NaN fails the comparison too
            return report(it - 1, False, breakdown=True)
        alpha = rz / dAd if cfg.variant == "pcg" else float(r @ d) / dAd
        x += alpha * d
        r -= alpha * Ad
        relres = np.linalg.norm(r) / bnorm
        if cfg.record_history:
            history.append(relres)
        if relres <= cfg.tol:
            return report(it, True)
        if not math.isfinite(relres):
            return report(it, False, breakdown=True)
        z = apply_prec(r)
        pc += 1
        if cfg.variant == "pcg":
            rz_new = float(r @ z)
            if not 0.0 < rz_new < math.inf:
                return report(it, False, breakdown=True)
            beta = rz_new / rz
            rz = rz_new
            d = z + beta * d
        else:
            # one-direction orthogonalization: make the new direction
            # A-orthogonal to the previous one
            beta = float(z @ Ad) / dAd
            d = z - beta * d
    return report(cfg.itmax, False)
