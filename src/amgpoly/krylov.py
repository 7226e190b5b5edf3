"""Preconditioned conjugate gradients (PCG) for SPD systems.

Every preconditioner the library builds (a V-cycle, a polynomial smoother)
is fixed, symmetric and linear, the case plain PCG is made for, so there
is no flexible variant.

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
    tol: float = 1e-7
    itmax: int = 1000
    record_history: bool = True

    def __post_init__(self):
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
    None for plain CG); it may return r itself.  Each iteration starts by
    testing the residual against ``tol``, then applies the preconditioner,
    so a solve that stops at ``itmax`` has applied it ``itmax`` times.  An
    r'z that is not finite and positive (r'z <= 0 means the preconditioner
    is not SPD), a curvature d'Ad that is not, or a non-finite residual
    norm ends the solve with ``breakdown`` set.
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

    apply_prec = precond if precond is not None else (lambda v: v)
    for it in range(cfg.itmax):  # it iterations done
        if relres <= cfg.tol:
            return report(it, True)
        z = apply_prec(r)
        pc += 1
        rz_new = float(r @ z)
        if not 0.0 < rz_new < math.inf:  # NaN fails the comparison too
            return report(it, False, breakdown=True)
        # the first d is a copy: a preconditioner may return r itself
        d = z.copy() if it == 0 else z + (rz_new / rz) * d
        rz = rz_new
        Ad = A.matvec(d)
        spmv += 1
        dAd = float(d @ Ad)
        if not 0.0 < dAd < math.inf:
            return report(it, False, breakdown=True)
        alpha = rz / dAd
        x += alpha * d
        r -= alpha * Ad
        relres = np.linalg.norm(r) / bnorm
        if cfg.record_history:
            history.append(relres)
        if not math.isfinite(relres):
            return report(it + 1, False, breakdown=True)
    return report(cfg.itmax, bool(relres <= cfg.tol))
