"""Deterministic benchmark matrix and right-hand-side generators.

Stencils are left unscaled (no h^2 division): a positive scalar scaling
changes neither relative-residual CG iteration counts nor the polynomial
smoothers, which normalize through the l1-Jacobi diagonal.  Node ordering
is lexicographic with x fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .sparse import CsrMatrix


def poisson3d(m):
    """7-point Poisson on the unit cube, homogeneous Dirichlet eliminated.

    Returns the m^3 x m^3 matrix (diagonal 6, -1 per grid neighbor) and the
    all-ones right-hand side.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    n = m**3
    idx = np.arange(n)
    ix = idx % m
    iy = (idx // m) % m
    iz = idx // (m * m)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 6.0)]
    for comp, stride in ((ix, 1), (iy, m), (iz, m * m)):
        mask = comp > 0
        rows.append(idx[mask])
        cols.append(idx[mask] - stride)
        vals.append(np.full(mask.sum(), -1.0))
        mask = comp < m - 1
        rows.append(idx[mask])
        cols.append(idx[mask] + stride)
        vals.append(np.full(mask.sum(), -1.0))
    A = CsrMatrix.from_coo(
        n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    return A, np.ones(n)


def _q1_element_stiffness(K, h):
    """Exact Q1 stiffness for a constant conductivity tensor on an h x h cell.

    2x2 Gauss quadrature integrates the bilinear-gradient products exactly.
    Local node order: (0,0), (1,0), (0,1), (1,1) in cell coordinates.
    """
    g = 1.0 / math.sqrt(3.0)
    pts = [(-g, -g), (g, -g), (-g, g), (g, g)]
    ke = np.zeros((4, 4))
    corners = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    for xi, eta in pts:
        # gradients of the reference bilinear shapes, scaled by 2/h per map
        grads = np.array(
            [[cx * (1 + cy * eta) / 4.0, cy * (1 + cx * xi) / 4.0] for cx, cy in corners]
        ) * (2.0 / h)
        jac = h * h / 4.0
        ke += jac * grads @ K @ grads.T
    return ke


def aniso2d_q1(m, epsilon, angle):
    """Rotated anisotropic diffusion on [-1,1]^2 with Q1 elements.

    Conductivity diag(1, epsilon) rotated by ``angle``; Dirichlet rows on the
    y = -1 face are eliminated, the remaining boundaries are natural.  The
    load comes from f(x,y) = exp(-100(x^2+y^2)) by centroid quadrature.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    h = 2.0 / m
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    K = R @ np.diag([1.0, epsilon]) @ R.T
    ke = _q1_element_stiffness(K, h)

    nx = m + 1
    nodes = lambda i, j: j * nx + i  # x fastest
    n_all = nx * nx
    rows, cols, vals = [], [], []
    load = np.zeros(n_all)
    for ej in range(m):
        for ei in range(m):
            loc = [
                nodes(ei, ej),
                nodes(ei + 1, ej),
                nodes(ei, ej + 1),
                nodes(ei + 1, ej + 1),
            ]
            for a in range(4):
                for b in range(4):
                    rows.append(loc[a])
                    cols.append(loc[b])
                    vals.append(ke[a, b])
            xc = -1.0 + (ei + 0.5) * h
            yc = -1.0 + (ej + 0.5) * h
            fe = math.exp(-100.0 * (xc * xc + yc * yc)) * h * h / 4.0
            for a in range(4):
                load[loc[a]] += fe
    A_full = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n_all, n_all)).tocsr()
    keep = np.array([i for i in range(n_all) if i >= nx])  # drop the y=-1 row
    A = A_full[np.ix_(keep, keep)]
    return CsrMatrix.from_scipy(A), load[keep]


@dataclass
class SpectralOperator:
    """Dense synthetic operator A = Q D Q^T with a discrete sine basis.

    Applied through the factors when the size is large; the assembled array
    is materialized lazily only where entries are needed (l1 diagonal).
    """

    n: int
    eigenvalues: np.ndarray
    _Q: np.ndarray = field(init=False, repr=False)
    _dense: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        i = np.arange(1, self.n + 1)
        self._Q = np.sqrt(2.0 / (self.n + 1)) * np.sin(np.outer(i, i) * np.pi / (self.n + 1))

    @property
    def nrows(self):
        return self.n

    @property
    def ncols(self):
        return self.n

    def matvec(self, x):
        if self.n > 512:
            return self._Q @ (self.eigenvalues * (self._Q.T @ x))
        return self.to_dense() @ x

    def to_dense(self):
        if self._dense is None:
            self._dense = (self._Q * self.eigenvalues) @ self._Q.T
        return self._dense

    def l1_diag(self):
        A = (self._Q * self.eigenvalues) @ self._Q.T if self.n > 512 else self.to_dense()
        d = np.diag(A)
        if np.any(d <= 0.0):
            raise ValueError("operator has a non-positive diagonal entry")
        return np.abs(A).sum(axis=1) - np.abs(d) + d

    def basis(self):
        return self._Q


def spectral_synthetic(n, distribution):
    """Synthetic-spectrum operator and right-hand side b = A @ 1.

    Distributions: 'equispaced' (eigenvalues j/N), 'boundary' (accumulating
    at 0 and 1), 'gapped' (two log-spaced clusters separated by a gap).
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    if distribution == "equispaced":
        d = np.arange(1, n + 1) / n
    elif distribution == "boundary":
        half = np.logspace(-8, -1, n // 2)
        d = np.concatenate([1.0 - half, half])
    elif distribution == "gapped":
        d = np.concatenate([np.logspace(-8, -1, n // 2), np.logspace(1, math.pi, n // 2)])
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    op = SpectralOperator(n, d)
    b = op.matvec(np.ones(n))
    return op, b
