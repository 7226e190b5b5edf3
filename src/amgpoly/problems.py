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
    n_all = nx * nx
    n_el = m * m
    # element-major triplets: element (ei, ej) with ei fastest, then local
    # (a, b) pairs with b fastest; node numbering x fastest
    e = np.arange(n_el, dtype=np.int64)
    ei, ej = e % m, e // m
    loc = (ej * nx + ei)[:, None] + np.array([0, 1, nx, nx + 1], dtype=np.int64)
    rows = np.repeat(loc, 4, axis=1).ravel()
    cols = np.tile(loc, (1, 4)).ravel()
    vals = np.tile(ke.ravel(), n_el)
    xc = -1.0 + (ei + 0.5) * h
    yc = -1.0 + (ej + 0.5) * h
    # math.exp per element: np.exp may round differently in the last bit
    fe = np.array([math.exp(t) for t in (-100.0 * (xc * xc + yc * yc)).tolist()]) * h * h / 4.0
    load = np.zeros(n_all)
    np.add.at(load, loc.ravel(), np.repeat(fe, 4))
    A_full = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n_all, n_all)).tocsr()
    keep = np.arange(nx, n_all)  # drop the y=-1 row
    A = A_full[np.ix_(keep, keep)]
    return CsrMatrix._adopt(A), load[keep]


@dataclass
class SpectralOperator:
    """Dense synthetic operator A = Q D Q^T with a discrete sine basis.

    The n x n array is assembled once, in the constructor; every matvec is
    one dense product with it.
    """

    n: int
    eigenvalues: np.ndarray
    _dense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Q = self.basis()
        self._dense = (Q * self.eigenvalues) @ Q.T

    @property
    def nrows(self):
        return self.n

    @property
    def ncols(self):
        return self.n

    def matvec(self, x):
        return self._dense @ x

    def to_dense(self):
        return self._dense

    def basis(self):
        """The orthonormal discrete sine basis Q, built anew on each call."""
        i = np.arange(1, self.n + 1)
        return np.sqrt(2.0 / (self.n + 1)) * np.sin(np.outer(i, i) * np.pi / (self.n + 1))


def spectral_synthetic(n, distribution):
    """Synthetic-spectrum operator and right-hand side b = A @ 1.

    Distributions: 'equispaced' (eigenvalues j/N), 'boundary' (accumulating
    at 0 and 1), 'gapped' (two log-spaced clusters separated by a gap).
    ``n`` must be even and at least 2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
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
