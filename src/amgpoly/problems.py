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

# Largest dense n x n array the library assembles: the synthetic spectral
# operator of ``spectral_synthetic``, and the coarse sweeps' matrix S of
# ``amg.coarse_sweep_matrix``.
MAX_DENSE_N = 1024


def poisson3d(m):
    """7-point Poisson on the unit cube, homogeneous Dirichlet eliminated.

    Returns the m^3 x m^3 matrix (diagonal 6, -1 per grid neighbor) and the
    all-ones right-hand side.  The matrix is its seven diagonals, at offsets
    -m^2, -m, -1, 0, 1, m, m^2, with 0.0 where the neighbor lies outside the
    cube; scipy's DIA -> CSR conversion drops those zeros and writes each
    row's columns in increasing order.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    n = m**3
    upper = []  # entry i of the band at offset k couples nodes i and i + k
    for axis, k in ((2, 1), (1, m), (0, m * m)):  # [iz, iy, ix]: x fastest
        band = np.full((m, m, m), -1.0)
        np.moveaxis(band, axis, 0)[-1] = 0.0  # the last grid plane has no +k neighbor
        upper.append(band.ravel()[:n - k])
    bands = upper[::-1] + [np.full(n, 6.0)] + upper
    # ascending, so that a conversion that keeps the offsets' order sorts each row
    offsets = [-m * m, -m, -1, 0, 1, m, m * m]
    A = scipy.sparse.diags(bands, offsets, shape=(n, n), format="csr")
    return CsrMatrix(n, n, A.indptr, A.indices, A.data), np.ones(n)


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


def _q1_stencils(ke):
    """Assembled 9-point stencil of each node class of a uniform Q1 grid.

    ``T[cy, cx, dy + 1, dx + 1]`` couples a node of class (cx, cy) to its
    neighbor at offset (dx, dy); a class is 0 on the first grid line, 1 inside
    and 2 on the last, in each direction.  Each entry is the sum of ``ke[a, b]``
    over the elements that hold both nodes, added in increasing element index
    (x fastest), and 0.0 where none does.
    """
    # per class, the offsets of the node's elements' lower-left corners
    corners = ((0,), (-1, 0), (-1,))
    T = np.zeros((3, 3, 3, 3))
    for cy in range(3):
        for cx in range(3):
            for ey in corners[cy]:
                for ex in corners[cx]:
                    a = -ex - 2 * ey  # the node's local index in the element
                    for qy in (0, 1):
                        for qx in (0, 1):
                            T[cy, cx, qy + ey + 1, qx + ex + 1] += ke[a, qx + 2 * qy]
    return T


def aniso2d_q1(m, epsilon, angle):
    """Rotated anisotropic diffusion on [-1,1]^2 with Q1 elements.

    Conductivity diag(1, epsilon) rotated by ``angle``; Dirichlet rows on the
    y = -1 face are eliminated, the remaining boundaries are natural.  The
    load comes from f(x,y) = exp(-100(x^2+y^2)) by centroid quadrature.

    Every element has the same stiffness ``ke``, so each row is its node
    class's stencil (``_q1_stencils``), and the matrix is the stencils' nine
    diagonals; a coupling to the eliminated row or past the grid's edge is
    0.0, which scipy's DIA -> CSR conversion drops with the other exact
    zeros.  Each entry and each load sums its element terms in increasing
    element index, the order in which an element-by-element triplet assembly
    adds them, so both keep that assembly's bits.
    Every entry of ``ke`` enters the interior stencil, so a ``ke`` or a
    stencil that overflows float64 is one ``ValueError``, raised without a
    warning.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    h = 2.0 / m
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    K = R @ np.diag([1.0, epsilon]) @ R.T
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, without a warning
        stencils = _q1_stencils(_q1_element_stiffness(K, h))
    if not np.isfinite(stencils).all():
        raise ValueError("the Q1 element stiffness or stencils overflow float64")

    nx = m + 1
    n = nx * m  # node rows y = 1..m of the nx x nx grid, x fastest
    cls = np.ones(nx, dtype=np.intp)
    cls[0], cls[-1] = 0, 2
    stencil = stencils[cls[1:, None], cls[None, :]]  # (m, nx, 3, 3)
    stencil[0, :, 0, :] = 0.0  # y = 1 couples south only to the eliminated row
    stencil = stencil.reshape(n, 9)
    offsets = [dy * nx + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]  # ascending (see poisson3d)
    # column k at offset o: rows max(-o, 0) .. n - max(o, 0) - 1
    bands = [stencil[max(-o, 0):n - max(o, 0), k] for k, o in enumerate(offsets)]
    A = scipy.sparse.diags(bands, offsets, shape=(n, n), format="csr")

    # element (ei, ej) sits at fe[ej + 1, ei + 1], padded with a ring of zeros
    centers = -1.0 + (np.arange(m) + 0.5) * h
    r2 = -100.0 * (centers * centers + (centers * centers)[:, None])
    fe = np.zeros((m + 2, m + 2))
    # math.exp per element: np.exp may round differently in the last bit
    fe[1:-1, 1:-1] = np.array(
        [math.exp(t) for t in r2.ravel().tolist()]
    ).reshape(m, m) * h * h / 4.0
    # node (i, j) gathers elements (i-1, j-1), (i, j-1), (i-1, j), (i, j)
    load = fe[1:-1, :-1] + fe[1:-1, 1:]
    load += fe[2:, :-1]
    load += fe[2:, 1:]
    return CsrMatrix(n, n, A.indptr, A.indices, A.data), load.ravel()


@dataclass
class SpectralOperator:
    """Dense synthetic operator A = Q D Q^T with a discrete sine basis.

    The n x n array is assembled once, in the constructor; every matvec is
    one dense product with it.
    """

    eigenvalues: np.ndarray
    _dense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Q = self.basis()
        self._dense = (Q * self.eigenvalues) @ Q.T

    @property
    def nrows(self):
        return len(self.eigenvalues)

    @property
    def ncols(self):
        return len(self.eigenvalues)

    def matvec(self, x):
        return self._dense @ x

    def to_dense(self):
        return self._dense

    def basis(self):
        """The orthonormal discrete sine basis Q, built anew on each call."""
        n = len(self.eigenvalues)
        i = np.arange(1, n + 1)
        return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, i) * np.pi / (n + 1))


def spectral_synthetic(n, distribution):
    """Synthetic-spectrum operator and right-hand side b = A @ 1.

    Distributions: 'equispaced' (eigenvalues j/N), 'boundary' (accumulating
    at 0 and 1), 'gapped' (two log-spaced clusters separated by a gap).
    ``n`` must be even, at least 2 and at most ``MAX_DENSE_N``; it is checked
    before anything is assembled.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if n > MAX_DENSE_N:
        raise ValueError(f"n must be <= {MAX_DENSE_N}, got {n}")
    if distribution == "equispaced":
        d = np.arange(1, n + 1) / n
    elif distribution == "boundary":
        half = np.logspace(-8, -1, n // 2)
        d = np.concatenate([1.0 - half, half])
    elif distribution == "gapped":
        d = np.concatenate([np.logspace(-8, -1, n // 2), np.logspace(1, math.pi, n // 2)])
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    op = SpectralOperator(d)
    b = op.matvec(np.ones(n))
    return op, b
