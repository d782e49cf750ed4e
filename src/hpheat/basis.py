"""Hierarchic shape functions, Legendre polynomials and Gauss quadrature.

All basis work happens on the master element (-1, 1); an affine map carries
master coordinates onto each physical element.  The shape set of degree p
contains the two linear vertex functions

    N_1(eta) = (1 - eta) / 2,      N_2(eta) = (1 + eta) / 2,

followed by the internal "bubble" modes built from Legendre polynomials,

    N_k(eta) = (L_{k-1}(eta) - L_{k-3}(eta)) / sqrt(2 (2k - 3)),   k = 3..p+1,

which vanish at both endpoints and whose first derivatives are L2
orthonormal on (-1, 1):

    dN_k/deta = sqrt((2k - 3) / 2) * L_{k-2}(eta).

That derivative identity is what keeps high degree stiffness blocks
diagonal and well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# Above this the monomial content of the quadrature/orthogonality tests is no
# longer trustworthy in double precision, so the library refuses to go there.
MAX_DEGREE = 12


def _legendre_rows(max_degree: int, eta: np.ndarray) -> np.ndarray:
    """Table of L_0..L_max_degree at the given points, one row per degree.

    Uses the Bonnet three-term recurrence
        (k + 1) L_{k+1}(eta) = (2k + 1) eta L_k(eta) - k L_{k-1}(eta)
    upward from L_0 = 1, L_1 = eta.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    rows = np.empty((max_degree + 1, eta.size))
    rows[0] = 1.0
    if max_degree >= 1:
        rows[1] = eta
    for k in range(1, max_degree):
        rows[k + 1] = ((2 * k + 1) * eta * rows[k] - k * rows[k - 1]) / (k + 1)
    return rows


@dataclass(frozen=True)
class ShapeSet:
    """The hierarchic basis of a single scalar field of polynomial degree `degree`."""

    degree: int

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(
                f"shape set degree must be in 1..{MAX_DEGREE}, got {self.degree}"
            )

    @property
    def count(self) -> int:
        """Number of shape functions: two vertex modes plus degree-1 bubbles."""
        return self.degree + 1

    def values(self, eta: np.ndarray) -> np.ndarray:
        """All shape functions at the given master points, shape (count, n)."""
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        table = np.empty((self.count, eta.size))
        table[0] = 0.5 * (1.0 - eta)
        table[1] = 0.5 * (1.0 + eta)
        leg = _legendre_rows(self.degree, eta)
        for k in range(3, self.degree + 2):
            table[k - 1] = (leg[k - 1] - leg[k - 3]) / np.sqrt(2.0 * (2 * k - 3))
        return table

    def derivatives(self, eta: np.ndarray) -> np.ndarray:
        """Master-coordinate derivatives of all shape functions, shape (count, n)."""
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        table = np.empty((self.count, eta.size))
        table[0] = -0.5
        table[1] = 0.5
        leg = _legendre_rows(self.degree - 1, eta)
        for k in range(3, self.degree + 2):
            table[k - 1] = np.sqrt((2 * k - 3) / 2.0) * leg[k - 2]
        return table


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points and weights on (-1, 1)."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.points.size


@lru_cache(maxsize=None)
def gauss_rule(n_points: int) -> QuadratureRule:
    """Gauss-Legendre rule with n_points points, exact through degree 2 n - 1.

    Computed once per point count; the cached arrays are read-only.
    """
    if n_points < 1:
        raise ValueError(f"quadrature rule needs at least one point, got {n_points}")
    pts, wts = leggauss(n_points)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts)
