"""Element blocks of the two-field mixed weak form, for every element at once.

The semi-discrete system couples the temperature coefficients t and the heat
flux coefficients q through

    C dt/dt' - G^T q = d        (balance of internal energy)
    T dq/dt' + lam G t + K q = 0   (flux evolution law)

where G is the unweighted coupling integral int N^q (N^T)' deta.  The element
map is affine, so every block is a reference-element integral times a power
of the element's Jacobian J.  The reference integrals are computed once per
degree pair and scaled by the array of Jacobians:

    C  -> rho c_v J  * (T mass)
    T  -> tau J      * (q mass)
    K  -> J * (q mass), plus (kappa2 / J) * (q gradient Gram) for the
          nonlocal model
    Q  -> lam-weighted coupling block (q test x T trial)
    Qt -> raw coupling block (T test x q trial), equal to the transpose of Q
          up to the factor lam; the assembly negates it when placing the
          T-row block, which is what makes the skew coupling dissipative

Q and Qt carry no Jacobian (dx = J deta against d/dx = J^-1 d/deta), so every
element shares them.  All blocks are exact: the mass rules have degree + 1
points and the coupling rule max(degT, degQ) + 1, enough for every integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import ShapeSet, gauss_rule
from .materials import MaterialParams, ModelKind


def _gram(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(j, k) -> sum_g a_j(g) b_k(g) w_g."""
    return (a * weights) @ b.T


@dataclass(frozen=True)
class ElementMatrices:
    """All blocks in shape-function ordering.

    C, T and K are stacked per element, shape (n_elements, k, k); Q and Qt
    are shared by every element.
    """

    C: np.ndarray
    T: np.ndarray
    K: np.ndarray
    Q: np.ndarray
    Qt: np.ndarray


@lru_cache(maxsize=None)
def _reference(degT: int, degQ: int) -> tuple[np.ndarray, ...]:
    """The reference integrals of the blocks of a degree pair: T mass, q
    mass, q gradient Gram and the two coupling blocks, computed once per
    pair; the cached arrays are read-only."""
    shapes_t, shapes_q = ShapeSet(degT), ShapeSet(degQ)
    rule_t = gauss_rule(degT + 1)
    vt = shapes_t.values(rule_t.points)
    rule_q = gauss_rule(degQ + 1)
    vq = shapes_q.values(rule_q.points)
    dq = shapes_q.derivatives(rule_q.points)
    rule = gauss_rule(max(degT, degQ) + 1)
    vq_g = shapes_q.values(rule.points)
    dt_g = shapes_t.derivatives(rule.points)
    integrals = (
        _gram(vt, vt, rule_t.weights),
        _gram(vq, vq, rule_q.weights),
        _gram(dq, dq, rule_q.weights),
        _gram(vq_g, dt_g, rule.weights),
        _gram(dt_g, vq_g, rule.weights),
    )
    for integral in integrals:
        integral.setflags(write=False)
    return integrals


def element_matrices(
    jacobians: np.ndarray,
    mat: MaterialParams,
    model: ModelKind,
    degT: int,
    degQ: int,
) -> ElementMatrices:
    """Blocks of the elements with the given Jacobians dx/deta.

    The gradient term of K is controlled by the model, not by the stored
    kappa2: the local models never see it regardless of the parameter value.
    """
    mass_t, mass_q, gradient_q, coupling, coupling_t = _reference(degT, degQ)
    jac = np.asarray(jacobians, dtype=float)[:, None, None]
    K = jac * mass_q
    if model is ModelKind.GK:
        K = K + (mat.kappa2 / jac) * gradient_q
    return ElementMatrices(
        C=mat.rho * mat.c_v * jac * mass_t,
        T=mat.tau * jac * mass_q,
        K=K,
        Q=mat.conductivity * coupling,
        Qt=coupling_t,
    )
