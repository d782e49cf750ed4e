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
    shapes_t, shapes_q = ShapeSet(degT), ShapeSet(degQ)
    rule_t = gauss_rule(degT + 1)
    vt = shapes_t.values(rule_t.points)
    rule_q = gauss_rule(degQ + 1)
    vq = shapes_q.values(rule_q.points)
    rule = gauss_rule(max(degT, degQ) + 1)
    vq_g = shapes_q.values(rule.points)
    dt_g = shapes_t.derivatives(rule.points)

    jac = np.asarray(jacobians, dtype=float)[:, None, None]
    mass_q = _gram(vq, vq, rule_q.weights)
    K = jac * mass_q
    if model is ModelKind.GK:
        dq = shapes_q.derivatives(rule_q.points)
        K = K + (mat.kappa2 / jac) * _gram(dq, dq, rule_q.weights)
    return ElementMatrices(
        C=mat.rho * mat.c_v * jac * _gram(vt, vt, rule_t.weights),
        T=mat.tau * jac * mass_q,
        K=K,
        Q=mat.conductivity * _gram(vq_g, dt_g, rule.weights),
        Qt=_gram(dt_g, vq_g, rule.weights),
    )
