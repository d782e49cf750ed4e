"""Unit tests for the element-level blocks of the mixed weak form.

element_matrices takes an array of Jacobians; the single-element checks pass
a one-element array and read block [0] of the stacked C, T and K.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpheat.assembly import Mesh
from hpheat.basis import ShapeSet, gauss_rule
from hpheat.elemmat import element_matrices
from hpheat.materials import MaterialParams, ModelKind

MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3, kappa2=8e-6)


def element(a, b):
    """The one-element mesh on (a, b)."""
    return Mesh(np.array([a, b]))


def blocks_of(mesh, mat, degT, degQ, model=ModelKind.GK):
    return element_matrices(mesh.jacobians, mat, model, degT, degQ)


def linear_mass(h):
    # int over the element of the two linear hat functions:
    # h * [[1/3, 1/6], [1/6, 1/3]]
    return h * np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])


def test_capacity_block_linear_elements():
    h = 0.25e-3
    mesh = element(0.0, h)
    C = blocks_of(mesh, MAT, 1, 1).C[0]
    expected = MAT.rho * MAT.c_v * linear_mass(h)
    assert np.max(np.abs(C - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_relaxation_block_linear_elements():
    h = 0.25e-3
    T = blocks_of(element(0.0, h), MAT, 1, 1).T[0]
    expected = MAT.tau * linear_mass(h)
    assert np.max(np.abs(T - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_relaxation_block_vanishes_without_memory():
    instant = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0)
    T = blocks_of(element(0.0, 1e-3), instant, 3, 3, ModelKind.MCV).T[0]
    assert np.max(np.abs(T)) == 0.0


def test_nonlocal_term_is_model_gated():
    # Same parameters, different model: the kappa2 gradient block appears
    # only for the nonlocal law.
    mesh = element(0.0, 1e-3)
    K_local = blocks_of(mesh, MAT, 4, 4, ModelKind.MCV).K[0]
    K_nonlocal = blocks_of(mesh, MAT, 4, 4, ModelKind.GK).K[0]
    diff = K_nonlocal - K_local

    shapes = ShapeSet(4)
    rule = gauss_rule(5)
    derivs = shapes.derivatives(rule.points)
    gram = (derivs * rule.weights) @ derivs.T
    expected = (MAT.kappa2 / mesh.jacobians[0]) * gram
    assert np.max(np.abs(diff - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_coupling_blocks_are_transposes_up_to_conductivity():
    mesh = element(0.002, 0.0045)
    for degT, degQ in ((2, 1), (5, 4), (9, 9), (3, 7)):
        blocks = blocks_of(mesh, MAT, degT, degQ)
        Q, Qt = blocks.Q, blocks.Qt
        assert Q.shape == (degQ + 1, degT + 1)
        assert Qt.shape == (degT + 1, degQ + 1)
        assert np.max(np.abs(Q - MAT.conductivity * Qt.T)) <= 1e-13 * np.max(np.abs(Q))


def test_divergence_coupling_ignores_material_and_geometry():
    # Jacobians cancel in the mixed integral, and no coefficient enters.
    other = MaterialParams(rho=1.0, c_v=1.0, conductivity=123.0, tau=7.0, kappa2=2.0)
    a = blocks_of(element(0.0, 1.0), MAT, 4, 3, ModelKind.MCV).Qt
    b = blocks_of(element(-3.0, 14.0), other, 4, 3, ModelKind.MCV).Qt
    assert np.max(np.abs(a - b)) <= 1e-14


def test_coupling_frozen_value_linear_case():
    # Linear T against linear q: int N_j^q (N_k^T)' deta with (N^T)' = -+1/2
    # and int N^q deta = 1 gives [[-1/2, 1/2], [-1/2, 1/2]] times lam.
    Q = blocks_of(element(0.0, 1e-3), MAT, 1, 1).Q
    expected = MAT.conductivity * np.array([[-0.5, 0.5], [-0.5, 0.5]])
    assert np.max(np.abs(Q - expected)) <= 1e-14 * MAT.conductivity


def test_blocks_invariant_under_quadrature_enrichment():
    # Every integrand is polynomial, so a richer rule must not move anything.
    mesh = element(0.001, 0.0017)
    degT, degQ = 5, 4
    shapes_t = ShapeSet(degT)
    shapes_q = ShapeSet(degQ)

    rule = gauss_rule(degT + degQ + 4)
    vt = shapes_t.values(rule.points)
    vq = shapes_q.values(rule.points)
    dq = shapes_q.derivatives(rule.points)
    w = rule.weights

    C_rich = MAT.rho * MAT.c_v * mesh.jacobians[0] * ((vt * w) @ vt.T)
    T_rich = MAT.tau * mesh.jacobians[0] * ((vq * w) @ vq.T)
    K_rich = mesh.jacobians[0] * ((vq * w) @ vq.T) + (MAT.kappa2 / mesh.jacobians[0]) * (
        (dq * w) @ dq.T
    )

    blocks = blocks_of(mesh, MAT, degT, degQ)
    for got, want in ((blocks.C[0], C_rich), (blocks.T[0], T_rich), (blocks.K[0], K_rich)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@given(
    degT=st.integers(min_value=1, max_value=8),
    degQ=st.integers(min_value=1, max_value=8),
    h=st.floats(min_value=1e-5, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_mass_blocks_symmetric_positive(degT, degQ, h):
    blocks = blocks_of(element(0.0, h), MAT, degT, degQ)
    for block in (blocks.C[0], blocks.T[0], blocks.K[0]):
        assert np.max(np.abs(block - block.T)) <= 1e-12 * max(1.0, np.max(np.abs(block)))
        eigs = np.linalg.eigvalsh(block)
        assert eigs.min() >= -1e-12 * max(1.0, eigs.max())
