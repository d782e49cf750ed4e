"""Unit tests for the hierarchic shape functions and quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpheat.basis import (
    MAX_DEGREE,
    ShapeSet,
    _legendre_rows,
    gauss_rule,
)

# Hand-computed reference values, independent of the implementation:
#   P2(1/2) = (3/4 - 1)/2
#   N3(0)   = (P2(0) - P0(0))/sqrt(6) = (-1/2 - 1)/sqrt(6)
#   N4'(1/2)= sqrt(5/2) * P2(1/2)
LEGENDRE_2_AT_HALF = -0.125
BUBBLE_3_AT_ZERO = -1.5 / np.sqrt(6.0)  # -0.6123724356957945
BUBBLE_4_DERIV_AT_HALF = np.sqrt(2.5) * -0.125  # -0.19764235376052372


def shape_eval(shapes: ShapeSet, k: int, eta: float) -> float:
    """Value of shape function k (1-based: 1, 2 vertices, then bubbles)."""
    if not 1 <= k <= shapes.count:
        raise IndexError(f"shape index must be in 1..{shapes.count}, got {k}")
    return float(shapes.values(np.array([eta]))[k - 1, 0])


def shape_deriv(shapes: ShapeSet, k: int, eta: float) -> float:
    """Master-coordinate derivative of shape function k (1-based)."""
    if not 1 <= k <= shapes.count:
        raise IndexError(f"shape index must be in 1..{shapes.count}, got {k}")
    return float(shapes.derivatives(np.array([eta]))[k - 1, 0])


def test_legendre_frozen_values():
    # The recurrence the shape sets evaluate, one row per degree.
    assert _legendre_rows(0, 0.3)[0, 0] == 1.0
    assert _legendre_rows(1, 0.3)[1, 0] == pytest.approx(0.3, abs=1e-15)
    assert _legendre_rows(2, 0.5)[2, 0] == pytest.approx(LEGENDRE_2_AT_HALF, abs=1e-15)
    # P_k(1) = 1 for every degree
    assert _legendre_rows(8, 1.0)[:, 0] == pytest.approx(np.ones(9), abs=1e-13)


def test_vertex_shapes_interpolate_endpoints():
    shapes = ShapeSet(4)
    assert shape_eval(shapes, 1, -1.0) == pytest.approx(1.0, abs=1e-15)
    assert shape_eval(shapes, 1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert shape_eval(shapes, 2, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert shape_eval(shapes, 2, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_bubbles_vanish_at_endpoints_up_to_cap():
    shapes = ShapeSet(MAX_DEGREE)
    ends = shapes.values(np.array([-1.0, 1.0]))
    assert np.max(np.abs(ends[2:])) <= 1e-14


def test_frozen_bubble_values():
    shapes = ShapeSet(4)
    assert shape_eval(shapes, 3, 0.0) == pytest.approx(BUBBLE_3_AT_ZERO, abs=1e-15)
    assert shape_deriv(shapes, 4, 0.5) == pytest.approx(BUBBLE_4_DERIV_AT_HALF, abs=1e-15)


def test_bubble_derivative_gram_is_identity():
    # The defining property of the integrated-Legendre normalization.
    shapes = ShapeSet(MAX_DEGREE)
    rule = gauss_rule(MAX_DEGREE + 2)
    derivs = shapes.derivatives(rule.points)
    gram = (derivs * rule.weights) @ derivs.T
    bubbles = gram[2:, 2:]
    assert np.max(np.abs(bubbles - np.eye(bubbles.shape[0]))) <= 1e-12


def test_partition_of_unity():
    shapes = ShapeSet(6)
    eta = np.linspace(-1.0, 1.0, 17)
    vals = shapes.values(eta)
    assert np.max(np.abs(vals[0] + vals[1] - 1.0)) <= 1e-15


def test_shape_index_bounds():
    shapes = ShapeSet(3)
    assert shapes.count == 4
    with pytest.raises(IndexError):
        shape_eval(shapes, 0, 0.0)
    with pytest.raises(IndexError):
        shape_eval(shapes, 5, 0.0)
    with pytest.raises(IndexError):
        shape_deriv(shapes, 5, 0.0)


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        ShapeSet(0)
    with pytest.raises(ValueError):
        ShapeSet(MAX_DEGREE + 1)
    ShapeSet(MAX_DEGREE)  # the cap itself is valid


@given(
    degree=st.integers(min_value=2, max_value=MAX_DEGREE),
    k_offset=st.integers(min_value=0, max_value=MAX_DEGREE - 2),
    eta=st.floats(min_value=-0.99, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_derivatives_match_finite_differences(degree, k_offset, eta):
    shapes = ShapeSet(degree)
    k = 3 + (k_offset % (degree - 1))
    h = 1e-6
    fd = (shape_eval(shapes, k, eta + h) - shape_eval(shapes, k, eta - h)) / (2 * h)
    exact = shape_deriv(shapes, k, eta)
    assert fd == pytest.approx(exact, abs=1e-6 * max(1.0, abs(exact)))


def test_gauss_rule_exactness():
    # n points integrate monomials through degree 2n - 1 and miss 2n.
    for n in (1, 2, 3, 5, 8, 13):
        rule = gauss_rule(n)
        assert rule.count == n
        assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = float(np.sum(rule.weights * rule.points**k))
            assert got == pytest.approx(exact, abs=1e-13), (n, k)
        k = 2 * n
        exact = 2.0 / (k + 1)
        got = float(np.sum(rule.weights * rule.points**k))
        assert abs(got - exact) > 1e-10, f"rule {n} should not integrate degree {k}"


def test_gauss_rule_rejects_empty():
    with pytest.raises(ValueError):
        gauss_rule(0)
