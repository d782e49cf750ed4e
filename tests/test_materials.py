"""Unit tests for material parameter validation and model classification."""

import pytest

from hpheat.materials import MaterialParams, ModelKind


def test_classification_by_parameters():
    assert MaterialParams(2600, 800, 3.0).model_kind() is ModelKind.FOURIER
    assert MaterialParams(2600, 800, 3.0, tau=0.3).model_kind() is ModelKind.MCV
    assert MaterialParams(2600, 800, 3.0, tau=0.3, kappa2=8e-6).model_kind() is ModelKind.GK


def test_derived_quantities():
    mat = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0)
    assert mat.volumetric_heat_capacity == pytest.approx(2.08e6)
    assert mat.diffusivity == pytest.approx(3.0 / 2.08e6, rel=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho=0.0, c_v=800.0, conductivity=3.0),
        dict(rho=2600.0, c_v=-1.0, conductivity=3.0),
        dict(rho=2600.0, c_v=800.0, conductivity=0.0),
        dict(rho=2600.0, c_v=800.0, conductivity=3.0, tau=-0.1),
        dict(rho=2600.0, c_v=800.0, conductivity=3.0, kappa2=-1e-9),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        MaterialParams(**kwargs)


@pytest.mark.parametrize("name", ["rho", "c_v", "conductivity", "tau", "kappa2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_rejected_by_name(name, value):
    # NaN passes every sign check, and an infinite parameter reaches the
    # solver as NaN or overflow; both are rejected before any solve.
    kwargs = dict(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3, kappa2=8e-6)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        MaterialParams(**kwargs)


def test_require_kind_rejects_leftover_coefficients():
    # Running a simpler model with nonzero extra coefficients would silently
    # drop physics, so it must be an error, not a warning.
    gk = MaterialParams(2600, 800, 3.0, tau=0.3, kappa2=8e-6)
    mcv = MaterialParams(2600, 800, 3.0, tau=0.3)
    fourier = MaterialParams(2600, 800, 3.0)

    gk.require_kind(ModelKind.GK)
    mcv.require_kind(ModelKind.MCV)
    mcv.require_kind(ModelKind.GK)  # a degenerate nonlocal run is legitimate
    fourier.require_kind(ModelKind.FOURIER)
    fourier.require_kind(ModelKind.MCV)

    with pytest.raises(ValueError):
        gk.require_kind(ModelKind.MCV)
    with pytest.raises(ValueError):
        gk.require_kind(ModelKind.FOURIER)
    with pytest.raises(ValueError):
        mcv.require_kind(ModelKind.FOURIER)


def test_model_kind_accepts_value_strings():
    assert ModelKind("gk") is ModelKind.GK
    assert ModelKind("mcv") is ModelKind.MCV
    assert ModelKind("fourier") is ModelKind.FOURIER
    with pytest.raises(ValueError):
        ModelKind("cattaneo")
