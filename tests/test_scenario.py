"""Unit tests for time signals, the flash benchmark scenario, and its helpers."""

from dataclasses import replace

import numpy as np
import pytest

from hpheat.assembly import (
    BoundarySpec,
    DirichletTemperature,
    Field,
    SemiDiscreteSystem,
    probe_row,
)
from hpheat.materials import ModelKind
from hpheat.scenario import (
    SUGGESTED_CONDUCTIVITY,
    Probe,
    ProbeSeries,
    PulseParams,
    benchmark_material,
    benchmark_scenario,
    dimensionless_temperature,
    flash_pulse,
    net_boundary_energy,
    solve_transient,
    standard_probes,
    steady_temperature_rise,
    temperature_integral,
)
from hpheat.study import STUDY_CONDUCTIVITY
from hpheat.timefun import TimeFunction, constant

# Frozen pulse values for the default parameters (amplitude 1e4 W/m^2,
# c1 = 1/0.075, c2 = 6, t_p = 8 ms), evaluated from the closed forms in
# 30-digit arithmetic.
PULSE_VALUE_1MS = 30926.2854440130402
PULSE_MEAN_FIRST_MS = 23654.9045143109993
PULSE_PEAK_TIME = 8.71099304964841757e-4
PULSE_PEAK_VALUE = 31218.7877013350385
TOTAL_FLUENCE = 80.0
STEADY_RISE = 0.007692307692307693  # 80 / (2600 * 800 * 0.005)


def pulse_flux(params: PulseParams, t: float) -> float:
    """Pointwise pulse value; see flash_pulse for the full signal object."""
    if t < 0.0:
        raise ValueError(f"pulse is defined for t >= 0, got {t}")
    return flash_pulse(params).value(t)


def evaluate_field(
    sys: SemiDiscreteSystem, alpha: np.ndarray, x: float, fld: Field, t: float = 0.0
) -> float:
    """Point value of a field from a free coefficient vector."""
    return probe_row(sys.dofmap, x, fld).evaluate(sys, alpha, t)


def test_pulse_frozen_values():
    pulse = flash_pulse(PulseParams())
    assert pulse.value(0.0) == pytest.approx(0.0, abs=1e-12)
    assert pulse.value(1e-3) == pytest.approx(PULSE_VALUE_1MS, rel=1e-13)
    assert pulse.average(0.0, 1e-3) == pytest.approx(PULSE_MEAN_FIRST_MS, rel=1e-13)
    assert pulse.integral(10.0) == pytest.approx(TOTAL_FLUENCE, rel=1e-12)
    assert pulse.value(PULSE_PEAK_TIME) == pytest.approx(PULSE_PEAK_VALUE, rel=1e-12)


def test_pulse_consistency_against_quadrature():
    # The closed-form running integral must match numerical integration of
    # the value.
    pulse = flash_pulse(PulseParams())
    from scipy.integrate import quad

    num, _ = quad(pulse.value, 0.0, 0.02, limit=200)
    assert pulse.integral(0.02) == pytest.approx(num, rel=1e-10)


def test_pulse_flux_rejects_negative_time():
    with pytest.raises(ValueError):
        pulse_flux(PulseParams(), -1e-6)


@pytest.mark.parametrize("rates", [(0.0, 6.0), (13.3, 0.0)])
def test_pulse_rejects_a_zero_rate(rates):
    # The running integral divides by each rate.
    c1, c2 = rates
    with pytest.raises(ValueError, match="nonzero"):
        PulseParams(c1=c1, c2=c2)


@pytest.mark.parametrize("name", ["amplitude", "c1", "c2", "t_p"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_pulse_rejects_non_finite_parameters_by_name(name, value):
    with pytest.raises(ValueError, match=f"pulse {name} must be finite"):
        PulseParams(**{name: value})


def test_time_function_average_and_constant():
    lin = TimeFunction(value=lambda t: 3.0 * t, integral=lambda t: 1.5 * t * t)
    assert lin.average(1.0, 3.0) == pytest.approx(6.0, rel=1e-14)
    with pytest.raises(ValueError):
        lin.average(1.0, 1.0)
    five = constant(5.0)
    assert five.value(2.0) == 5.0
    assert five.average(0.0, 10.0) == pytest.approx(5.0)


@pytest.mark.parametrize("offset", [-293.0, 0.0, 2.5])
def test_time_function_shifted_moves_value_integral_and_average(offset):
    # lowered_temperatures relies on this to march Dirichlet data as a rise.
    pulse = flash_pulse(PulseParams())
    moved = pulse.shifted(offset)
    for t in (0.0, 1e-3, 7e-3, 0.5):
        assert moved.value(t) == pulse.value(t) + offset
        assert moved.integral(t) == pulse.integral(t) + offset * t
    for t0, t1 in ((0.0, 1e-3), (2e-3, 9e-3), (0.1, 0.5)):
        assert moved.average(t0, t1) == pytest.approx(
            pulse.average(t0, t1) + offset, rel=1e-12, abs=1e-9
        )


def test_benchmark_material_defaults():
    mat = benchmark_material()
    assert mat.rho == 2600.0
    assert mat.c_v == 800.0
    assert mat.conductivity == SUGGESTED_CONDUCTIVITY
    assert mat.tau == 0.0 and mat.kappa2 == 0.0


def test_standard_probes_layout():
    probes = standard_probes(0.005)
    assert [p.label for p in probes] == ["T_front", "T_rear", "q_mid"]
    assert probes[0].x == 0.0 and probes[0].quantity is Field.TEMPERATURE
    assert probes[1].x == 0.005 and probes[1].quantity is Field.TEMPERATURE
    assert probes[2].x == 0.0025 and probes[2].quantity is Field.HEAT_FLUX


def test_scenario_validation():
    with pytest.raises(ValueError):
        benchmark_scenario(ModelKind.MCV, tau=0.3, length=0.0)
    # NaN compares false both ways; it used to pass and fail later in Mesh.
    for length in (float("nan"), float("inf"), -0.005):
        with pytest.raises(ValueError, match="bar length"):
            benchmark_scenario(ModelKind.MCV, tau=0.3, length=length)
    # The march is the rise over it, so a NaN would surface only in the
    # reported histories, with no step to blame.
    for temperature in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="initial temperature must be finite"):
            benchmark_scenario(ModelKind.MCV, tau=0.3, initial_temperature=temperature)
    with pytest.raises(ValueError):
        benchmark_scenario("cattaneo", tau=0.3)
    scenario = benchmark_scenario("mcv", tau=0.3)
    assert scenario.model is ModelKind.MCV
    assert scenario.final_time == pytest.approx(10.0)


def test_energy_accounting():
    scenario = benchmark_scenario(ModelKind.FOURIER)
    assert net_boundary_energy(scenario, 10.0) == pytest.approx(TOTAL_FLUENCE, rel=1e-12)
    assert steady_temperature_rise(scenario) == pytest.approx(STEADY_RISE, rel=1e-12)


def test_energy_accounting_requires_flux_data():
    scenario = benchmark_scenario(ModelKind.FOURIER)
    walled = Scenario_replace_bcs(
        scenario,
        BoundarySpec(
            left=DirichletTemperature(constant(300.0)),
            right=DirichletTemperature(constant(293.0)),
        ),
    )
    with pytest.raises(ValueError):
        net_boundary_energy(walled, 1.0)


def Scenario_replace_bcs(scenario, bcs):
    from dataclasses import replace

    return replace(scenario, bcs=bcs)


def test_dimensionless_temperature_maps_steady_state_to_one():
    scenario = benchmark_scenario(ModelKind.FOURIER)
    times = np.array([0.0, 1.0, 2.0])
    series = ProbeSeries(
        label="T_rear",
        location=scenario.length,
        quantity=Field.TEMPERATURE,
        times=times,
        rise=293.0 + STEADY_RISE * np.array([0.0, 0.5, 1.0]),
    )
    dim = dimensionless_temperature(series, scenario)
    assert np.allclose(dim.values, [0.0, 0.5, 1.0], rtol=0.0, atol=1e-10)


def test_dimensionless_temperature_rejects_flux_series():
    scenario = benchmark_scenario(ModelKind.FOURIER)
    series = ProbeSeries(
        label="q_mid",
        location=0.0025,
        quantity=Field.HEAT_FLUX,
        times=np.array([0.0]),
        rise=np.array([0.0]),
    )
    with pytest.raises(ValueError):
        dimensionless_temperature(series, scenario)


def test_solve_transient_shapes_and_probe_wiring():
    scenario = benchmark_scenario(ModelKind.MCV, tau=0.3, n_steps=20)
    run = solve_transient(scenario, n_elements=8, degree=2, theta=1.0)
    assert set(run.series) == {"T_front", "T_rear", "q_mid"}
    for probe in scenario.probes:
        series = run.series[probe.label]
        assert series.times.shape == (21,)
        assert series.values.shape == (21,)
        assert series.quantity is probe.quantity
        assert series.location == probe.x
    assert run.series["T_front"].values[0] == pytest.approx(293.0, rel=1e-12)
    assert run.series["q_mid"].values[0] == pytest.approx(0.0, abs=1e-9)
    # The pulse heats the front face first.
    assert run.series["T_front"].values[-1] > 293.0


def test_final_state_and_field_evaluation():
    scenario = benchmark_scenario(ModelKind.GK, tau=0.3, kappa2=8e-6, n_steps=5)
    run = solve_transient(scenario, n_elements=6, degree=2)
    final = run.solution.final_state
    assert final.shape == (run.system.dim,)
    t_end = scenario.dt * 5
    direct = evaluate_field(run.system, final, 0.0, Field.TEMPERATURE, t_end)
    assert direct == pytest.approx(run.series["T_front"].values[-1], rel=1e-12)


def test_temperature_integral_tracks_injected_energy():
    # After n steps with averaged loads the stored energy equals the pulse
    # integral exactly, step by step.  State n is the final state of the
    # n-step run.
    scenario = benchmark_scenario(ModelKind.MCV, tau=0.3, n_steps=40)
    rho_c = scenario.material.volumetric_heat_capacity
    base = scenario.initial_temperature * scenario.length
    # The balance telescopes exactly; what remains is cancellation roundoff
    # at the scale of the stored energy rho_c T0 L, about 3e6 J/m^2.
    roundoff = 1e-13 * rho_c * base
    for n in (10, 25, 40):
        t = n * scenario.dt
        run = solve_transient(replace(scenario, n_steps=n), n_elements=10, degree=3, theta=1.0)
        stored = rho_c * (temperature_integral(run.system, run.solution.final_state, t) - base)
        injected = net_boundary_energy(scenario, t)
        assert stored == pytest.approx(injected, abs=roundoff)


@pytest.mark.parametrize("held_rear", [False, True])
def test_rise_does_not_depend_on_initial_temperature(held_rear):
    # The pulse raises the slab by 7.7 mK over a 293 K background.  Marching
    # the absolute temperature rounds every step at ulp(293 K), and the badly
    # scaled over-diffuse nonlocal rows amplify that to ~1e-7 of the signal;
    # marching the rise leaves only roundoff at the signal's own scale.
    base = benchmark_scenario(
        ModelKind.GK, tau=0.15, kappa2=0.8, conductivity=STUDY_CONDUCTIVITY, n_steps=1000
    )

    def solve_at(t0):
        scenario = replace(base, initial_temperature=t0)
        if held_rear:
            # Prescribed temperature data lowered by the same offset.
            bcs = BoundarySpec(left=base.bcs.left, right=DirichletTemperature(constant(t0)))
            scenario = replace(scenario, bcs=bcs)
        run = solve_transient(scenario, n_elements=8, degree=8)
        return {
            label: dimensionless_temperature(series, scenario).values
            if series.quantity is Field.TEMPERATURE
            else series.values
            for label, series in run.series.items()
        }

    warm, cold = solve_at(293.0), solve_at(0.0)
    for label in warm:
        gap = np.max(np.abs(warm[label] - cold[label]))
        assert gap <= 1e-10 * np.max(np.abs(cold[label])), label
