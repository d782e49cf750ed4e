"""Benchmark scenario definitions: materials, pulse excitation, probes.

The reference configuration is a 5 mm rigid slab, initially in equilibrium
at 293 K, insulated everywhere except for a short heat pulse entering the
front face.  Front and rear temperatures and the mid-plane flux are recorded
for 10 s at a 1 ms step.  Temperatures are usually reported rescaled so the
adiabatic steady state sits at one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .assembly import (
    BoundarySpec,
    Field,
    PrescribedFlux,
    Mesh,
    SemiDiscreteSystem,
    apply_initial_conditions,
    assemble,
    field_integral_weights,
)
from .materials import MaterialParams, ModelKind
from .timefun import TimeFunction, constant
from .timeint import ThetaScheme, TransientSolution, integrate

# Conduction coefficient suggestion for the rock-like benchmark material.
# It is a configuration choice, not a measured value; every physical result
# in this package is parameterized by the configured conductivity.
SUGGESTED_CONDUCTIVITY = 3.0


@dataclass(frozen=True)
class PulseParams:
    """Two-exponential flux pulse, zero at t = 0, total energy amplitude * t_p."""

    amplitude: float = 10000.0
    c1: float = 1.0 / 0.075
    c2: float = 6.0
    t_p: float = 0.008

    def __post_init__(self) -> None:
        if self.c1 == self.c2:
            raise ValueError("pulse rate constants must differ")
        if self.c1 == 0.0 or self.c2 == 0.0:
            raise ValueError(f"pulse rate constants must be nonzero, got {self.c1}, {self.c2}")
        if self.t_p <= 0.0:
            raise ValueError(f"pulse time scale must be positive, got {self.t_p}")


def flash_pulse(params: PulseParams = PulseParams()) -> TimeFunction:
    """The pulse as a TimeFunction with its closed-form running integral.

        q(t) = amplitude * (c1 c2 / (c2 - c1)) * (exp(-c1 t / t_p) - exp(-c2 t / t_p))

    The closed-form running integral is what lets the time integrator consume
    the pulse energy exactly: int_0^inf q dt = amplitude * t_p.
    """
    a, c1, c2, t_p = params.amplitude, params.c1, params.c2, params.t_p
    scale = a * c1 * c2 / (c2 - c1)

    def value(t: float) -> float:
        return scale * (exp(-c1 * t / t_p) - exp(-c2 * t / t_p))

    def integral(t: float) -> float:
        return scale * (
            t_p / c1 * (1.0 - exp(-c1 * t / t_p))
            - t_p / c2 * (1.0 - exp(-c2 * t / t_p))
        )

    return TimeFunction(value=value, integral=integral)


@dataclass(frozen=True)
class Probe:
    label: str
    x: float
    quantity: Field


@dataclass(frozen=True)
class ProbeSeries:
    """Time history of one field value at a fixed point.

    The history is stored once, as `rise` over the constant `offset`, and
    `values` = offset + rise is the absolute history.  solve_transient stores
    its temperature probes as the computed rise over the initial temperature
    (offset T0); every other series has offset 0 and rise = values.
    """

    label: str
    location: float
    quantity: Field
    times: np.ndarray
    rise: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.times.shape != self.rise.shape:
            raise ValueError("times and values must have equal length")

    @property
    def values(self) -> np.ndarray:
        return self.rise + self.offset if self.offset else self.rise

    def above(self, level: float) -> np.ndarray:
        """values - level, exact when level is the stored offset."""
        return self.rise + (self.offset - level)


@dataclass(frozen=True)
class Scenario:
    """Problem statement independent of any discretization choice."""

    material: MaterialParams
    model: ModelKind
    length: float
    bcs: BoundarySpec
    initial_temperature: float
    dt: float
    n_steps: int
    probes: tuple[Probe, ...]

    def __post_init__(self) -> None:
        # Accept the enum value string too; a typo must not silently select
        # the wrong flux space.
        object.__setattr__(self, "model", ModelKind(self.model))
        if not 0.0 < self.length < np.inf:
            raise ValueError(f"bar length must be finite and positive, got {self.length}")

    @property
    def final_time(self) -> float:
        return self.n_steps * self.dt


def standard_probes(length: float) -> tuple[Probe, ...]:
    return (
        Probe("T_front", 0.0, Field.TEMPERATURE),
        Probe("T_rear", length, Field.TEMPERATURE),
        Probe("q_mid", 0.5 * length, Field.HEAT_FLUX),
    )


def benchmark_material(
    tau: float = 0.0,
    kappa2: float = 0.0,
    conductivity: float = SUGGESTED_CONDUCTIVITY,
) -> MaterialParams:
    """Rock-like benchmark conductor: rho = 2600 kg/m^3, c_v = 800 J/(kg K)."""
    return MaterialParams(
        rho=2600.0, c_v=800.0, conductivity=conductivity, tau=tau, kappa2=kappa2
    )


def benchmark_scenario(
    model: ModelKind,
    tau: float = 0.0,
    kappa2: float = 0.0,
    conductivity: float = SUGGESTED_CONDUCTIVITY,
    pulse: PulseParams = PulseParams(),
    length: float = 0.005,
    initial_temperature: float = 293.0,
    dt: float = 1e-3,
    n_steps: int = 10000,
) -> Scenario:
    """Flash-heated slab: pulse enters at x = 0, the far face stays insulated."""
    material = benchmark_material(tau=tau, kappa2=kappa2, conductivity=conductivity)
    bcs = BoundarySpec(
        left=PrescribedFlux(flash_pulse(pulse)),
        right=PrescribedFlux(constant(0.0)),
    )
    return Scenario(
        material=material,
        model=model,
        length=length,
        bcs=bcs,
        initial_temperature=initial_temperature,
        dt=dt,
        n_steps=n_steps,
        probes=standard_probes(length),
    )


@dataclass
class TransientRun:
    """A scenario solved on one mesh/degree pair.

    system carries the scenario's absolute boundary data, and the solution's
    final state is absolute, so system.full_state applies to it directly.  The
    solution's probe_values are the marched histories: the temperature rows
    hold the rise over the initial temperature, shared with series[...].rise.
    """

    scenario: Scenario
    system: SemiDiscreteSystem
    solution: TransientSolution
    series: dict[str, ProbeSeries]


def discretize(
    scenario: Scenario, n_elements: int, degree: int
) -> tuple[SemiDiscreteSystem, SemiDiscreteSystem, list[tuple[float, Field]]]:
    """The scenario on a uniform mesh of the given element count and degree.

    Returns its system, the same system with every prescribed temperature
    lowered by the initial temperature T0, which marches the rise T - T0
    from the zero state, and the probe points.
    """
    mesh = Mesh.uniform(n_elements, scenario.length)
    sys = assemble(mesh, scenario.material, scenario.model, degree, scenario.bcs)
    probes = [(probe.x, probe.quantity) for probe in scenario.probes]
    return sys, sys.lowered_temperatures(scenario.initial_temperature), probes


def rise_run(
    scenario: Scenario, sys: SemiDiscreteSystem, solution: TransientSolution
) -> TransientRun:
    """The run of a rise marched on discretize's lowered system: T0 added
    back to the final state, and the probe series, temperatures with offset T0."""
    t0 = scenario.initial_temperature
    solution.final_state += apply_initial_conditions(sys, t0, 0.0)
    series = {
        probe.label: ProbeSeries(
            label=probe.label,
            location=probe.x,
            quantity=probe.quantity,
            times=solution.times,
            rise=solution.probe_values[i],
            offset=t0 if probe.quantity is Field.TEMPERATURE else 0.0,
        )
        for i, probe in enumerate(scenario.probes)
    }
    return TransientRun(
        scenario=scenario,
        system=sys,
        solution=solution,
        series=series,
    )


def solve_transient(
    scenario: Scenario,
    n_elements: int,
    degree: int,
    theta: float = 0.5,
) -> TransientRun:
    """March the scenario on a uniform mesh of the given element count and degree.

    The unknown is the rise T - T0 over the uniform initial temperature T0,
    not T itself.  The signal is a few millikelvin on a 293 K background;
    marching T would round every step at the background's last place, and
    the badly scaled over-diffuse rows amplify that roundoff far above the
    discretization error.  Constants are exact equilibria of the
    semi-discrete system, so the rise obeys the same equations from the zero
    state, with prescribed temperatures lowered by T0.  T0 comes back once
    per run: added to the returned final state, and as the offset of the
    temperature probe series.
    """
    sys, lowered, probes = discretize(scenario, n_elements, degree)
    scheme = ThetaScheme(theta=theta, dt=scenario.dt, n_steps=scenario.n_steps)
    solution = integrate(lowered, scheme, np.zeros(sys.dim), probes=probes)
    return rise_run(scenario, sys, solution)


def net_boundary_energy(scenario: Scenario, t: float) -> float:
    """Energy per unit area entering through the flux boundaries up to time t."""
    total = 0.0
    seen_flux_end = False
    for bc, sign in ((scenario.bcs.left, 1.0), (scenario.bcs.right, -1.0)):
        if isinstance(bc, PrescribedFlux):
            seen_flux_end = True
            total += sign * bc.value.integral(t)
    if not seen_flux_end:
        raise ValueError("no flux boundary: the injected energy is not prescribed")
    return total


def steady_temperature_rise(scenario: Scenario) -> float:
    """Adiabatic equilibration temperature rise of the injected pulse energy."""
    energy = net_boundary_energy(scenario, scenario.final_time)
    if energy == 0.0:
        raise ValueError("zero net energy input: no steady temperature rise to scale by")
    return energy / (scenario.material.volumetric_heat_capacity * scenario.length)


def dimensionless_temperature(series: ProbeSeries, scenario: Scenario) -> ProbeSeries:
    """(T - T0) / rise, so the adiabatic steady state maps to one."""
    if series.quantity is not Field.TEMPERATURE:
        raise ValueError(f"need a temperature probe, got {series.quantity}")
    rise = steady_temperature_rise(scenario)
    return ProbeSeries(
        label=series.label,
        location=series.location,
        quantity=series.quantity,
        times=series.times,
        rise=series.above(scenario.initial_temperature) / rise,
    )


def temperature_integral(sys: SemiDiscreteSystem, alpha: np.ndarray, t: float) -> float:
    """Integral of the temperature field over the domain at one instant."""
    w = field_integral_weights(sys.dofmap, Field.TEMPERATURE)
    return float(w @ sys.full_state(alpha, t))

