"""Convergence study driver: sweeps, references, and the error measure.

A sweep holds one discretization family (mesh refinement at fixed degree, or
degree elevation on a fixed mesh) over a list of relaxation times.  Every run
shares the reference's time grid, so the reported error

    e = max_t |probe - probe_ref| / max_t |probe_ref|

isolates the spatial discretization.  Temperature histories are compared
as rises over the initial temperature (equivalently, on the dimensionless
rescaling): the signal of interest is a few millikelvin on a 293 K
background, and measuring against the raw magnitude would deflate every
error by the offset ratio.  solve_transient and the difference oracle
march that rise themselves and their series keep it as computed, so the
measure reads it directly instead of rounding it through the 293 K
background and back.

The benchmark sweeps run at STUDY_CONDUCTIVITY rather than the physical
suggestion: convergence rates are only observable when the thermal signal is
resolvable on the benchmark meshes, which constrains the wave speed
sqrt(conductivity / (rho c_v tau)) against the mesh spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .assembly import Field, Mesh, PrescribedFlux, build_dofmap
from .fdoracle import fd_solve
from .materials import ModelKind
from .scenario import ProbeSeries, Scenario, benchmark_scenario, solve_transient

# Conduction coefficient of the convergence benchmarks.  Chosen so that the
# relaxational wave crosses the slab over many time steps while the front the
# integrator actually propagates stays resolvable on the coarsest study
# meshes; see the sweep definitions below.
STUDY_CONDUCTIVITY = 3.0e3

# Overkill resolution of the element reference, and the cell count of the
# difference oracle.
REFERENCE_ELEMENTS = 100
REFERENCE_DEGREE = 10
ORACLE_CELLS = 2000

# A curve is considered to have reached its error floor once it drops within
# this factor of its own minimum; convergence-rate fits stop there.
PRE_FLOOR_FACTOR = 10.0


@dataclass(frozen=True)
class SweepSpec:
    """One convergence family: kind 'h' varies the mesh, 'p' the degree."""

    family: str
    kind: str
    values: tuple[int, ...]
    fixed: int
    taus: tuple[float, ...]
    scenario_factory: Callable[[float], Scenario]

    def __post_init__(self) -> None:
        if self.kind not in ("h", "p"):
            raise ValueError(f"sweep kind must be 'h' or 'p', got {self.kind!r}")
        if len(self.values) < 2:
            raise ValueError("a sweep needs at least two points")

    def discretization(self, value: int) -> tuple[int, int]:
        """(n_elements, degree) of one sweep point."""
        if self.kind == "h":
            return value, self.fixed
        return self.fixed, value


@dataclass(frozen=True)
class ReferenceSolution:
    """Probe histories a sweep is measured against."""

    provenance: str
    scenario: Scenario
    series: dict[str, ProbeSeries]
    detail: str


@dataclass(frozen=True)
class ErrorReport:
    """Per-tau, per-probe error curves over the sweep points."""

    spec: SweepSpec
    dofs: np.ndarray
    errors: dict[tuple[float, str], np.ndarray]
    failures: tuple[tuple[int, float, str], ...]


def relative_max_error(series: ProbeSeries, ref: ProbeSeries) -> float:
    """max_t |series - ref| / max_t |ref| on a shared time grid."""
    if series.values.shape != ref.values.shape:
        raise ValueError("series and reference lengths differ")
    if not np.allclose(series.times, ref.times, rtol=0.0, atol=1e-12):
        raise ValueError("series and reference time grids differ")
    denom = float(np.max(np.abs(ref.values)))
    if denom == 0.0:
        raise ValueError("reference history is identically zero")
    return float(np.max(np.abs(series.values - ref.values))) / denom


def history_error(series: ProbeSeries, ref: ProbeSeries, scenario: Scenario) -> float:
    """The sweep error measure: rise over T0 for temperatures, raw for flux."""
    if series.quantity is Field.TEMPERATURE:
        t0 = scenario.initial_temperature
        series, ref = (replace(s, rise=s.above(t0), offset=0.0) for s in (series, ref))
    return relative_max_error(series, ref)


def compute_reference(
    scenario: Scenario,
    n_elements: int = REFERENCE_ELEMENTS,
    degree: int = REFERENCE_DEGREE,
    theta: float = 0.5,
) -> ReferenceSolution:
    """Overkill element reference at the plotting resolution, same time grid."""
    run = solve_transient(scenario, n_elements, degree, theta=theta)
    return ReferenceSolution(
        provenance="overkill_fem",
        scenario=scenario,
        series=run.series,
        detail=f"n={n_elements}, p={degree}",
    )


def fd_oracle(
    scenario: Scenario,
    cells: int = ORACLE_CELLS,
    dt: float | None = None,
    theta: float = 0.5,
) -> ReferenceSolution:
    """Independent staggered finite-difference reference for cross-validation."""
    if not isinstance(scenario.bcs.left, PrescribedFlux) or not isinstance(
        scenario.bcs.right, PrescribedFlux
    ):
        raise ValueError("the difference oracle supports flux conditions on both ends")
    if dt is None:
        dt = scenario.dt
    n_steps = round(scenario.final_time / dt)
    if abs(n_steps * dt - scenario.final_time) > 1e-9 * scenario.final_time:
        raise ValueError("oracle step size must divide the scenario horizon")
    t_probes = tuple(p.x for p in scenario.probes if p.quantity is Field.TEMPERATURE)
    q_probes = tuple(p.x for p in scenario.probes if p.quantity is Field.HEAT_FLUX)
    sol = fd_solve(
        scenario.material,
        scenario.length,
        scenario.initial_temperature,
        scenario.bcs.left.value,
        scenario.bcs.right.value,
        cells=cells,
        dt=dt,
        n_steps=n_steps,
        theta=theta,
        probe_temperatures=t_probes,
        probe_fluxes=q_probes,
    )
    series = {}
    for probe in scenario.probes:
        temperature = probe.quantity is Field.TEMPERATURE
        series[probe.label] = ProbeSeries(
            label=probe.label,
            location=probe.x,
            quantity=probe.quantity,
            times=sol.times,
            rise=(sol.temperature_rise if temperature else sol.flux_probes)[probe.x],
            offset=scenario.initial_temperature if temperature else 0.0,
        )
    return ReferenceSolution(
        provenance="finite_difference_oracle",
        scenario=scenario,
        series=series,
        detail=f"cells={cells}, dt={dt}",
    )


def run_sweep(
    spec: SweepSpec,
    references: Mapping[float, ReferenceSolution],
    theta: float = 0.5,
) -> ErrorReport:
    """Solve every sweep point for every tau and report the error curves.

    Points are solved one at a time, in sweep order: by value, then by tau.
    A failed point is recorded and left as NaN in its error columns; the rest
    of the sweep still completes, and the failures come in that same order.
    A point whose discretization cannot even be built (say a degree above the
    basis cap) keeps -1 as its DOF entry and fails for every tau.
    """
    for tau in spec.taus:
        if tau not in references:
            raise KeyError(f"missing reference for tau = {tau}")

    base = spec.scenario_factory(spec.taus[0])
    probe_labels = [p.label for p in base.probes]
    errors = {
        (tau, label): np.full(len(spec.values), np.nan)
        for tau in spec.taus
        for label in probe_labels
    }
    failures: list[tuple[int, float, str]] = []
    dofs = np.empty(len(spec.values), dtype=int)
    for i, value in enumerate(spec.values):
        n, p = spec.discretization(value)
        try:
            dofmap = build_dofmap(Mesh.uniform(n, base.length), base.model, p, base.bcs)
        except (ValueError, TypeError) as exc:
            dofs[i] = -1
            failures.extend((value, tau, str(exc)) for tau in spec.taus)
            continue
        dofs[i] = dofmap.total_dofs
        for tau in spec.taus:
            try:
                scenario = spec.scenario_factory(tau)
                run = solve_transient(scenario, n, p, theta=theta)
            except Exception as exc:
                failures.append((value, tau, str(exc)))
                continue
            ref = references[tau]
            for label in probe_labels:
                errors[(tau, label)][i] = history_error(
                    run.series[label], ref.series[label], scenario
                )

    return ErrorReport(spec=spec, dofs=dofs, errors=errors, failures=tuple(failures))


def pre_floor_count(errors: np.ndarray) -> int:
    """Points before (and including) the first entry at the curve's floor."""
    finite = errors[np.isfinite(errors)]
    if finite.size == 0:
        return 0
    floor = float(np.min(finite))
    for i, e in enumerate(errors):
        if e <= PRE_FLOOR_FACTOR * floor:
            return i + 1
    return len(errors)


def loglog_slope(dofs: np.ndarray, errors: np.ndarray, count: int | None = None) -> float:
    """Least-squares slope of log(error) against log(DOF)."""
    if count is None:
        count = pre_floor_count(errors)
    if count < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(dofs[:count]), np.log(errors[:count]), 1)[0])


def benchmark_sweep_families(
    conductivity: float = STUDY_CONDUCTIVITY,
    taus: tuple[float, ...] = (0.05, 0.15, 0.3),
    dt: float = 1e-3,
    n_steps: int = 10000,
) -> tuple[SweepSpec, ...]:
    """The six benchmark sweeps: {relaxational, nonlocal wave-like, nonlocal
    over-diffuse} each as a mesh family at degree 2 and a degree family on the
    fixed mesh the refinements end-to-end match."""

    def factory(model: ModelKind, kappa2: float) -> Callable[[float], Scenario]:
        def make(tau: float) -> Scenario:
            return benchmark_scenario(
                model,
                tau=tau,
                kappa2=kappa2,
                conductivity=conductivity,
                dt=dt,
                n_steps=n_steps,
            )

        return make

    families = (
        ("mcv", ModelKind.MCV, 0.0, 20, (20, 24, 28, 32, 36, 40, 44)),
        ("gk_wave", ModelKind.GK, 8e-6, 52, (52, 58, 64, 70, 76, 82, 88)),
        ("gk_diffuse", ModelKind.GK, 0.8, 8, (8, 10, 12, 14, 16, 18, 20)),
    )
    specs = []
    for name, model, kappa2, n_fixed, h_values in families:
        make = factory(model, kappa2)
        specs.append(
            SweepSpec(
                family=name,
                kind="h",
                values=h_values,
                fixed=2,
                taus=taus,
                scenario_factory=make,
            )
        )
        specs.append(
            SweepSpec(
                family=name,
                kind="p",
                values=(2, 3, 4, 5, 6, 7, 8),
                fixed=n_fixed,
                taus=taus,
                scenario_factory=make,
            )
        )
    return tuple(specs)
