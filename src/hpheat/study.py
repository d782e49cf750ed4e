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
from .scenario import (
    ProbeSeries,
    Scenario,
    TransientRun,
    benchmark_scenario,
    discretize,
    rise_run,
    solve_transient,
)
from .timeint import ThetaScheme, TransientSolution, integrate_stack, prepare

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
        if len(self.values) < 2 or not self.taus:
            raise ValueError("a sweep needs at least two points and one relaxation time")
        for name, entries in (("values", self.values), ("taus", self.taus)):
            if len(set(entries)) < len(entries):
                raise ValueError(f"sweep {name} must not repeat an entry, got {entries}")

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
    theta: float = 0.5,
) -> ReferenceSolution:
    """Independent staggered finite-difference reference for cross-validation.

    The oracle marches the scenario's own time grid (dt, n_steps), the grid
    history_error compares on.
    """
    if not isinstance(scenario.bcs.left, PrescribedFlux) or not isinstance(
        scenario.bcs.right, PrescribedFlux
    ):
        raise ValueError("the difference oracle supports flux conditions on both ends")
    t_probes = tuple(p.x for p in scenario.probes if p.quantity is Field.TEMPERATURE)
    q_probes = tuple(p.x for p in scenario.probes if p.quantity is Field.HEAT_FLUX)
    sol = fd_solve(
        scenario.material,
        scenario.length,
        scenario.initial_temperature,
        scenario.bcs.left.value,
        scenario.bcs.right.value,
        cells=cells,
        dt=scenario.dt,
        n_steps=scenario.n_steps,
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
        detail=f"cells={cells}, dt={scenario.dt}",
    )


@dataclass(frozen=True)
class SweepRuns:
    """The runs of every sweep member that marched, by (value, tau), and the
    failures of the rest, by value, then by tau."""

    dofs: np.ndarray
    runs: dict[tuple[int, float], TransientRun]
    failures: tuple[tuple[int, float, str], ...]


def solve_sweep(spec: SweepSpec, theta: float = 0.5) -> SweepRuns:
    """The runs behind run_sweep: every sweep member solved as
    solve_transient would solve it, stacked as run_sweep describes."""
    base = spec.scenario_factory(spec.taus[0])
    failures: dict[tuple[int, int], str] = {}
    stacks: dict[ThetaScheme, list] = {}
    dofs = np.empty(len(spec.values), dtype=int)
    for i, value in enumerate(spec.values):
        n, p = spec.discretization(value)
        try:
            dofmap = build_dofmap(Mesh.uniform(n, base.length), base.model, p, base.bcs)
        except (ValueError, TypeError) as exc:
            dofs[i] = -1
            failures.update(((i, j), str(exc)) for j in range(len(spec.taus)))
            continue
        dofs[i] = dofmap.total_dofs
        for j, tau in enumerate(spec.taus):
            try:
                scenario = spec.scenario_factory(tau)
                scheme = ThetaScheme(theta=theta, dt=scenario.dt, n_steps=scenario.n_steps)
                sys, lowered, probes = discretize(scenario, n, p)
                member = prepare(lowered, scheme, probes)
            except Exception as exc:
                failures[(i, j)] = str(exc)
                continue
            stacks.setdefault(scheme, []).append(((i, j), scenario, sys, member))

    runs = {}
    for scheme, stack in stacks.items():
        results = integrate_stack([member for *_, member in stack], scheme)
        for ((i, j), scenario, sys, _), result in zip(stack, results):
            if isinstance(result, TransientSolution):
                runs[(spec.values[i], spec.taus[j])] = rise_run(scenario, sys, result)
            else:
                failures[(i, j)] = str(result)
    ordered = tuple(
        (spec.values[i], spec.taus[j], message) for (i, j), message in sorted(failures.items())
    )
    return SweepRuns(dofs=dofs, runs=runs, failures=ordered)


def run_sweep(
    spec: SweepSpec,
    references: Mapping[float, ReferenceSolution],
    theta: float = 0.5,
) -> ErrorReport:
    """Solve every sweep point for every tau and report the error curves.

    Every (value, tau) member is prepared as solve_transient prepares it,
    and the members that share a time grid and theta (all of them, in the
    benchmark sweeps) are stacked into one block-diagonal system: each
    member is condensed on its own, and the stack marches once, with one
    sparse product, load update and narrow vertex back-substitution per
    step for all of them.  That replaces one Python
    time loop per member by one per stack, and every member's histories stay
    bit for bit those of solve_transient.

    Failures stay per member, and the rest of the sweep still completes; a
    failed member is left as NaN in its error columns, and the failures come
    by value, then by tau:

    - a point whose discretization cannot even be built (say a degree above
      the basis cap) keeps -1 as its DOF entry and fails for every tau;
    - a member whose preparation fails, for instance on non-finite boundary
      data, fails before it is stacked, naming the step of the bad data;
    - a member whose factorization fails is left out of its stack, and its
      error names the pivot within the member;
    - a NaN or infinity in one block of the stack reaches every other block
      within one step, because the banded back-substitution multiplies the
      band's stored zeros by it.  So when any member ends non-finite, every
      member of that stack is marched again alone through the same core: a
      bad member then names its own step, and never costs the others their
      histories.
    """
    for tau in spec.taus:
        if tau not in references:
            raise KeyError(f"missing reference for tau = {tau}")

    sweep = solve_sweep(spec, theta)
    probe_labels = [p.label for p in spec.scenario_factory(spec.taus[0]).probes]
    errors = {
        (tau, label): np.full(len(spec.values), np.nan)
        for tau in spec.taus
        for label in probe_labels
    }
    for i, value in enumerate(spec.values):
        for tau in spec.taus:
            run = sweep.runs.get((value, tau))
            if run is None:
                continue
            ref = references[tau]
            for label in probe_labels:
                errors[(tau, label)][i] = history_error(
                    run.series[label], ref.series[label], run.scenario
                )

    return ErrorReport(spec=spec, dofs=sweep.dofs, errors=errors, failures=sweep.failures)


def pre_floor_count(errors: np.ndarray) -> int:
    """Points before (and including) the first entry at the curve's floor.
    The errors are >= 0 or NaN, so the floor itself is such an entry."""
    finite = errors[np.isfinite(errors)]
    if finite.size == 0:
        return 0
    return int(np.argmax(errors <= PRE_FLOOR_FACTOR * np.min(finite))) + 1


def loglog_slope(dofs: np.ndarray, errors: np.ndarray, count: int | None = None) -> float:
    """Least-squares slope of log(error) against log(DOF)."""
    if count is None:
        count = pre_floor_count(errors)
    if count < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(dofs[:count]), np.log(errors[:count]), 1)[0])


def benchmark_sweep_families(
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
                conductivity=STUDY_CONDUCTIVITY,
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
