"""Acceptance gate: the nine criteria this solver is built against.

Each test exercises one criterion end to end at its stated tolerance and
emits a single verdict line; conftest echoes the lines in the terminal
summary after the run.  Error curves aggregate the three standard probes
by the worst one, so a verdict never hides a bad probe behind a good one.
Expensive transient batches are shared through module-scope fixtures.
"""

import time

import numpy as np
import pytest

from hpheat.assembly import (
    BoundarySpec,
    Field,
    Mesh,
    PrescribedFlux,
    apply_initial_conditions,
    assemble,
)
from hpheat.basis import MAX_DEGREE, ShapeSet, gauss_rule
from hpheat.elemmat import element_matrices
from hpheat.materials import MaterialParams, ModelKind
from hpheat.scenario import (
    PulseParams,
    benchmark_scenario,
    dimensionless_temperature,
    net_boundary_energy,
    solve_transient,
    temperature_integral,
)
from hpheat.study import (
    STUDY_CONDUCTIVITY,
    benchmark_sweep_families,
    compute_reference,
    fd_oracle,
    history_error,
    loglog_slope,
    pre_floor_count,
    run_sweep,
)
from hpheat.timefun import constant
from hpheat.timeint import ThetaScheme, integrate

PROBE_LABELS = ("T_front", "T_rear", "q_mid")
TAUS = (0.05, 0.15, 0.3)

# The double-precision resolution of the relative-max error measure
# max|s - r| / max|r|.  Two histories stored as doubles that differ at the
# sample where |r| peaks differ there by at least one unit in the last place
# of max|r|, which lies between eps/2 and eps times max|r|.  An error at or
# below eps therefore says the compared histories agree to the last bit at
# the scale of the signal: a degenerate comparison (a sweep point measured
# against itself or an identical copy), not a measured discretization error.
MEASURE_RESOLUTION = float(np.finfo(float).eps)

# One flash-heated run per (family, tau) pair the cross checks need, all at
# degree 8 on the mesh that family's refinement study ends on.
FLASH_CASES = (
    ("mcv", ModelKind.MCV, 0.0, 20),
    ("gk_wave", ModelKind.GK, 8e-6, 52),
    ("gk_diffuse", ModelKind.GK, 0.8, 8),
)


def _verdict(add_line, number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    add_line(line)
    assert ok, line


def _worst_curve(report, tau):
    return np.max(
        np.vstack([report.errors[(tau, label)] for label in PROBE_LABELS]), axis=0
    )


@pytest.fixture(scope="module")
def sweep_reports():
    """All six benchmark sweeps against same-grid overkill references."""
    t0 = time.perf_counter()
    by_family = {}
    for spec in benchmark_sweep_families():
        by_family.setdefault(spec.family, []).append(spec)
    reports = {}
    for family, fam_specs in by_family.items():
        refs = {
            tau: compute_reference(fam_specs[0].scenario_factory(tau), theta=1.0)
            for tau in fam_specs[0].taus
        }
        for spec in fam_specs:
            reports[(spec.family, spec.kind)] = run_sweep(spec, refs, theta=1.0)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def flash_runs():
    runs = {}
    t0 = time.perf_counter()
    for family, model, kappa2, n in FLASH_CASES:
        for tau in (0.3,) if family == "mcv" else (0.05, 0.3):
            scenario = benchmark_scenario(
                model, tau=tau, kappa2=kappa2, conductivity=STUDY_CONDUCTIVITY
            )
            runs[(family, tau)] = (scenario, solve_transient(scenario, n, 8, theta=1.0))
    return runs, time.perf_counter() - t0


def test_criterion_1_basis_and_quadrature(acceptance_report):
    t0 = time.perf_counter()
    shapes = ShapeSet(MAX_DEGREE)

    ends = shapes.values(np.array([-1.0, 1.0]))[2:]
    endpoint_dev = float(np.max(np.abs(ends)))

    rule = gauss_rule(MAX_DEGREE + 2)
    derivs = shapes.derivatives(rule.points)[2:]
    gram = (derivs * rule.weights) @ derivs.T
    gram_dev = float(np.max(np.abs(gram - np.eye(MAX_DEGREE - 1))))

    quad_dev = 0.0
    for n in range(1, MAX_DEGREE + 2):
        r = gauss_rule(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            quad_dev = max(quad_dev, abs(float(r.weights @ r.points**k) - exact))

    elapsed = time.perf_counter() - t0
    ok = (
        endpoint_dev <= 1e-14
        and gram_dev <= 1e-12
        and quad_dev <= 1e-13
        and elapsed < 1.0
    )
    _verdict(
        acceptance_report,
        1,
        "hierarchic basis and quadrature",
        ok,
        f"bubble endpoints {endpoint_dev:.1e} <= 1e-14, derivative gram "
        f"{gram_dev:.1e} <= 1e-12, moments {quad_dev:.1e} <= 1e-13; "
        f"{elapsed:.2f} s < 1 s",
    )


def test_criterion_2_semi_discrete_structure(acceptance_report):
    t0 = time.perf_counter()
    bcs = BoundarySpec(
        left=PrescribedFlux(constant(1e4)), right=PrescribedFlux(constant(0.0))
    )
    cases = (
        (ModelKind.FOURIER, MaterialParams(2600.0, 800.0, 3.0)),
        (ModelKind.MCV, MaterialParams(2600.0, 800.0, 3.0, tau=0.3)),
        (ModelKind.GK, MaterialParams(2600.0, 800.0, 3.0, tau=0.3, kappa2=8e-6)),
    )
    rng = np.random.default_rng(20260819)
    asym = coupling = skew = gather = 0.0
    for model, mat in cases:
        for _ in range(3):
            n = int(rng.integers(3, 9))
            p = int(rng.integers(1, 6))
            nodes = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.8, size=n))))
            sys = assemble(Mesh(nodes), mat, model, p, bcs)
            A = sys.A_full.toarray()
            B = sys.B_full.toarray()
            t_dofs = sys.dofmap.field_dofs(Field.TEMPERATURE)
            q_dofs = sys.dofmap.field_dofs(Field.HEAT_FLUX)

            asym = max(asym, np.max(np.abs(A - A.T)) / np.max(np.abs(A)))
            coupling = max(
                coupling,
                float(np.max(np.abs(A[np.ix_(t_dofs, q_dofs)]))),
                float(np.max(np.abs(B[np.ix_(t_dofs, t_dofs)]))),
            )
            b_tq = B[np.ix_(t_dofs, q_dofs)]
            b_qt = B[np.ix_(q_dofs, t_dofs)]
            skew = max(
                skew,
                np.max(np.abs(b_tq + b_qt.T / mat.conductivity))
                / np.max(np.abs(b_tq)),
            )

            degT, degQ = sys.dofmap.spaces[0].degree, sys.dofmap.spaces[1].degree
            A_ref = np.zeros((sys.dofmap.full_dim, sys.dofmap.full_dim))
            B_ref = np.zeros_like(A_ref)
            blocks = element_matrices(Mesh(nodes).jacobians, mat, model, degT, degQ)
            for e in range(n):
                td = sys.dofmap.element_dofs[Field.TEMPERATURE][e]
                qd = sys.dofmap.element_dofs[Field.HEAT_FLUX][e]
                A_ref[np.ix_(td, td)] += blocks.C[e]
                A_ref[np.ix_(qd, qd)] += blocks.T[e]
                B_ref[np.ix_(qd, qd)] += blocks.K[e]
                B_ref[np.ix_(qd, td)] += blocks.Q
                B_ref[np.ix_(td, qd)] -= blocks.Qt
            gather = max(
                gather,
                np.max(np.abs(A - A_ref)) / max(np.max(np.abs(A_ref)), 1.0),
                np.max(np.abs(B - B_ref)) / max(np.max(np.abs(B_ref)), 1.0),
            )

    elapsed = time.perf_counter() - t0
    ok = (
        asym <= 1e-12
        and coupling == 0.0
        and skew <= 1e-12
        and gather <= 1e-12
        and elapsed < 5.0
    )
    _verdict(
        acceptance_report,
        2,
        "semi-discrete block structure",
        ok,
        f"A asymmetry {asym:.1e}, forbidden blocks {coupling:.1e}, skew pair "
        f"{skew:.1e}, scatter-gather {gather:.1e}, all <= 1e-12 rel; "
        f"{elapsed:.2f} s < 5 s",
    )


def test_criterion_3_equilibrium_preservation(acceptance_report):
    cases = (
        (ModelKind.FOURIER, 0.0, 0.0),
        (ModelKind.MCV, 0.3, 0.0),
        (ModelKind.GK, 0.3, 8e-6),
    )
    t_drift = q_drift = slowest = 0.0
    for model, tau, kappa2 in cases:
        scenario = benchmark_scenario(
            model, tau=tau, kappa2=kappa2, pulse=PulseParams(amplitude=0.0)
        )
        t0 = time.perf_counter()
        # March the absolute 293 K state itself: solve_transient marches the
        # rise over the initial temperature, which is identically zero here,
        # and relies on exactly this discrete equilibrium to do so.
        sys = assemble(
            Mesh.uniform(20, scenario.length), scenario.material, model, 4, scenario.bcs
        )
        alpha0 = apply_initial_conditions(sys, 293.0, 0.0)
        # Fully implicit: in the diffusive limit the flux equation is algebraic
        # and the trapezoidal average leaves its roundoff orbit undamped.
        scheme = ThetaScheme(theta=1.0, dt=scenario.dt, n_steps=scenario.n_steps)
        solution = integrate(
            sys, scheme, alpha0, probes=[(p.x, p.quantity) for p in scenario.probes]
        )
        history = {p.label: v for p, v in zip(scenario.probes, solution.probe_values)}
        slowest = max(slowest, time.perf_counter() - t0)
        for label in ("T_front", "T_rear"):
            dev = np.max(np.abs(history[label] - 293.0)) / 293.0
            t_drift = max(t_drift, float(dev))
        # No excitation, so the flux drift is judged against the size of the
        # excitation the benchmark pulse would apply.
        q_drift = max(q_drift, float(np.max(np.abs(history["q_mid"]))) / 1e4)

    ok = t_drift <= 1e-10 and q_drift <= 1e-10 and slowest < 10.0
    _verdict(
        acceptance_report,
        3,
        "equilibrium preservation",
        ok,
        f"10^4 steps, worst T drift {t_drift:.1e}, worst q drift {q_drift:.1e}, "
        f"both <= 1e-10 rel; slowest model {slowest:.2f} s < 10 s",
    )


def test_criterion_4_pulse_energy_deposition(acceptance_report):
    t0 = time.perf_counter()
    scenario = benchmark_scenario(ModelKind.GK, tau=0.3, kappa2=8e-6)
    run = solve_transient(scenario, 20, 4, theta=0.5)

    injected = net_boundary_energy(scenario, scenario.final_time)
    mat = scenario.material
    stored = mat.volumetric_heat_capacity * (
        temperature_integral(run.system, run.solution.final_state, scenario.final_time)
        - scenario.initial_temperature * scenario.length
    )
    energy_rel = abs(stored - injected) / injected
    rear = dimensionless_temperature(run.series["T_rear"], scenario).values[-1]

    elapsed = time.perf_counter() - t0
    ok = (
        abs(injected - 80.0) <= 1e-9
        and energy_rel <= 5e-3
        and 0.9 <= rear <= 1.02
        and elapsed < 30.0
    )
    _verdict(
        acceptance_report,
        4,
        "pulse energy deposition",
        ok,
        f"stored vs injected 80 J/m^2: rel {energy_rel:.2e} <= 5e-3; rear "
        f"dimensionless T at 10 s: {rear:.4f} in [0.9, 1.02]; {elapsed:.1f} s < 30 s",
    )


def test_criterion_5_model_degeneracy_limits(acceptance_report):
    t0 = time.perf_counter()
    lam, tau_small = 300.0, 1e-8
    sc_gk = benchmark_scenario(ModelKind.GK, tau=tau_small, kappa2=0.0, conductivity=lam)
    sc_mcv = benchmark_scenario(ModelKind.MCV, tau=tau_small, conductivity=lam)
    sc_fourier = benchmark_scenario(ModelKind.FOURIER, conductivity=lam)
    run_gk = solve_transient(sc_gk, 52, 8, theta=1.0)
    run_mcv = solve_transient(sc_mcv, 52, 8, theta=1.0)
    run_fourier = solve_transient(sc_fourier, 52, 8, theta=1.0)

    nonlocal_limit = max(
        history_error(run_gk.series[l], run_mcv.series[l], sc_mcv)
        for l in PROBE_LABELS
    )
    relaxational_limit = max(
        history_error(run_mcv.series[l], run_fourier.series[l], sc_fourier)
        for l in PROBE_LABELS
    )

    elapsed = time.perf_counter() - t0
    ok = nonlocal_limit <= 1e-6 and relaxational_limit <= 1e-4 and elapsed < 60.0
    _verdict(
        acceptance_report,
        5,
        "model degeneracy limits",
        ok,
        f"kappa2=0 nonlocal vs relaxational {nonlocal_limit:.2e} <= 1e-6; "
        f"tau=1e-8 relaxational vs diffusive {relaxational_limit:.2e} <= 1e-4; "
        f"{elapsed:.1f} s < 60 s",
    )


def test_criterion_6_mesh_and_degree_convergence(acceptance_report, sweep_reports):
    reports, elapsed = sweep_reports
    violations = []
    floors, slopes_h, slopes_p = {}, {}, {}

    for (family, kind), report in reports.items():
        dofs = report.dofs.astype(float)
        for tau in TAUS:
            curve = _worst_curve(report, tau)
            where = f"{family} {kind}-sweep tau={tau:g}"
            if report.failures or np.any(~np.isfinite(curve)):
                violations.append(f"{where}: failed points")
                continue
            if family == "gk_diffuse" and np.max(curve) > 1e-5:
                violations.append(f"{where}: unresolved, worst {np.max(curve):.1e}")
            count = pre_floor_count(curve)
            if np.any(np.diff(curve[:count]) > 0):
                violations.append(f"{where}: not monotone before the floor")
            if kind == "h" and family in ("mcv", "gk_wave"):
                if np.any(np.diff(curve) > 0):
                    violations.append(f"{where}: not monotone over the whole sweep")
                slopes_h[(family, tau)] = loglog_slope(dofs, curve, count=len(curve))
            if kind == "p":
                floor = float(np.min(curve))
                floors[(family, tau)] = floor
                # Below: a measured error, not a degenerate comparison.
                if not MEASURE_RESOLUTION < floor <= 1e-6:
                    violations.append(f"{where}: floor {floor:.1e} outside (eps, 1e-6]")
                if family in ("mcv", "gk_wave"):
                    slopes_p[(family, tau)] = loglog_slope(dofs, curve)

    spreads = {}
    for family in ("mcv", "gk_wave"):
        for tau in TAUS:
            sp, sh = slopes_p[(family, tau)], slopes_h[(family, tau)]
            if not sp < sh:
                violations.append(
                    f"{family} tau={tau:g}: degree slope {sp:.2f} not steeper "
                    f"than mesh slope {sh:.2f}"
                )
        vals = np.array([slopes_h[(family, tau)] for tau in TAUS])
        spread = float(np.max(np.abs(vals - vals.mean())) / abs(vals.mean()))
        spreads[family] = spread
        if spread >= 0.15:
            violations.append(f"{family}: mesh slope spread over tau {spread:.1%}")

        report = reports[(family, "h")]
        curves = [_worst_curve(report, tau) for tau in TAUS]
        if not (np.all(curves[0] <= curves[1]) and np.all(curves[1] <= curves[2])):
            violations.append(f"{family}: larger tau not uniformly harder")

    ok = not violations and elapsed < 900.0
    if ok:
        detail = (
            f"18 sweeps monotone to the floor; degree floors "
            f"{min(floors.values()):.1e}..{max(floors.values()):.1e} in (eps, 1e-6]; "
            f"degree slopes steeper than mesh slopes; mesh slopes stable over tau "
            f"(spread {spreads['mcv']:.1%} and {spreads['gk_wave']:.1%} < 15%); "
            f"{elapsed:.0f} s < 900 s"
        )
    else:
        shown = "; ".join(violations[:4]) if violations else f"overran {elapsed:.0f} s"
        detail = f"{len(violations)} violations: {shown}"
    _verdict(acceptance_report, 6, "mesh and degree convergence", ok, detail)


def test_criterion_7_finite_difference_cross_check(acceptance_report, flash_runs):
    runs, fixture_elapsed = flash_runs
    t0 = time.perf_counter()
    worst = {}
    for family, model, kappa2, n in FLASH_CASES:
        scenario, run = runs[(family, 0.3)]
        oracle = fd_oracle(scenario, cells=2000, theta=1.0)
        worst[family] = max(
            history_error(run.series[l], oracle.series[l], scenario)
            for l in PROBE_LABELS
        )
    elapsed = fixture_elapsed + time.perf_counter() - t0
    ok = all(v <= 5e-3 for v in worst.values()) and elapsed < 300.0
    _verdict(
        acceptance_report,
        7,
        "finite difference cross-check",
        ok,
        f"worst probe mismatch: relaxational {worst['mcv']:.1e}, wave-like "
        f"nonlocal {worst['gk_wave']:.1e}, over-diffuse {worst['gk_diffuse']:.1e}, "
        f"all <= 5e-3; {elapsed:.0f} s < 300 s",
    )


def test_criterion_8_over_diffuse_contrast(acceptance_report, flash_runs):
    runs, fixture_elapsed = flash_runs
    t0 = time.perf_counter()
    contrast = {}
    for family in ("gk_wave", "gk_diffuse"):
        scenario, run_slow = runs[(family, 0.3)]
        _, run_fast = runs[(family, 0.05)]
        contrast[family] = history_error(
            run_fast.series["T_rear"], run_slow.series["T_rear"], scenario
        )
    ratio = contrast["gk_wave"] / contrast["gk_diffuse"]
    elapsed = fixture_elapsed + time.perf_counter() - t0
    ok = ratio >= 10.0 and elapsed < 120.0
    _verdict(
        acceptance_report,
        8,
        "over-diffuse regime contrast",
        ok,
        f"rear-history tau sensitivity: wave-like {contrast['gk_wave']:.2e} vs "
        f"over-diffuse {contrast['gk_diffuse']:.2e}, ratio {ratio:.0f} >= 10; "
        f"{elapsed:.0f} s < 120 s",
    )


def test_criterion_9_throughput(acceptance_report):
    scenario = benchmark_scenario(
        ModelKind.GK, tau=0.3, kappa2=8e-6, conductivity=STUDY_CONDUCTIVITY
    )
    t0 = time.perf_counter()
    run = solve_transient(scenario, 100, 10, theta=1.0)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _verdict(
        acceptance_report,
        9,
        "throughput",
        ok,
        f"10^4 implicit steps at {run.system.dofmap.total_dofs} unknowns in "
        f"{elapsed:.2f} s < 10 s",
    )
