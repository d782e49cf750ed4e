"""Unit tests for the convergence study driver and its error bookkeeping."""

from dataclasses import replace

import numpy as np
import pytest

import hpheat.study
import hpheat.timeint
from hpheat.assembly import BoundarySpec, DirichletTemperature, Field, PrescribedFlux
from hpheat.materials import ModelKind
from hpheat.scenario import (
    PulseParams,
    ProbeSeries,
    benchmark_scenario,
    flash_pulse,
    solve_transient,
)
from hpheat.timefun import ZERO, NonFiniteStateError
from hpheat.timeint import FactorizationError, build_factorization
from hpheat.study import (
    PRE_FLOOR_FACTOR,
    STUDY_CONDUCTIVITY,
    ErrorReport,
    ReferenceSolution,
    SweepSpec,
    benchmark_sweep_families,
    compute_reference,
    fd_oracle,
    history_error,
    loglog_slope,
    pre_floor_count,
    relative_max_error,
    run_sweep,
    solve_sweep,
)


def t_series(values, times=None, label="T_rear", x=0.005):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(values.size, dtype=float)
    return ProbeSeries(
        label=label, location=x, quantity=Field.TEMPERATURE,
        times=np.asarray(times, dtype=float), rise=values,
    )


def q_series(values, label="q_mid", x=0.0025):
    values = np.asarray(values, dtype=float)
    return ProbeSeries(
        label=label, location=x, quantity=Field.HEAT_FLUX,
        times=np.arange(values.size, dtype=float), rise=values,
    )


# ------------------------------------------------------------ error measure


def test_relative_max_error_hand_values():
    ref = q_series([1.0, 2.5, 3.0])
    got = q_series([1.0, 2.0, 3.0])
    assert relative_max_error(got, ref) == pytest.approx(0.5 / 3.0, rel=1e-14)
    assert relative_max_error(ref, ref) == 0.0
    bumped = q_series([1.0, 2.5, 3.0 + 1e-9])
    assert relative_max_error(bumped, ref) == pytest.approx(1e-9 / 3.0, rel=1e-6)


def test_relative_max_error_validation():
    ref = q_series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        relative_max_error(q_series([1.0, 2.0]), ref)
    shifted_times = ProbeSeries(
        label="q_mid", location=0.0025, quantity=Field.HEAT_FLUX,
        times=np.array([0.0, 1.5, 2.0]), rise=np.array([1.0, 2.0, 3.0]),
    )
    with pytest.raises(ValueError):
        relative_max_error(shifted_times, ref)
    with pytest.raises(ValueError):
        relative_max_error(q_series([0.0, 0.0]), q_series([0.0, 0.0]))


def test_history_error_removes_temperature_offset():
    # A few millikelvin of signal on a 293 K background: the offset must not
    # deflate the error by five orders of magnitude.
    scenario = benchmark_scenario(ModelKind.FOURIER)
    t0 = scenario.initial_temperature
    ref = t_series(t0 + np.array([0.0, 0.1, 0.2]))
    got = t_series(t0 + np.array([0.0, 0.1, 0.25]))
    assert history_error(got, ref, scenario) == pytest.approx(0.25, rel=1e-12)

    qref = q_series([0.0, 10.0, 20.0])
    qgot = q_series([0.0, 10.0, 25.0])
    assert history_error(qgot, qref, scenario) == pytest.approx(0.25, rel=1e-12)


# ------------------------------------------------------------ curve shape


def test_pre_floor_count_prefix_semantics():
    # Count runs up to and including the first entry within the floor factor.
    errors = np.array([1.0, 1e-1, 1e-2, 1e-8, 2e-8, 1.5e-8])
    assert pre_floor_count(errors) == 4
    # A curve that only spans a factor below the threshold floors immediately.
    assert pre_floor_count(np.array([1.0, 0.5, 0.2])) == 1
    # NaNs from failed points do not contribute a floor.
    assert pre_floor_count(np.array([np.nan, np.nan])) == 0
    assert pre_floor_count(np.array([1e-2, np.nan, 1e-9, 2e-9])) == 3
    assert PRE_FLOOR_FACTOR == 10.0


def test_loglog_slope_recovers_power_law():
    dofs = np.array([10.0, 20.0, 40.0, 80.0])
    errors = 7.3 * dofs**-3.0
    assert loglog_slope(dofs, errors) == pytest.approx(-3.0, rel=1e-12)
    assert loglog_slope(dofs, errors, count=2) == pytest.approx(-3.0, rel=1e-12)
    with pytest.raises(ValueError):
        loglog_slope(dofs, errors, count=1)
    # Floored curve: the fit must ignore the flat tail.
    floored = np.array([1e-1, 1e-2, 1e-3, 1.2e-9, 1e-9, 1.1e-9][:4])
    assert pre_floor_count(floored) == 4


# ------------------------------------------------------------ sweep driver


def tiny_spec(kind="h", taus=(0.3,)):
    def make(tau):
        return benchmark_scenario(
            ModelKind.MCV, tau=tau, conductivity=STUDY_CONDUCTIVITY,
            dt=1e-3, n_steps=30,
        )

    values = (4, 6) if kind == "h" else (1, 2)
    fixed = 2 if kind == "h" else 4
    return SweepSpec(
        family="mcv", kind=kind, values=values, fixed=fixed, taus=taus,
        scenario_factory=make,
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("x", "hp", (2, 3), 2, (0.3,), lambda tau: None)
    with pytest.raises(ValueError):
        SweepSpec("x", "h", (2,), 2, (0.3,), lambda tau: None)
    with pytest.raises(ValueError, match="values"):
        SweepSpec("x", "p", (2, 2, 3), 2, (0.3,), lambda tau: None)
    with pytest.raises(ValueError, match="taus"):
        SweepSpec("x", "p", (2, 3), 2, (0.3, 0.3), lambda tau: None)
    # Every sweep member and error column is per tau; the sweep used to
    # fail later with an IndexError.
    with pytest.raises(ValueError, match="one relaxation time"):
        benchmark_sweep_families(taus=())
    spec = tiny_spec("h")
    assert spec.discretization(4) == (4, 2)
    assert tiny_spec("p").discretization(2) == (4, 2)


def test_run_sweep_requires_all_references():
    spec = tiny_spec(taus=(0.3, 0.05))
    refs = {0.3: compute_reference(spec.scenario_factory(0.3), 10, 4, theta=1.0)}
    with pytest.raises(KeyError):
        run_sweep(spec, refs, theta=1.0)


def test_run_sweep_error_vanishes_at_the_reference_discretization():
    # When a sweep point IS the reference discretization the two runs are
    # identical and the error collapses to zero.
    def make(tau):
        return benchmark_scenario(
            ModelKind.MCV, tau=tau, conductivity=STUDY_CONDUCTIVITY,
            dt=1e-3, n_steps=30,
        )

    spec = SweepSpec(
        family="mcv", kind="h", values=(4, 8), fixed=2, taus=(0.3,),
        scenario_factory=make,
    )
    refs = {0.3: compute_reference(make(0.3), n_elements=8, degree=2, theta=1.0)}
    report = run_sweep(spec, refs, theta=1.0)
    assert isinstance(report, ErrorReport)
    for label in ("T_front", "T_rear", "q_mid"):
        curve = report.errors[(0.3, label)]
        assert curve.shape == (2,)
        assert curve[1] <= 1e-13
        assert curve[0] > curve[1]
    assert not report.failures


def test_run_sweep_records_failures_and_continues():
    # Degree 12 would need a temperature space above the basis cap; that
    # point must fail in isolation.
    def make(tau):
        return benchmark_scenario(
            ModelKind.MCV, tau=tau, conductivity=STUDY_CONDUCTIVITY,
            dt=1e-3, n_steps=10,
        )

    spec = SweepSpec(
        family="mcv", kind="p", values=(2, 12), fixed=4, taus=(0.3,),
        scenario_factory=make,
    )
    refs = {0.3: compute_reference(make(0.3), n_elements=10, degree=4, theta=1.0)}
    report = run_sweep(spec, refs, theta=1.0)
    assert len(report.failures) == 1
    value, tau, message = report.failures[0]
    assert value == 12 and tau == 0.3
    assert "cap" in message
    assert report.dofs[1] == -1
    good = report.errors[(0.3, "T_rear")]
    assert np.isfinite(good[0]) and np.isnan(good[1])


def test_run_sweep_records_non_finite_data_as_a_failure(nan_from):
    # At tau = 0.05 the pulse turns NaN from step 4 on; tau = 0.3 is intact.
    def make(tau):
        return benchmark_scenario(
            ModelKind.MCV, tau=tau, conductivity=STUDY_CONDUCTIVITY,
            dt=1e-3, n_steps=10,
        )

    def broken(tau):
        scenario = make(tau)
        if tau != 0.05:
            return scenario
        nan_late = nan_from(scenario.bcs.left.value, 3.5e-3)
        bcs = BoundarySpec(PrescribedFlux(nan_late), PrescribedFlux(ZERO))
        return replace(scenario, bcs=bcs)

    spec = SweepSpec(
        family="mcv", kind="h", values=(4, 6), fixed=2, taus=(0.3, 0.05),
        scenario_factory=broken,
    )
    refs = {tau: compute_reference(make(tau), 8, 2, theta=1.0) for tau in spec.taus}
    report = run_sweep(spec, refs, theta=1.0)
    assert [(value, tau) for value, tau, _ in report.failures] == [(4, 0.05), (6, 0.05)]
    assert all("step 4" in message for _, _, message in report.failures)
    assert np.all(np.isfinite(report.errors[(0.3, "T_rear")]))
    assert np.all(np.isnan(report.errors[(0.05, "T_rear")]))


def test_sweep_points_take_their_dof_counts_from_their_members(monkeypatch, nan_from):
    # Members that are discretized number their point, so build_dofmap
    # numbers no point on its own; a point whose members all fail after
    # their discretization keeps its count, and only a point that cannot
    # be discretized is numbered alone, as -1 with build_dofmap's reason.
    calls = []
    numbering = hpheat.study.build_dofmap

    def counted(*args):
        calls.append(args)
        return numbering(*args)

    monkeypatch.setattr(hpheat.study, "build_dofmap", counted)

    def make(tau):
        return benchmark_scenario(
            ModelKind.MCV, tau=tau, conductivity=STUDY_CONDUCTIVITY, dt=1e-3, n_steps=10
        )

    def broken(tau):
        scenario = make(tau)
        nan_late = nan_from(scenario.bcs.left.value, 3.5e-3)
        return replace(scenario, bcs=BoundarySpec(PrescribedFlux(nan_late), PrescribedFlux(ZERO)))

    counts = [solve_transient(make(0.3), 4, p, theta=1.0).system.dofmap.total_dofs for p in (2, 3)]
    healthy = solve_sweep(
        SweepSpec("mcv", "p", (2, 3), 4, (0.3, 0.05), scenario_factory=make), theta=1.0
    )
    assert list(healthy.dofs) == counts and not healthy.failures and not calls
    sweep = solve_sweep(
        SweepSpec("mcv", "p", (2, 3, 12), 4, (0.3, 0.05), scenario_factory=broken), theta=1.0
    )
    assert list(sweep.dofs) == counts + [-1]
    assert len(calls) == 1 and not sweep.runs
    messages = {(value, tau): message for value, tau, message in sweep.failures}
    assert len(messages) == 6
    assert all("step 4" in messages[(p, tau)] for p in (2, 3) for tau in (0.3, 0.05))
    assert "cap" in messages[(12, 0.3)] and messages[(12, 0.3)] == messages[(12, 0.05)]


def separate_solves(spec, theta):
    """Every sweep member solved on its own, by (value, tau)."""
    runs = {}
    for value in spec.values:
        n, p = spec.discretization(value)
        for tau in spec.taus:
            runs[(value, tau)] = solve_transient(spec.scenario_factory(tau), n, p, theta=theta)
    return runs


def separate_errors(spec, runs, refs):
    """The error curves of run_sweep, computed from separate solves."""
    errors = {}
    for tau in spec.taus:
        for label in refs[tau].series:
            errors[(tau, label)] = np.array([
                history_error(runs[(value, tau)].series[label], refs[tau].series[label],
                              runs[(value, tau)].scenario)
                if (value, tau) in runs else np.nan
                for value in spec.values
            ])
    return errors


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_run_sweep_is_bitwise_the_separate_solves(theta):
    # Each sweep is marched as one stack of 21 members with the largest
    # member half-bandwidth; the extra band diagonals only meet exact zeros.
    for spec in benchmark_sweep_families(n_steps=200):
        alone = separate_solves(spec, theta)
        sweep = solve_sweep(spec, theta)
        assert not sweep.failures
        assert set(sweep.runs) == set(alone)
        for key, run in alone.items():
            stacked = sweep.runs[key]
            for label, series in run.series.items():
                assert np.array_equal(stacked.series[label].rise, series.rise), (spec, key, label)
            assert np.array_equal(stacked.solution.final_state, run.solution.final_state)

        last = spec.values[-1]
        refs = {
            tau: ReferenceSolution("overkill_fem", alone[(last, tau)].scenario,
                                   alone[(last, tau)].series, f"{spec.discretization(last)}")
            for tau in spec.taus
        }
        report = run_sweep(spec, refs, theta=theta)
        expected = separate_errors(spec, alone, refs)
        assert set(report.errors) == set(expected)
        for key, curve in expected.items():
            assert np.array_equal(report.errors[key], curve), (spec, key)
            assert report.errors[key][-1] == 0.0


def mcv_flash(tau, n_steps=30):
    return benchmark_scenario(
        ModelKind.MCV, tau=tau, conductivity=STUDY_CONDUCTIVITY, dt=1e-3, n_steps=n_steps,
    )


def test_a_member_that_blows_up_mid_march_fails_alone():
    assert_a_member_that_blows_up_mid_march_fails_alone()


def test_a_member_that_blows_up_in_a_later_block_fails_alone(monkeypatch):
    # The load table is folded three steps at a time, so step 4 lies in the
    # second block.
    monkeypatch.setattr(hpheat.timeint, "_BLOCK_STEPS", 3)
    assert_a_member_that_blows_up_mid_march_fails_alone()


def assert_a_member_that_blows_up_mid_march_fails_alone():
    # At tau = 0.05 a huge pulse meets a slab of almost no heat capacity:
    # the data stay finite, but the temperature overflows at step 4.  In the
    # stack, that NaN reaches every other member within one step.
    def make(tau):
        scenario = mcv_flash(tau)
        if tau != 0.05:
            return scenario
        scenario = replace(scenario, material=replace(scenario.material, rho=1e-11))
        pulse = PrescribedFlux(flash_pulse(PulseParams(amplitude=1e300)))
        return replace(scenario, bcs=replace(scenario.bcs, left=pulse))

    spec = SweepSpec(
        family="mcv", kind="h", values=(4, 6, 8), fixed=2, taus=(0.3, 0.05, 0.15),
        scenario_factory=make,
    )
    expected = {}
    for value in spec.values:
        with pytest.raises(NonFiniteStateError) as info:
            solve_transient(make(0.05), value, 2, theta=1.0)
        assert info.value.step == 4
        expected[value] = str(info.value)
    refs = {tau: compute_reference(mcv_flash(tau), 10, 3, theta=1.0) for tau in spec.taus}
    report = run_sweep(spec, refs, theta=1.0)
    assert report.failures == tuple((value, 0.05, expected[value]) for value in spec.values)

    alone = {
        (value, tau): solve_transient(make(tau), value, 2, theta=1.0)
        for value in spec.values
        for tau in (0.3, 0.15)
    }
    want = separate_errors(spec, alone, refs)
    for key, curve in want.items():
        assert np.array_equal(report.errors[key], curve, equal_nan=True), key
    assert np.all(np.isfinite(report.errors[(0.3, "T_rear")]))
    assert np.all(np.isnan(report.errors[(0.05, "T_rear")]))


def test_a_singular_member_fails_alone(monkeypatch, zero_row):
    # The middle member of the stack gets a zero row: its factorization
    # error names the pivot within that member, and the stack is refactored
    # without it.
    spec = SweepSpec(
        family="mcv", kind="h", values=(4, 6, 8), fixed=2, taus=(0.3, 0.05),
        scenario_factory=mcv_flash,
    )
    refs = {tau: compute_reference(mcv_flash(tau), 10, 3, theta=1.0) for tau in spec.taus}
    healthy = run_sweep(spec, refs, theta=1.0)
    assert not healthy.failures

    row = 5
    real_prepare = hpheat.study.prepare

    def prepare(sys, scheme, probes):
        if sys.mesh.n_elements == 6 and sys.material.tau == 0.3:
            sys = zero_row(sys, row)
            with pytest.raises(FactorizationError) as info:
                build_factorization(sys, scheme)
            expected.append(str(info.value))
        return real_prepare(sys, scheme, probes)

    expected = []
    monkeypatch.setattr(hpheat.study, "prepare", prepare)
    report = run_sweep(spec, refs, theta=1.0)
    assert expected == [str(FactorizationError(row + 1))]
    assert report.failures == ((6, 0.3, expected[0]),)
    for key, curve in healthy.errors.items():
        want = curve.copy()
        if key[0] == 0.3:
            want[1] = np.nan
        assert np.array_equal(report.errors[key], want, equal_nan=True), key


def test_reference_dofs_come_from_the_sweep_model():
    spec = tiny_spec("h")
    refs = {0.3: compute_reference(spec.scenario_factory(0.3), 10, 4, theta=1.0)}
    report = run_sweep(spec, refs, theta=1.0)
    # Free DOF count of the local models: 2 n (p+1) + 1.
    assert list(report.dofs) == [2 * 4 * 3 + 1, 2 * 6 * 3 + 1]


# ------------------------------------------------------------ references


def test_compute_reference_provenance():
    scenario = benchmark_scenario(
        ModelKind.MCV, tau=0.3, conductivity=STUDY_CONDUCTIVITY, n_steps=10
    )
    ref = compute_reference(scenario, n_elements=12, degree=3, theta=1.0)
    assert ref.provenance == "overkill_fem"
    assert set(ref.series) == {"T_front", "T_rear", "q_mid"}
    assert "n=12" in ref.detail and "p=3" in ref.detail


def test_fd_oracle_provenance_and_grid():
    scenario = benchmark_scenario(
        ModelKind.GK, tau=0.3, kappa2=8e-6, conductivity=STUDY_CONDUCTIVITY, n_steps=10
    )
    ref = fd_oracle(scenario, cells=50, theta=1.0)
    assert ref.provenance == "finite_difference_oracle"
    assert set(ref.series) == {"T_front", "T_rear", "q_mid"}
    for label, series in ref.series.items():
        assert series.times.shape == (11,)
    # The oracle marches flux data only.
    for side in ("left", "right"):
        held = replace(scenario, bcs=replace(scenario.bcs, **{side: DirichletTemperature(ZERO)}))
        with pytest.raises(ValueError, match="flux conditions on both ends"):
            fd_oracle(held, cells=50, theta=1.0)


# ------------------------------------------------------------ families


def test_benchmark_sweep_families_frozen_structure():
    specs = benchmark_sweep_families()
    assert len(specs) == 6
    by_key = {(s.family, s.kind): s for s in specs}
    assert set(by_key) == {
        ("mcv", "h"), ("mcv", "p"),
        ("gk_wave", "h"), ("gk_wave", "p"),
        ("gk_diffuse", "h"), ("gk_diffuse", "p"),
    }

    assert by_key[("mcv", "h")].values == (20, 24, 28, 32, 36, 40, 44)
    assert by_key[("gk_wave", "h")].values == (52, 58, 64, 70, 76, 82, 88)
    assert by_key[("gk_diffuse", "h")].values == (8, 10, 12, 14, 16, 18, 20)
    for family in ("mcv", "gk_wave", "gk_diffuse"):
        assert by_key[(family, "h")].fixed == 2
        assert by_key[(family, "p")].values == (2, 3, 4, 5, 6, 7, 8)
    # The p sweeps sit on the coarsest mesh of their h family.
    assert by_key[("mcv", "p")].fixed == 20
    assert by_key[("gk_wave", "p")].fixed == 52
    assert by_key[("gk_diffuse", "p")].fixed == 8
    for spec in specs:
        assert spec.taus == (0.05, 0.15, 0.3)

    scenario = by_key[("mcv", "h")].scenario_factory(0.15)
    assert scenario.material.tau == 0.15
    assert scenario.material.conductivity == STUDY_CONDUCTIVITY
    assert scenario.model is ModelKind.MCV
    wave = by_key[("gk_wave", "p")].scenario_factory(0.05)
    assert wave.material.kappa2 == 8e-6
    diffuse = by_key[("gk_diffuse", "p")].scenario_factory(0.05)
    assert diffuse.material.kappa2 == 0.8
    assert STUDY_CONDUCTIVITY == 3.0e3
