"""Unit tests for the staggered finite-difference oracle.

The oracle is only trustworthy as a cross-check if it shares no
discretization code with the element solver, so the first test inspects its
imports instead of its behavior.
"""

import ast
import pathlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import hpheat.fdoracle
import hpheat.timeint
from hpheat.fdoracle import FdSolution, StaggeredGrid, _operator, fd_solve, fd_step
from hpheat.assembly import Field
from hpheat.materials import MaterialParams, ModelKind
from hpheat.scenario import (
    PulseParams,
    benchmark_material,
    benchmark_scenario,
    dimensionless_temperature,
    flash_pulse,
)
from hpheat.study import STUDY_CONDUCTIVITY, fd_oracle
from hpheat.timefun import ZERO, NonFiniteStateError, TimeFunction, constant

FOURIER_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0)
MCV_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3)
GK_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3, kappa2=8e-6)

# Constant-flux half space: dT(0, t) = 2 q0 sqrt(a t / pi) / lam.  Evaluated
# in 30-digit arithmetic for q0 = 1e4, lam = 3, a = 3/2.08e6, t = 0.05.
HALFSPACE_FRONT_RISE = 1.01006138139165397


def test_oracle_is_import_independent_of_the_element_solver():
    source = pathlib.Path(hpheat.fdoracle.__file__).read_text()
    tree = ast.parse(source)
    banned = {"basis", "elemmat", "assembly", "timeint", "scenario", "study"}
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        for name in names:
            parts = set(name.split("."))
            assert not (parts & banned), f"oracle imports element machinery: {name}"


def test_grid_validation():
    StaggeredGrid(1.0, T=np.full(3, 293.0), q=np.zeros(4))
    with pytest.raises(ValueError):
        StaggeredGrid(1.0, T=np.full(2, 293.0), q=np.zeros(3))
    with pytest.raises(ValueError):
        StaggeredGrid(length=0.0, T=np.zeros(3), q=np.zeros(4))
    with pytest.raises(ValueError):
        StaggeredGrid(length=1.0, T=np.zeros(3), q=np.zeros(3))
    grid = StaggeredGrid(1.0, T=np.full(4, 293.0), q=np.zeros(5))
    assert grid.cells == 4
    assert grid.dx == pytest.approx(0.25)


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        fd_solve(FOURIER_MAT, 0.005, 293.0, ZERO, ZERO, cells=2, dt=1e-3, n_steps=1)
    with pytest.raises(ValueError):
        fd_solve(
            FOURIER_MAT, 0.005, 293.0, ZERO, ZERO, cells=10, dt=1e-3, n_steps=1, theta=0.3
        )
    for dt in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            fd_solve(FOURIER_MAT, 0.005, 293.0, ZERO, ZERO, cells=20, dt=dt, n_steps=50)
    with pytest.raises(ValueError, match="time step"):
        fd_oracle(benchmark_scenario(ModelKind.MCV, tau=0.3, dt=-1e-3, n_steps=50), cells=20)
    with pytest.raises(ValueError, match="step count"):
        fd_solve(FOURIER_MAT, 0.005, 293.0, ZERO, ZERO, cells=20, dt=1e-3, n_steps=-1)
    # Checked before marching: 0 used to divide by zero, a negative length
    # to march every step first, and NaN to be blamed on the last state.
    for length in (0.0, -0.005, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="domain length"):
            fd_solve(FOURIER_MAT, length, 293.0, constant(1e4), ZERO, cells=20, dt=1e-3, n_steps=5)
    grid = StaggeredGrid(1.0, T=np.full(4, 293.0), q=np.zeros(5))
    with pytest.raises(ValueError):
        fd_step(grid, FOURIER_MAT, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("mat", [FOURIER_MAT, MCV_MAT, GK_MAT])
def test_equilibrium_is_preserved(mat):
    length = 0.005
    sol = fd_solve(
        mat,
        length,
        293.0,
        ZERO,
        ZERO,
        cells=20,
        dt=1e-3,
        n_steps=100,
        probe_temperatures=(0.0, 0.0025),
        probe_fluxes=(0.0025,),
    )
    flux_scale = mat.conductivity * 293.0 / length
    for hist in sol.temperature_probes.values():
        assert np.max(np.abs(hist - 293.0)) <= 1e-11 * 293.0
    assert np.max(np.abs(sol.flux_probes[0.0025])) <= 1e-10 * flux_scale


def test_front_face_matches_halfspace_closed_form():
    # Short enough that the rear face is still cold: the bar is a half space.
    sol = fd_solve(
        FOURIER_MAT,
        0.005,
        293.0,
        constant(1e4),
        ZERO,
        cells=1500,
        dt=1e-4,
        n_steps=500,
        theta=0.5,
        probe_temperatures=(0.0, 0.005),
    )
    rise = sol.temperature_probes[0.0][-1] - 293.0
    assert rise == pytest.approx(HALFSPACE_FRONT_RISE, rel=1e-3)
    assert abs(sol.temperature_probes[0.005][-1] - 293.0) <= 1e-9


def test_energy_balance_with_averaged_pulse():
    # Averaged loads telescope: stored energy equals the pulse integral up to
    # cancellation roundoff at the rho_c T0 L scale.
    pulse = flash_pulse(PulseParams())
    mat = MCV_MAT
    length = 0.005
    n_steps = 200
    dt = 1e-3
    sol = fd_solve(mat, length, 293.0, pulse, ZERO, cells=60, dt=dt, n_steps=n_steps)
    rho_c = mat.volumetric_heat_capacity
    stored = rho_c * np.sum(sol.final.T - 293.0) * sol.final.dx
    injected = pulse.integral(n_steps * dt)
    assert stored == pytest.approx(injected, abs=1e-13 * rho_c * 293.0 * length)


def test_single_step_consistency_between_interfaces():
    # fd_solve with one backward Euler step must agree with the standalone
    # step on constant flux data, whose step mean is the new-level value.
    dt = 1e-3
    grid0 = StaggeredGrid(0.005, T=np.full(12, 293.0), q=np.zeros(13))
    stepped = fd_step(grid0, GK_MAT, dt, 5e3, 0.0)
    solved = fd_solve(
        GK_MAT,
        0.005,
        293.0,
        constant(5e3),
        ZERO,
        cells=12,
        dt=dt,
        n_steps=1,
        theta=1.0,
    )
    assert np.allclose(solved.final.T, stepped.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(solved.final.q, stepped.q, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "probes",
    [
        {"probe_temperatures": (-0.02,)},
        {"probe_temperatures": (0.005 * (1.0 + 1e-9),)},
        {"probe_fluxes": (0.5,)},
        {"probe_fluxes": (-1.0,)},
        {"probe_fluxes": (float("nan"),)},
    ],
)
def test_probes_outside_the_slab_are_rejected(probes, monkeypatch):
    # Out-of-slab temperature probes would extrapolate and flux probes would
    # snap to a boundary face; both fail before any step is taken.
    monkeypatch.setattr(hpheat.fdoracle, "dpttrs", None)
    with pytest.raises(ValueError, match="outside the domain"):
        fd_solve(MCV_MAT, 0.005, 293.0, ZERO, ZERO, cells=10, dt=1e-3, n_steps=5, **probes)


def test_a_failing_flux_factorization_is_reported(monkeypatch):
    # S is positive definite for every valid input, so only a faked dpttrf
    # reaches the error LAPACK reports for a non-positive pivot.
    monkeypatch.setattr(hpheat.fdoracle, "dpttrf", lambda d, e: (d, e, 3))
    with pytest.raises(RuntimeError, match=r"not positive definite \(info 3\)"):
        fd_solve(MCV_MAT, 0.005, 293.0, ZERO, ZERO, cells=10, dt=1e-3, n_steps=5)


def test_probes_on_the_faces_within_roundoff_are_accepted():
    # The tolerance of the element solver's probe_row, 1e-12 of the length.
    length = 0.005
    sol = fd_solve(
        MCV_MAT, length, 293.0, ZERO, ZERO, cells=10, dt=1e-3, n_steps=2,
        probe_temperatures=(-1e-13 * length, length * (1.0 + 1e-13)),
        probe_fluxes=(-1e-13 * length,),
    )
    assert len(sol.temperature_probes) == 2
    assert np.array_equal(sol.flux_probes[-1e-13 * length], np.zeros(3))


def test_probe_bookkeeping():
    pulse = flash_pulse(PulseParams())
    sol = fd_solve(
        MCV_MAT,
        0.005,
        293.0,
        pulse,
        ZERO,
        cells=10,
        dt=1e-3,
        n_steps=5,
        probe_temperatures=(0.0, 0.005),
        probe_fluxes=(0.0, 0.0025, 0.005),
    )
    assert isinstance(sol, FdSolution)
    assert sol.times.shape == (6,)
    # Boundary flux probes read the prescribed data exactly.
    for k, t in enumerate(sol.times):
        assert sol.flux_probes[0.0][k] == pytest.approx(pulse.value(t), rel=1e-14)
        assert sol.flux_probes[0.005][k] == 0.0
    # The interior flux lags the boundary but reacts within a few steps.
    assert sol.flux_probes[0.0025][0] == 0.0
    assert sol.flux_probes[0.0025][-1] != 0.0
    # Front heats, rear still cold after 5 ms of a 5 mm relaxational bar.
    assert sol.temperature_probes[0.0][-1] > 293.0
    assert sol.temperature_probes[0.005][-1] == pytest.approx(293.0, abs=1e-6)


def test_rise_does_not_depend_on_initial_temperature():
    # Over-diffuse GK flash slab, 500 cells, 10^3 backward Euler steps.
    # Marching the absolute temperature rounds the 7.7 mK signal at
    # ulp(293 K) every step, which left the rise histories at T0 = 293 K and
    # T0 = 0 apart by 1.4e-8 (T_rear) and 9.4e-9 (T_front) relative; the
    # marched rise does not see T0 at all.
    base = benchmark_scenario(
        ModelKind.GK, tau=0.3, kappa2=0.8, conductivity=STUDY_CONDUCTIVITY, n_steps=1000
    )

    def rises_at(t0):
        scenario = replace(base, initial_temperature=t0)
        ref = fd_oracle(scenario, cells=500, theta=1.0)
        return {
            label: dimensionless_temperature(series, scenario).values
            if series.quantity is Field.TEMPERATURE
            else series.values
            for label, series in ref.series.items()
        }

    warm, cold = rises_at(293.0), rises_at(0.0)
    for label in warm:
        gap = np.max(np.abs(warm[label] - cold[label]))
        assert gap <= 1e-10 * np.max(np.abs(cold[label])), label
    sol = fd_solve(
        base.material, base.length, 293.0, base.bcs.left.value, base.bcs.right.value,
        cells=20, dt=base.dt, n_steps=3, probe_temperatures=(0.0,),
    )
    assert np.array_equal(sol.temperature_probes[0.0], sol.temperature_rise[0.0] + 293.0)


def _operator_by_loops(cells, dx, mat):
    """_operator written one stencil entry at a time, as the reference for
    the index-array construction."""
    m = cells
    dim = 2 * m - 1
    mass = np.empty(dim)
    mass[:m] = mat.rho * mat.c_v
    mass[m:] = mat.tau

    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    b_left = np.zeros(dim)
    b_right = np.zeros(dim)

    # Energy balance per cell: rho c_v dT_i/dt + (q_{i+1} - q_i) / dx = 0.
    for i in range(m):
        if i + 1 < m:
            add(i, m + i, 1.0 / dx)
        else:
            b_right[i] += 1.0 / dx
        if i > 0:
            add(i, m + i - 1, -1.0 / dx)
        else:
            b_left[i] += -1.0 / dx

    # Flux law per interior face j: tau dq_j/dt + q_j
    #   + lam (T_j - T_{j-1}) / dx - kappa2 (q_{j+1} - 2 q_j + q_{j-1}) / dx^2 = 0.
    lam_dx = mat.conductivity / dx
    k_dx2 = mat.kappa2 / dx**2
    for j in range(1, m):
        r = m + j - 1
        add(r, r, 1.0 + 2.0 * k_dx2)
        add(r, j, lam_dx)
        add(r, j - 1, -lam_dx)
        if j + 1 < m:
            add(r, m + j, -k_dx2)
        else:
            b_right[r] += -k_dx2
        if j - 1 > 0:
            add(r, m + j - 2, -k_dx2)
        else:
            b_left[r] += -k_dx2

    stiff = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return mass, stiff, b_left, b_right


@pytest.mark.parametrize("mat", [FOURIER_MAT, MCV_MAT, GK_MAT], ids=["fourier", "mcv", "gk"])
@pytest.mark.parametrize("cells", [3, 4, 10, 2000])
def test_operator_matches_the_loop_reference(cells, mat):
    # Bit for bit, signed zeros included: at kappa2 = 0 the boundary columns
    # hold +0.0 where the reference adds -0.0 into zeros.
    dx = 0.1 / cells
    mass, stiff, b_left, b_right = _operator(cells, dx, mat)
    ref_mass, ref_stiff, ref_left, ref_right = _operator_by_loops(cells, dx, mat)
    pairs = [
        (mass, ref_mass), (b_left, ref_left), (b_right, ref_right),
        (stiff.data, ref_stiff.data), (stiff.indices, ref_stiff.indices),
        (stiff.indptr, ref_stiff.indptr),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _dense_march(mat, length, q_left, q_right, cells, dt, n_steps, theta, load):
    """The full block system of _operator, one dense solve per step: the
    stepping fd_solve must reproduce up to roundoff, without its elimination.
    load "average" takes each step's exact data mean, "sampled" the data value
    at the step end, which is the step mean of data held at step-end samples."""
    dx = length / cells
    mass, stiff, b_left, b_right = _operator(cells, dx, mat)
    stiff = stiff.toarray()
    lhs = np.diag(mass) + dt * theta * stiff
    explicit = np.diag(mass) - dt * (1.0 - theta) * stiff
    states = [np.zeros(2 * cells - 1)]
    for n in range(n_steps):
        t0, t1 = n * dt, (n + 1) * dt
        if load == "average":
            ql, qr = q_left.average(t0, t1), q_right.average(t0, t1)
        else:
            ql, qr = q_left.value(t1), q_right.value(t1)
        rhs = explicit @ states[-1] - dt * (b_left * ql + b_right * qr)
        states.append(np.linalg.solve(lhs, rhs))
    return np.array(states)


DENSE_MATERIALS = {
    "fourier": benchmark_material(tau=0.0, kappa2=0.0, conductivity=STUDY_CONDUCTIVITY),
    "mcv": benchmark_material(tau=0.3, kappa2=0.0, conductivity=STUDY_CONDUCTIVITY),
    "gk_wave": benchmark_material(tau=0.3, kappa2=8e-6, conductivity=STUDY_CONDUCTIVITY),
    "gk_diffuse": benchmark_material(tau=0.3, kappa2=0.8, conductivity=STUDY_CONDUCTIVITY),
}


@pytest.mark.parametrize("load", ["average", "sampled"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("model", sorted(DENSE_MATERIALS))
@pytest.mark.parametrize("cells", [3, 12, 40])
def test_march_matches_dense_solve_of_the_block_system(
    cells, model, theta, load, held_at_step_ends
):
    # fd_solve eliminates the cell temperatures and factors the flux Schur
    # complement; that must change nothing but roundoff.  Flux data on both
    # faces exercise both boundary columns.  With load "sampled" the data are
    # held at their step-end samples and the reference loads those samples.
    mat, length, dt, n_steps = DENSE_MATERIALS[model], 0.005, 1e-3, 400
    q_left, q_right = flash_pulse(PulseParams()), constant(-250.0)
    if load == "sampled":
        q_left, q_right = held_at_step_ends(q_left, dt), held_at_step_ends(q_right, dt)
    dx = length / cells
    t_probes, q_probes = (0.0, 0.37 * length, length), (0.0, 0.5 * length, length)
    sol = fd_solve(
        mat, length, 293.0, q_left, q_right, cells=cells, dt=dt, n_steps=n_steps,
        theta=theta, probe_temperatures=t_probes, probe_fluxes=q_probes,
    )
    states = _dense_march(mat, length, q_left, q_right, cells, dt, n_steps, theta, load)
    expected = {}
    for x in t_probes:
        s = (x - 0.5 * dx) / dx
        i = min(max(int(np.floor(s)), 0), cells - 2)
        expected[("T", x)] = (1.0 - (s - i)) * states[:, i] + (s - i) * states[:, i + 1]
    for x in q_probes:
        j = min(max(int(round(x / dx)), 0), cells)
        if j == 0 or j == cells:
            data = q_left if j == 0 else q_right
            expected[("q", x)] = np.array([data.value(t) for t in sol.times])
        else:
            expected[("q", x)] = states[:, cells + j - 1]
    got = {("T", x): h for x, h in sol.temperature_rise.items()}
    got.update({("q", x): h for x, h in sol.flux_probes.items()})
    for key, want in expected.items():
        gap = np.max(np.abs(got[key] - want))
        assert gap <= 1e-12 * np.max(np.abs(want)), (key, gap / np.max(np.abs(want)))


@pytest.mark.parametrize("block", [7, 400])
def test_histories_do_not_depend_on_the_probe_block(block, monkeypatch):
    # A block of one step interpolates every step as it is marched; 40
    # steps in blocks of 7 end in a short block, and 400 is one block.
    def solve(probes_t, probes_q):
        return fd_solve(
            GK_MAT, 0.005, 293.0, flash_pulse(PulseParams()), constant(-250.0), cells=12,
            dt=1e-3, n_steps=40, theta=0.5, probe_temperatures=probes_t, probe_fluxes=probes_q,
        )

    probes = ((0.0, 0.0013, 0.005), (0.0, 0.0025, 0.0041, 0.005))
    monkeypatch.setattr(hpheat.fdoracle, "_BLOCK_STEPS", 1)
    want, bare_want = solve(*probes), solve((), ())
    monkeypatch.setattr(hpheat.fdoracle, "_BLOCK_STEPS", block)
    for got, ref in ((solve(*probes), want), (solve((), ()), bare_want)):
        for name in ("temperature_probes", "temperature_rise", "flux_probes"):
            assert getattr(got, name).keys() == getattr(ref, name).keys()
            for x, history in getattr(ref, name).items():
                assert np.array_equal(getattr(got, name)[x], history), (name, x)
        assert np.array_equal(got.final.T, ref.final.T)
        assert np.array_equal(got.final.q, ref.final.q)


def test_the_private_kernel_is_bitwise_the_public_product(monkeypatch):
    # Each step's two products call scipy.sparse._sparsetools.csr_matvec,
    # a private module: a scipy whose `@` ends in another kernel, or whose
    # kernel takes other arguments, fails here.
    def solve():
        return fd_solve(
            GK_MAT, 0.005, 293.0, flash_pulse(PulseParams()), constant(-250.0), cells=12,
            dt=1e-3, n_steps=3, theta=0.5, probe_temperatures=(0.0013,), probe_fluxes=(0.0025,),
        )

    want = solve()
    products = Counter()

    def public(n_row, n_col, indptr, indices, data, x, y):
        products[n_row, n_col] += 1
        y += sp.csr_matrix((data, indices, indptr), shape=(n_row, n_col)) @ x

    monkeypatch.setattr(hpheat.fdoracle, "csr_matvec", public)
    got = solve()
    assert products == {(23, 23): 3, (12, 11): 3}
    for name in ("temperature_rise", "flux_probes"):
        for x, history in getattr(want, name).items():
            assert np.array_equal(getattr(got, name)[x], history), (name, x)
    assert np.array_equal(got.final.T, want.final.T)
    assert np.array_equal(got.final.q, want.final.q)


@pytest.mark.parametrize("load", ["average", "sampled"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_non_finite_boundary_data_name_their_step(k, load, held_at_step_ends, nan_from):
    # Data NaN from t_k on (cut halfway into step k) poison step k first,
    # and are caught before the march; so do data held at their step-end
    # samples, whose first NaN sample is the one at t_k.
    pulse = flash_pulse(PulseParams())
    dt = 1e-3
    cut = (k - 0.5) * dt
    broken = nan_from(pulse, cut)
    if load == "sampled":
        broken = held_at_step_ends(broken, dt)
    with pytest.raises(NonFiniteStateError) as info:
        fd_solve(MCV_MAT, 0.005, 293.0, broken, ZERO, cells=10, dt=dt, n_steps=5,
                 theta=1.0, probe_temperatures=(0.0,))
    assert info.value.step == k
    assert "boundary data" in str(info.value)


def test_non_finite_history_names_its_step(nan_from):
    # Finite step means but a NaN pointwise value from t_3 on: the march is
    # fine, the boundary flux probe that reads the data is not.
    pulse = flash_pulse(PulseParams())
    broken = TimeFunction(nan_from(pulse, 2.5e-3).value, pulse.integral)
    with pytest.raises(NonFiniteStateError) as info:
        fd_solve(MCV_MAT, 0.005, 293.0, broken, ZERO, cells=10, dt=1e-3, n_steps=5,
                 probe_fluxes=(0.0,))
    assert info.value.step == 3
    assert "state" in str(info.value)


def test_non_finite_state_error_is_shared_with_the_element_solver():
    assert hpheat.timeint.NonFiniteStateError is NonFiniteStateError
