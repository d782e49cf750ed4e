"""Unit tests for the theta scheme, the condensed solver, and load handling.

The closed-form boundary-layer oracle pins down the averaged-load treatment
of essential constraints: after one backward Euler step from rest, the
nonlocal flux profile is exponential with rate mu,
mu^2 = (1 + tau/dt)/(kappa2 + a dt), a the diffusivity, and the front
temperature rise is dt mu gbar / (rho c_v) with gbar the first-step mean of
the boundary flux.

integrate prepares its boundary data and probe rows once per run; the tests
at the bottom hold it bit for bit to a loop that recomputes the load at
every step from SemiDiscreteSystem.load_average, and the probe values from
the state through the probes' functionals, with the factorization's
single-step primitives.  Another test bounds those values against
ProbeRow.evaluate on the recovered coefficients.
"""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import hpheat.condense
import hpheat.eigenbasis
import hpheat.timeint
from hpheat.assembly import (
    BoundarySpec,
    DirichletTemperature,
    Field,
    Mesh,
    PrescribedFlux,
    ProbeRow,
    SemiDiscreteSystem,
    apply_initial_conditions,
    assemble,
    probe_row,
)
from hpheat.materials import MaterialParams, ModelKind
from hpheat.scenario import PulseParams, benchmark_scenario, discretize, flash_pulse
from hpheat.study import (
    REFERENCE_DEGREE,
    REFERENCE_ELEMENTS,
    STUDY_CONDUCTIVITY,
    benchmark_sweep_families,
)
from hpheat.timefun import ZERO, TimeFunction, on_grid
from hpheat.timeint import (
    FactorizationError,
    NonFiniteStateError,
    ThetaScheme,
    advance,
    build_factorization,
    integrate,
    integrate_stack,
    prepare,
    step_arrays,
)

MCV_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3)
GK_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3, kappa2=8e-6)

PULSE_BCS = BoundarySpec(
    left=PrescribedFlux(flash_pulse(PulseParams())),
    right=PrescribedFlux(ZERO),
)
QUIET_BCS = BoundarySpec(left=PrescribedFlux(ZERO), right=PrescribedFlux(ZERO))
# A prescribed temperature that climbs 10 mK within a few steps, so per-step
# averages, their rates and endpoint samples all differ.
RISING = TimeFunction(
    value=lambda t: 293.0 + 0.01 * (1.0 - np.exp(-t / 0.004)),
    integral=lambda t: 293.0 * t + 0.01 * (t - 0.004 * (1.0 - np.exp(-t / 0.004))),
)


def one_step(fact, w, load):
    """One step of advance from the condensed state w, with a load on the
    condensed rows fact.load_rows."""
    x = np.concatenate((w, load))
    y = np.empty_like(x)
    advance(step_arrays(fact), x, y)
    return y[:fact.dim]


def condensed_step(sys, fact, s, load):
    """One step of the condensed state s with dt times a load on all free
    rows, which must vanish off the system's load_rows, folded onto the
    condensed rows fact.load_rows it reaches."""
    assert not np.delete(load, sys.load_rows).any()
    return one_step(fact, s, fact.load_fold @ load[sys.load_rows])


def step(sys, scheme, fact, alpha_n, t_n):
    """One theta step with the averaged load, written out by hand."""
    dt = scheme.dt
    s = condensed_step(sys, fact, fact.state(alpha_n), dt * sys.load_average(t_n, t_n + dt))
    return fact.coefficients(s)


def test_scheme_validation():
    ThetaScheme(theta=0.5, dt=1e-3, n_steps=0)
    ThetaScheme(theta=1.0, dt=1e-3, n_steps=3)
    with pytest.raises(ValueError):
        ThetaScheme(theta=0.49, dt=1e-3, n_steps=1)
    with pytest.raises(ValueError):
        ThetaScheme(theta=1.01, dt=1e-3, n_steps=1)
    for dt in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            ThetaScheme(theta=0.5, dt=dt, n_steps=1)
    with pytest.raises(ValueError):
        ThetaScheme(theta=0.5, dt=1e-3, n_steps=-1)


def test_initial_state_shape_validation():
    sys = assemble(Mesh.uniform(3, 0.005), MCV_MAT, ModelKind.MCV, 2, PULSE_BCS)
    with pytest.raises(ValueError):
        integrate(sys, ThetaScheme(0.5, 1e-3, 1), np.zeros(sys.dim + 1))


def test_probe_location_outside_the_domain_rejected():
    # NaN compares false both ways, so it must not slip past the range check
    # and surface later as a non-finite history.
    sys = assemble(Mesh.uniform(4, 0.005), MCV_MAT, ModelKind.MCV, 2, QUIET_BCS)
    for x in (np.nan, np.inf, 0.006):
        with pytest.raises(ValueError, match="outside the domain"):
            integrate(
                sys, ThetaScheme(0.5, 1e-3, 5), np.zeros(sys.dim),
                probes=((x, Field.TEMPERATURE),),
            )


def test_singular_implicit_matrix_reported(zero_row):
    # A zero row cannot be equilibrated away and must fail loudly, naming it.
    sys = assemble(Mesh.uniform(3, 0.005), MCV_MAT, ModelKind.MCV, 2, PULSE_BCS)
    sys = zero_row(sys, 4)
    assert not sys.A[4].count_nonzero() and not sys.B[4].count_nonzero()
    with pytest.raises(FactorizationError) as info:
        build_factorization(sys, ThetaScheme(1.0, 1e-3, 1))
    assert info.value.pivot == 5


def one_element_blocks():
    """The blocks of one MCV element of degree 2 under flux data, with the
    interior rows cut off the vertex columns, so that the vertex Schur
    complement is the vertex-vertex block.  Its two vertex DOFs, T at
    either end, are free, at free indices 0 and 6."""
    sys = assemble(Mesh.uniform(1, 0.005), MCV_MAT, ModelKind.MCV, 2, QUIET_BCS)
    v, i = [0, 1], slice(2, None)
    assert list(sys.dofmap.full_to_free[sys.dofmap.block_dofs[0, v]]) == [0, 6]
    a, b = sys.A_blocks.copy(), sys.B_blocks.copy()
    a[:, i, v] = b[:, i, v] = 0.0
    return sys, a, b, v, i


def test_a_zero_row_of_the_vertex_schur_complement_is_reported():
    # The rear temperature row keeps its interior couplings, so the implicit
    # matrix has no zero row, but nothing is left of it on the vertices.
    sys, a, b, v, _ = one_element_blocks()
    a[0, 1, v] = b[0, 1, v] = 0.0
    with pytest.raises(FactorizationError) as info:
        build_factorization(replace(sys, A_blocks=a, B_blocks=b), ThetaScheme(1.0, 1e-3, 1))
    assert info.value.pivot == 7


def test_a_singular_vertex_schur_complement_is_reported():
    # Two equal vertex rows with no interior couplings equilibrate to the
    # all-ones 2 x 2 block, which dgbtrf finds singular at its second pivot.
    sys, a, b, v, i = one_element_blocks()
    a[:, v, i] = b[:, v, i] = 0.0
    a[:, :2, :2] = b[:, :2, :2] = 1.0
    with pytest.raises(FactorizationError) as info:
        build_factorization(replace(sys, A_blocks=a, B_blocks=b), ThetaScheme(1.0, 1e-3, 1))
    assert info.value.pivot == 7


def test_an_illegal_argument_to_the_band_factorization_is_reported(monkeypatch):
    # Only a malformed call returns info < 0, so dgbtrf is faked.
    sys = assemble(Mesh.uniform(3, 0.005), MCV_MAT, ModelKind.MCV, 2, PULSE_BCS)
    monkeypatch.setattr(
        hpheat.condense, "dgbtrf", lambda ab, kl, ku: (ab, np.zeros(ab.shape[1], np.int32), -4)
    )
    with pytest.raises(RuntimeError, match="illegal argument 4 in banded factorization"):
        build_factorization(sys, ThetaScheme(1.0, 1e-3, 1))


def test_a_malformed_back_substitution_is_reported():
    # Step arrays that claim more superdiagonals than their upper band
    # holds: dgbtrs rejects the leading dimension of the band.
    sys = assemble(Mesh.uniform(3, 0.005), MCV_MAT, ModelKind.MCV, 2, PULSE_BCS)
    fact = build_factorization(sys, ThetaScheme(1.0, 1e-3, 1))
    step = step_arrays(fact)
    x = np.concatenate((fact.state(np.zeros(sys.dim)), np.zeros(fact.load_rows.size)))
    with pytest.raises(RuntimeError, match="banded back-substitution failed with info -7"):
        advance(replace(step, ku=step.ku + 5), x, np.empty_like(x))


def public_step(fact, w, load):
    """One step written with scipy's public `@` and LAPACK's dgbtrs on the
    factors as dgbtrf left them."""
    rhs = fact.m_expl @ w
    rhs[fact.load_rows] += load
    nv = fact.n_vertex
    if nv:
        rhs[:nv] = scipy.linalg.lapack.dgbtrs(fact.lu, fact.kl, fact.ku, rhs[:nv], fact.ipiv)[0]
    return rhs


@pytest.mark.parametrize("members", [["gk"], ["mcv"], ["gk", "mcv"]])
def test_the_private_kernels_are_bitwise_the_public_products(members):
    # advance calls scipy.sparse._sparsetools.csr_matvec, a private module:
    # a scipy whose `@` ends in another kernel, or whose kernel takes other
    # arguments, fails here or in
    # test_the_step_is_bitwise_the_public_formulation.
    systems = {
        "gk": assemble(Mesh.uniform(4, 0.005), GK_MAT, ModelKind.GK, 3, PULSE_BCS),
        "mcv": assemble(Mesh.uniform(3, 0.005), MCV_MAT, ModelKind.MCV, 4, PULSE_BCS),
    }
    scheme = ThetaScheme(0.5, 1e-3, 1)
    facts, probes, start = [], [], 0
    for name in members:
        sys = systems[name]
        facts.append(build_factorization(sys, scheme))
        probes += [
            replace(r, free_idx=r.free_idx + start)
            for r in (probe_row(sys.dofmap, x, fld) for x, fld in ALL_PROBES)
        ]
        start += sys.dim
    fact = facts[0] if len(facts) == 1 else hpheat.condense.stack(facts)
    step = step_arrays(fact, probes)
    # Index arrays of one type: the kernel then converts no input per call.
    for m in (fact.m_expl, fact.interior, step.matrix):
        assert m.indptr.dtype == m.indices.dtype
    # The step matrix with the probes' rows: the next state, and the probe
    # functionals on the state the step reads.
    dim, n_load = fact.dim, fact.load_rows.size
    x = np.empty(dim + max(n_load, len(probes)))
    y = np.empty_like(x)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(dim)
    for _ in range(5):
        load = rng.standard_normal(n_load)
        x[:dim], x[dim:dim + n_load] = w, load
        advance(step, x, y)
        assert np.array_equal(y[dim:dim + len(probes)], step.functionals @ w)
        w = public_step(fact, w, load)
        assert np.array_equal(y[:dim], w)


def chained_interchanges():
    """A vertex-only factorization of a random band matrix whose small
    diagonal makes dgbtrf interchange rows at most columns, so that a
    multiplier travels down several rows: the step's lower band grows past
    kl.  Its step operator is a random matrix of the same band."""
    n, kl = 12, 2
    rng = np.random.default_rng(3)
    dense = np.triu(np.tril(rng.uniform(0.5, 1.0, (n, n)), kl), -kl)
    dense[np.diag_indices(n)] *= 1e-3
    ab = np.zeros((3 * kl + 1, n), order="F")
    for i, j in zip(*np.nonzero(dense)):
        ab[2 * kl + i - j, j] = dense[i, j]
    lu, ipiv, info = scipy.linalg.lapack.dgbtrf(ab, kl, kl)
    assert info == 0
    load_rows = np.array([0, 5, n - 1])
    return hpheat.condense.CondensedFactorization(
        lu=lu, ipiv=ipiv, kl=kl, ku=kl, dim=n,
        m_expl=sp.csr_matrix(rng.standard_normal((n, n)) * (dense != 0.0)),
        row_scale=np.ones(n), col_scale=np.ones(n), order=np.arange(n), n_vertex=n,
        interior=sp.csr_matrix((0, n)), load_rows=load_rows,
        load_fold=sp.identity(load_rows.size, format="csr"), to_eigenbasis=(),
    )


def benchmark_factorization(model, tau, n, p, theta=1.0):
    """The factorization of a study benchmark system, as solve_transient
    builds it."""
    kappa2 = {"kappa2": 8e-6} if model is ModelKind.GK else {}
    sc = benchmark_scenario(
        model, tau=tau, conductivity=STUDY_CONDUCTIVITY, dt=1e-3, n_steps=1, **kappa2
    )
    _, lowered, _ = discretize(sc, n, p)
    return build_factorization(lowered, ThetaScheme(theta, 1e-3, 1))


def step_case(case):
    if case == "gk_100x10":
        return benchmark_factorization(ModelKind.GK, 0.3, 100, 10)
    if case == "mcv_100x10":
        return benchmark_factorization(ModelKind.MCV, 0.05, 100, 10)
    if case == "mcv_p_sweep_stack":
        return hpheat.condense.stack(
            [benchmark_factorization(ModelKind.MCV, 0.05, 4, p, 0.5) for p in (1, 2, 4, 8)]
            + [benchmark_factorization(ModelKind.MCV, 0.05, 100, 10, 0.5)]
        )
    if case == "gk_mcv_stack":
        # Members of kl 3 and 1: the MCV member's factors sit in the
        # stack's wider band with its extra diagonals zero, and it
        # interchanges one row.
        return hpheat.condense.stack(
            [benchmark_factorization(ModelKind.GK, 0.3, 100, 10)]
            + [benchmark_factorization(ModelKind.MCV, 0.05, 100, 10)]
        )
    if case == "no_free_vertex":
        mat, model, n, p = DENSE_CASES["fourier_one_element"]
        sys = assemble(Mesh.uniform(n, 0.005), mat, model, p, DENSE_DATA["dirichlet_both"])
        return build_factorization(sys, ThetaScheme(0.5, 1e-3, 1))
    return chained_interchanges()


STEP_CASES = [
    "gk_100x10", "mcv_100x10", "mcv_p_sweep_stack", "gk_mcv_stack", "no_free_vertex",
    "chained_interchanges",
]


@pytest.mark.parametrize("case", STEP_CASES)
def test_the_step_is_bitwise_the_public_formulation(case):
    # advance takes dgbtrf's interchanges up front, in the order of the step
    # operator's rows, and sweeps forward with one dtbsv where dgbtrs makes
    # one rank-one update per column: every sum is the same, bit for bit.
    fact = step_case(case)
    step = step_arrays(fact)
    swaps = np.count_nonzero(fact.ipiv != np.arange(fact.n_vertex))
    expected = {
        "gk_100x10": (0, 3),
        "mcv_100x10": (1, 2),
        "gk_mcv_stack": (1, 4),
        "no_free_vertex": (0, 0),
    }
    if case in expected:
        assert (swaps, step.reach) == expected[case]
    else:
        assert swaps and step.reach > fact.kl
    rng = np.random.default_rng(11)
    w = rng.standard_normal(fact.dim)
    x = np.empty(fact.dim + fact.load_rows.size)
    y = np.empty_like(x)
    for _ in range(5):
        load = rng.standard_normal(fact.load_rows.size)
        x[:fact.dim], x[fact.dim:] = w, load
        advance(step, x, y)
        w = public_step(fact, w, load)
        assert np.array_equal(y[:fact.dim].view(np.uint64), w.view(np.uint64))


def test_the_study_systems_keep_the_forward_sweep_within_one_row_of_kl():
    # Chained interchanges widen the forward sweep's band up to n_vertex - 1
    # (chained_interchanges).  Every system of the study's sweeps and
    # references, at theta 1/2 and 1, interchanges at most one row, so its
    # sweep stays O(n_vertex kl).
    widest = 0
    for spec in benchmark_sweep_families(n_steps=1):
        points = [(v, spec.fixed) if spec.kind == "h" else (spec.fixed, v) for v in spec.values]
        points.append((REFERENCE_ELEMENTS, REFERENCE_DEGREE))
        for tau, theta, (n, p) in itertools.product(spec.taus, (0.5, 1.0), points):
            _, lowered, _ = discretize(spec.scenario_factory(tau), n, p)
            fact = build_factorization(lowered, ThetaScheme(theta, 1e-3, 1))
            assert np.count_nonzero(fact.ipiv != np.arange(fact.n_vertex)) <= 1
            widest = max(widest, step_arrays(fact).reach - fact.kl)
    assert widest == 1


def check_step_against_dense_solve(sys, scheme, a0):
    fact = build_factorization(sys, scheme)
    got = step(sys, scheme, fact, a0, 0.0)

    A = sys.A.toarray()
    B = sys.B.toarray()
    dt, th = scheme.dt, scheme.theta
    m_impl = A + dt * th * B
    rhs = (A - dt * (1 - th) * B) @ a0 + dt * sys.load_average(0.0, dt)

    # Backward stability: the condensed solution satisfies the implicit
    # equation to roundoff at the matrix and solution scale.
    residual = m_impl @ got - rhs
    scale = np.max(np.abs(m_impl)) * np.max(np.abs(got)) + np.max(np.abs(rhs))
    assert np.max(np.abs(residual)) <= 1e-12 * scale

    # And it agrees with a dense solve up to the conditioning of the system.
    want = np.linalg.solve(m_impl, rhs)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_one_step_matches_dense_solve():
    sys = assemble(Mesh.uniform(6, 0.005), MCV_MAT, ModelKind.MCV, 3, PULSE_BCS)
    a0 = apply_initial_conditions(sys, lambda x: 293.0 + 40.0 * x / 0.005, 0.0)
    check_step_against_dense_solve(sys, ThetaScheme(theta=0.7, dt=1e-3, n_steps=1), a0)


BADLY_SCALED = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3e3, tau=0.05, kappa2=0.8)
DENSE_CASES = {
    "fourier": (MaterialParams(2600.0, 800.0, 3.0), ModelKind.FOURIER, 6, 3),
    "mcv": (MCV_MAT, ModelKind.MCV, 6, 3),
    "gk": (GK_MAT, ModelKind.GK, 6, 3),
    "gk_badly_scaled": (BADLY_SCALED, ModelKind.GK, 8, 4),
    # Both end vertices, and every constrained DOF, in one element.
    "gk_one_element": (GK_MAT, ModelKind.GK, 1, 3),
    # Interior blocks of two rows.
    "gk_p1": (GK_MAT, ModelKind.GK, 6, 1),
    # With a temperature prescribed on both faces no vertex DOF is free, and
    # the vertex band is empty.
    "fourier_one_element": (MaterialParams(2600.0, 800.0, 3.0), ModelKind.FOURIER, 1, 2),
}


# Flux data load the natural rows; prescribed temperatures load the rows
# coupled to them, through their step means and rates.
DENSE_DATA = {
    "flux": PULSE_BCS,
    "dirichlet_left": BoundarySpec(left=DirichletTemperature(RISING), right=PrescribedFlux(ZERO)),
    "dirichlet_both": BoundarySpec(
        left=DirichletTemperature(RISING), right=DirichletTemperature(RISING)
    ),
}
DENSE_RUNS = [(case, data) for case in sorted(DENSE_CASES) for data in sorted(DENSE_DATA)]


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize(
    "case,data",
    DENSE_RUNS,
    # Flux data are the default, left out of the ids.
    ids=[case if data == "flux" else f"{case}-{data}" for case, data in DENSE_RUNS],
)
def test_one_step_matches_dense_solve_for_every_model(case, data, theta):
    mat, model, n, p = DENSE_CASES[case]
    sys = assemble(Mesh.uniform(n, 0.005), mat, model, p, DENSE_DATA[data])
    a0 = apply_initial_conditions(
        sys, lambda x: 293.0 + 40.0 * x / 0.005, lambda x: 1e3 * np.sin(np.pi * x / 0.005)
    )
    check_step_against_dense_solve(sys, ThetaScheme(theta=theta, dt=1e-3, n_steps=1), a0)


def test_equilibration_agrees_with_sparse_solve_when_badly_scaled():
    # Strongly nonlocal, stiff conduction: raw row scales span many decades.
    sys = assemble(Mesh.uniform(8, 0.005), BADLY_SCALED, ModelKind.GK, 4, PULSE_BCS)
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    scheme = ThetaScheme(theta=1.0, dt=1e-3, n_steps=1)
    fact = build_factorization(sys, scheme)
    got = step(sys, scheme, fact, a0, 0.0)

    m_impl = (sys.A + scheme.dt * sys.B).tocsc()
    rhs = sys.A @ a0 + scheme.dt * sys.load_average(0.0, scheme.dt)
    want = sp.linalg.spsolve(m_impl, rhs)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "mat,model",
    [
        (MaterialParams(2600, 800, 3.0), ModelKind.FOURIER),
        (MCV_MAT, ModelKind.MCV),
        (GK_MAT, ModelKind.GK),
    ],
)
def test_equilibrium_is_a_fixed_point(mat, model):
    length = 0.005
    sys = assemble(Mesh.uniform(6, length), mat, model, 3, QUIET_BCS)
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    scheme = ThetaScheme(theta=0.5, dt=1e-3, n_steps=50)
    sol = integrate(
        sys, scheme, a0, probes=((0.0, Field.TEMPERATURE), (0.0025, Field.HEAT_FLUX))
    )
    # Flux coefficients sit in a roundoff orbit fed by the algebraic q rows;
    # measure them against the conduction scale lam T / L of those rows.
    flux_scale = mat.conductivity * 293.0 / length
    drift = sys.full_state(sol.final_state, 0.0) - sys.full_state(a0, 0.0)
    t_dofs = sys.dofmap.field_dofs(Field.TEMPERATURE)
    q_dofs = sys.dofmap.field_dofs(Field.HEAT_FLUX)
    assert np.max(np.abs(sol.probe_values[0] - 293.0)) <= 1e-10 * 293.0
    assert np.max(np.abs(sol.probe_values[1])) <= 1e-10 * flux_scale
    assert np.max(np.abs(drift[t_dofs])) <= 1e-10 * 293.0
    assert np.max(np.abs(drift[q_dofs])) <= 1e-10 * flux_scale


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_unforced_energy_decays(theta):
    # lam t'C t + q'T q is a Lyapunov function of the homogeneous system for
    # every admissible theta.
    sys = assemble(Mesh.uniform(6, 0.005), MCV_MAT, ModelKind.MCV, 3, QUIET_BCS)
    a0 = apply_initial_conditions(
        sys,
        lambda x: 10.0 * np.sin(np.pi * x / 0.005) + 3.0 * np.cos(7 * np.pi * x / 0.005),
        lambda x: 200.0 * np.cos(2 * np.pi * x / 0.005),
    )
    # State n is the final state of the n-step prefix of the run.
    states = [integrate(sys, ThetaScheme(theta, 5e-4, n), a0).final_state for n in range(41)]

    t_dofs = sys.dofmap.field_dofs(Field.TEMPERATURE)
    q_dofs = sys.dofmap.field_dofs(Field.HEAT_FLUX)
    A = sys.A_full
    C = A[t_dofs][:, t_dofs]
    T = A[q_dofs][:, q_dofs]
    lam = sys.material.conductivity

    def energy(alpha):
        full = sys.full_state(alpha, 0.0)
        t_part, q_part = full[t_dofs], full[q_dofs]
        return lam * float(t_part @ (C @ t_part)) + float(q_part @ (T @ q_part))

    levels = np.array([energy(state) for state in states])
    assert levels[-1] < levels[0]
    assert np.all(np.diff(levels) <= 1e-12 * levels[0])


def test_first_step_matches_closed_form_boundary_layer():
    # Stiff conduction makes the one-step profile a thin exponential layer;
    # the front rise identifies how constraint data enters the averaged load.
    mat = MaterialParams(rho=2600.0, c_v=800.0, conductivity=1e4, tau=0.3, kappa2=8e-6)
    sys = assemble(Mesh.uniform(100, 0.005), mat, ModelKind.GK, 8, PULSE_BCS)
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    scheme = ThetaScheme(theta=1.0, dt=1e-3, n_steps=1)
    sol = integrate(sys, scheme, a0, probes=((0.0, Field.TEMPERATURE),))
    rise = sol.probe_values[0, 1] - 293.0

    dt = scheme.dt
    rho_c = mat.volumetric_heat_capacity
    mu = np.sqrt((1.0 + mat.tau / dt) / (mat.kappa2 + mat.conductivity / rho_c * dt))
    gbar = flash_pulse(PulseParams()).average(0.0, dt)
    predicted = dt * mu * gbar / rho_c
    assert rise == pytest.approx(predicted, rel=1e-8)


STUDY_MATERIALS = {
    "fourier": (MaterialParams(2600.0, 800.0, 3e3), ModelKind.FOURIER),
    "mcv": (MaterialParams(2600.0, 800.0, 3e3, tau=0.05), ModelKind.MCV),
    "gk_wave": (MaterialParams(2600.0, 800.0, 3e3, tau=0.05, kappa2=8e-6), ModelKind.GK),
    "gk_diffuse": (MaterialParams(2600.0, 800.0, 3e3, tau=0.05, kappa2=0.8), ModelKind.GK),
}
BOUNDARY_DATA = {
    "flux": PULSE_BCS,
    "dirichlet": BoundarySpec(left=DirichletTemperature(RISING), right=PrescribedFlux(ZERO)),
}
ALL_PROBES = (
    (0.0, Field.TEMPERATURE),
    (0.005, Field.TEMPERATURE),
    (0.0025, Field.HEAT_FLUX),
    (0.0, Field.HEAT_FLUX),
)


def with_prescribed(sys, row, free, t):
    """A probe value from its free part, with the prescribed part added as
    ProbeRow.evaluate adds it."""
    for pos, w in zip(row.cons_idx, row.cons_w):
        free += w * sys.dofmap.constrained[pos].value.value(t)
    return free


def march_step_by_step(sys, scheme, alpha0, probes):
    """The step loop with the load recomputed at every step from the
    system's averaged load, and the probe values from every state through
    the probes' functionals on the condensed state (StepArrays)."""
    rows = [probe_row(sys.dofmap, x, fld) for x, fld in probes]
    fact = build_factorization(sys, scheme)
    step = step_arrays(fact, rows)
    dt = scheme.dt
    times = np.arange(scheme.n_steps + 1) * dt
    values = np.empty((len(rows), times.size))
    values[:, 0] = [row.evaluate(sys, alpha0, 0.0) for row in rows]
    states = [alpha0.copy()]
    s = fact.state(alpha0)
    prev_average = None
    for n in range(scheme.n_steps):
        t0, t1 = times[n], times[n + 1]
        load = sys.load_average(t0, t1, prev_average)
        prev_average = np.array([c.value.average(t0, t1) for c in sys.dofmap.constrained])
        s = condensed_step(sys, fact, s, dt * load)
        free = step.scales * (step.functionals @ s)
        values[:, n + 1] = [with_prescribed(sys, row, f, t1) for row, f in zip(rows, free)]
        states.append(fact.coefficients(s))
    return values, np.array(states)


def held_spec(bcs, dt, held_at_step_ends):
    """The boundary spec with both sides' data held at their step-end samples."""
    return BoundarySpec(
        left=replace(bcs.left, value=held_at_step_ends(bcs.left.value, dt)),
        right=replace(bcs.right, value=held_at_step_ends(bcs.right.value, dt)),
    )


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("load", ["average", "sampled"])
@pytest.mark.parametrize("data", sorted(BOUNDARY_DATA))
@pytest.mark.parametrize("family", sorted(STUDY_MATERIALS))
def test_integrate_is_bitwise_the_step_by_step_loop(family, data, load, theta, held_at_step_ends):
    # load "sampled" holds the data at their step-end samples: values that
    # jump at every grid time, and step means that are the samples.
    bcs = BOUNDARY_DATA[data]
    if load == "sampled":
        bcs = held_spec(bcs, 1e-3, held_at_step_ends)
    assert_bitwise_the_step_by_step_loop(family, bcs, theta)


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("data", sorted(BOUNDARY_DATA))
@pytest.mark.parametrize("family", sorted(STUDY_MATERIALS))
def test_integrate_is_bitwise_the_step_by_step_loop_across_blocks(
    family, data, theta, monkeypatch
):
    # 40 steps in blocks of 7: five full blocks of the load fold and a
    # short one, and the prefix runs end at every place within a block.
    monkeypatch.setattr(hpheat.timeint, "_BLOCK_STEPS", 7)
    assert_bitwise_the_step_by_step_loop(family, BOUNDARY_DATA[data], theta)


def assert_bitwise_the_step_by_step_loop(family, bcs, theta):
    mat, model = STUDY_MATERIALS[family]
    scheme = ThetaScheme(theta=theta, dt=1e-3, n_steps=40)
    sys = assemble(Mesh.uniform(5, 0.005), mat, model, 3, bcs)
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    sol = integrate(sys, scheme, a0, probes=ALL_PROBES)
    values, states = march_step_by_step(sys, scheme, a0, ALL_PROBES)
    assert np.array_equal(sol.probe_values, values)
    assert np.array_equal(sol.final_state, states[-1])
    # Every intermediate state, as the final state of a prefix run.
    for n in range(scheme.n_steps):
        prefix = integrate(sys, replace(scheme, n_steps=n), a0, probes=ALL_PROBES)
        assert np.array_equal(prefix.final_state, states[n])
        assert np.array_equal(prefix.probe_values, values[:, :n + 1])


# The largest gap, relative to each history's range, allowed between
# integrate's probe values, which the probes' functionals read off the
# condensed state, and ProbeRow.evaluate on the recovered coefficients of
# the same states.  Over these 16 cases, marched from an absolute 293 K
# state, the gap was up to 6.3e-11 on the default OpenBLAS kernel path
# (fourier, Dirichlet data, theta 1, q_mid) and 7.1e-11 on the Haswell path.
# Both sides are about that far from the exact value of free_w .
# coefficients(w)[free_idx] on the same states, taken in rational
# arithmetic: on the fourier Dirichlet case at theta 1/2, evaluate is off by
# up to 7.4e-11 of the range and the functionals by 7.8e-11; on gk_wave by
# 2.1e-13 and 2.9e-15.  The limit is about three times the largest gap.
FUNCTIONAL_GAP = 2e-10


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("data", sorted(BOUNDARY_DATA))
@pytest.mark.parametrize("family", sorted(STUDY_MATERIALS))
def test_the_probe_functionals_agree_with_the_recovered_coefficients(
    family, data, theta, monkeypatch
):
    monkeypatch.setattr(hpheat.timeint, "_BLOCK_STEPS", 7)
    mat, model = STUDY_MATERIALS[family]
    scheme = ThetaScheme(theta=theta, dt=1e-3, n_steps=40)
    sys = assemble(Mesh.uniform(5, 0.005), mat, model, 3, BOUNDARY_DATA[data])
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    got = integrate(sys, scheme, a0, probes=ALL_PROBES).probe_values
    _, states = march_step_by_step(sys, scheme, a0, ALL_PROBES)
    rows = [probe_row(sys.dofmap, x, fld) for x, fld in ALL_PROBES]
    want = np.array([[r.evaluate(sys, a, t) for a, t in zip(states, scheme.times)] for r in rows])
    gap = np.max(np.abs(got - want), axis=1) / np.ptp(want, axis=1)
    assert np.all(gap <= FUNCTIONAL_GAP)


def test_every_probe_functional_row_has_unit_max_norm():
    # Dirichlet data on the left face: the temperature probe there has only
    # zero free weights.  The flux probe at L/2 sits inside an element, so
    # its row reads interior entries of the state.
    sys = assemble(Mesh.uniform(5, 0.005), GK_MAT, ModelKind.GK, 3, BOUNDARY_DATA["dirichlet"])
    fact = build_factorization(sys, ThetaScheme(0.5, 1e-3, 1))
    rows = [probe_row(sys.dofmap, x, fld) for x, fld in ALL_PROBES]
    step = step_arrays(fact, rows)
    f = step.functionals
    assert f.shape == (len(rows), fact.dim)
    assert rows[0].free_w.size and not rows[0].free_w.any()
    assert np.array_equal(np.diff(f.indptr) > 0, [False, True, True, True])
    assert np.array_equal(abs(f[1:]).max(axis=1).toarray().ravel(), np.ones(3))
    assert f[2].indices.max() >= fact.n_vertex
    # The step matrix holds them after the step operator's rows.
    assert np.array_equal(step.matrix[fact.dim:, :fact.dim].toarray(), f.toarray())
    assert not step.matrix[fact.dim:, fact.dim:].count_nonzero()
    # The study's probes on GK 100x10 each read one vertex entry.
    sc = benchmark_scenario(
        ModelKind.GK, tau=0.3, kappa2=8e-6, conductivity=STUDY_CONDUCTIVITY, dt=1e-3, n_steps=1
    )
    _, lowered, probes = discretize(sc, 100, 10)
    rows = [probe_row(lowered.dofmap, x, fld) for x, fld in probes]
    fact = build_factorization(lowered, ThetaScheme(1.0, 1e-3, 1))
    f = step_arrays(fact, rows).functionals
    assert np.array_equal(f.indptr, [0, 1, 2, 3]) and np.array_equal(f.data, np.ones(3))
    assert np.all(f.indices < fact.n_vertex)


def dense_theta_march(sys, scheme, alpha0, probes):
    """The probe histories of the theta scheme on the unreduced free system:
    the global matrices as dense arrays, one equilibrated dense LU with
    partial pivoting, and the load table of prepare on the load rows."""
    prepared = prepare(sys, scheme, probes)
    dt, th = scheme.dt, scheme.theta
    A, B = sys.A.toarray(), sys.B.toarray()
    m_impl = A + dt * th * B
    m_expl = A - dt * (1.0 - th) * B
    r = 1.0 / np.abs(m_impl).max(axis=1)
    c = 1.0 / np.abs(r[:, None] * m_impl).max(axis=0)
    lu = scipy.linalg.lu_factor(r[:, None] * m_impl * c)
    alpha = alpha0.copy()
    values = np.empty((len(probes), scheme.n_steps + 1))
    for n, t in enumerate(scheme.times):
        if n:
            rhs = m_expl @ alpha
            rhs[sys.load_rows] += prepared.loads[n - 1]
            alpha = c * scipy.linalg.lu_solve(lu, r * rhs)
        values[:, n] = [row.evaluate(sys, alpha, t) for row in prepared.probes]
    return values


# The largest gap, relative to each history's range, allowed between
# integrate and the dense march over 500 steps: ten times the largest gap
# measured when a step still recovered the interiors with a second sparse
# product (6.7e-10 for GK, on T_rear, and 2.7e-10 for MCV), and for the
# over-diffuse GK case ten times the gap measured before the interiors were
# marched in their Hessenberg basis (2.1e-8, on T_rear). The margin covers
# roundoff that differs, not roundoff that grows with the step count: the
# float64 dense march itself is 1.3e-9 away from the same march in extended
# precision on the GK case.
DENSE_MARCH_CASES = {
    "gk_dirichlet_left": ("gk_wave", "dirichlet", 6.7e-9),
    "gk_diffuse_flux": ("gk_diffuse", "flux", 2.1e-7),
    "mcv_flux": ("mcv", "flux", 2.7e-9),
}


@pytest.mark.parametrize("case", sorted(DENSE_MARCH_CASES))
def test_long_march_agrees_with_the_dense_unreduced_march(case):
    family, data, limit = DENSE_MARCH_CASES[case]
    mat, model = STUDY_MATERIALS[family]
    sys = assemble(Mesh.uniform(5, 0.005), mat, model, 3, BOUNDARY_DATA[data])
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    scheme = ThetaScheme(theta=0.5, dt=1e-3, n_steps=500)
    got = integrate(sys, scheme, a0, probes=ALL_PROBES).probe_values
    want = dense_theta_march(sys, scheme, a0, ALL_PROBES)
    gap = np.max(np.abs(got - want), axis=1) / np.ptp(want, axis=1)
    assert np.all(gap <= limit)


def test_run_without_probes_across_blocks(monkeypatch):
    monkeypatch.setattr(hpheat.timeint, "_BLOCK_STEPS", 7)
    sys = assemble(Mesh.uniform(5, 0.005), GK_MAT, ModelKind.GK, 3, BOUNDARY_DATA["dirichlet"])
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    scheme = ThetaScheme(theta=0.5, dt=1e-3, n_steps=40)
    sol = integrate(sys, scheme, a0)
    _, states = march_step_by_step(sys, scheme, a0, ())
    assert sol.probe_values.shape == (0, 41)
    assert np.array_equal(sol.final_state, states[-1])


def test_probe_without_free_weights_reads_the_prescribed_values(monkeypatch):
    # The temperature row at a Dirichlet face has only zero free weights;
    # without them it is all prescribed part, and its gathered block is
    # empty, between the blocks of the probes beside it.
    monkeypatch.setattr(hpheat.timeint, "_BLOCK_STEPS", 7)
    sys = assemble(Mesh.uniform(5, 0.005), GK_MAT, ModelKind.GK, 3, BOUNDARY_DATA["dirichlet"])
    scheme = ThetaScheme(theta=0.5, dt=1e-3, n_steps=40)
    prepared = prepare(sys, scheme, ALL_PROBES)
    face = prepared.probes[0]
    assert face.cons_idx.size and not face.free_w.any()
    bare = replace(face, free_idx=face.free_idx[:0], free_w=face.free_w[:0])
    probes = [prepared.probes[1], bare, prepared.probes[2]]
    (got,) = integrate_stack([replace(prepared, probes=probes)], scheme)
    (want,) = integrate_stack([prepared], scheme)
    assert np.array_equal(got.probe_values[0], want.probe_values[1])
    assert np.array_equal(got.probe_values[2], want.probe_values[2])
    # 0 + w g(t) with w = 1: the prescribed values themselves.
    prescribed = on_grid([RISING], scheme.times, "value")[:, 0]
    assert face.cons_w.tolist() == [1.0]
    assert np.array_equal(got.probe_values[1], prescribed)
    assert np.array_equal(want.probe_values[0], prescribed)


def test_per_step_helpers_are_not_called_per_step(monkeypatch):
    calls = Counter()
    for owner, name in (
        (TimeFunction, "average"),
        (SemiDiscreteSystem, "load_average"),
        (ProbeRow, "evaluate"),
    ):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    sys = assemble(Mesh.uniform(4, 0.005), GK_MAT, ModelKind.GK, 2, BOUNDARY_DATA["dirichlet"])
    a0 = apply_initial_conditions(sys, 293.0, 0.0)

    def calls_at(n_steps):
        calls.clear()
        integrate(sys, ThetaScheme(0.5, 1e-3, n_steps), a0, probes=ALL_PROBES)
        return dict(calls)

    assert calls_at(10) == calls_at(200)


def test_the_interior_recovery_is_off_the_step_path(monkeypatch):
    # Every factorization that timeint builds or stacks counts the products
    # with its conversion operator `interior`, [-N | W], and the conversions
    # into the eigenbasis W^-1.  The probes' functionals read the entries of
    # `interior` once per march, and make no product with it.
    calls = Counter()

    class Counted(sp.csr_matrix):
        # csr_matrix.dot also ends here.
        def __matmul__(self, other):
            calls["products"] += 1
            return super().__matmul__(other)

        def __rmatmul__(self, other):
            calls["products"] += 1
            return super().__rmatmul__(other)

    def counted(build):
        def wrapped(*args):
            fact = build(*args)
            return replace(fact, interior=Counted(fact.interior))

        return wrapped

    apply = hpheat.eigenbasis.EigenbasisRun.apply

    def converted(run, w):
        calls["conversions"] += 1
        apply(run, w)

    monkeypatch.setattr(hpheat.eigenbasis.EigenbasisRun, "apply", converted)
    monkeypatch.setattr(hpheat.timeint, "build_factorization", counted(build_factorization))
    monkeypatch.setattr(hpheat.timeint, "stack", counted(hpheat.timeint.stack))
    sys = assemble(Mesh.uniform(4, 0.005), GK_MAT, ModelKind.GK, 3, BOUNDARY_DATA["dirichlet"])
    a0 = apply_initial_conditions(sys, 293.0, 0.0)

    def count(run, n_steps):
        calls.clear()
        run(ThetaScheme(0.5, 1e-3, n_steps))
        return calls["products"], calls["conversions"]

    def alone(scheme):
        integrate(sys, scheme, a0, probes=ALL_PROBES)

    def stacked(scheme):
        members = [prepare(sys, scheme, ALL_PROBES), prepare(sys, scheme, ALL_PROBES[2:])]
        integrate_stack(members, scheme)

    # Once into the state, as the product -N v and one conversion W^-1 (y_i
    # + N v) per member, and once back out, W u - N v, whatever the step
    # count.
    assert count(alone, 10) == count(alone, 40) == (2, 1)
    assert count(stacked, 10) == count(stacked, 40) == (2, 2)
    fact = hpheat.timeint.build_factorization(sys, ThetaScheme(0.5, 1e-3, 1))
    w = fact.state(a0)
    calls.clear()
    one_step(fact, w, np.zeros(fact.load_rows.size))
    assert not calls


def interior_entries(fact, n):
    """Element, row and column within the element of every entry of the
    step operator that an element's interior rows hold in interior columns,
    and the element's interior size."""
    nv = fact.n_vertex
    ni = (fact.dim - nv) // n
    rows = np.repeat(np.arange(fact.dim), np.diff(fact.m_expl.indptr))
    inner = (rows >= nv) & (fact.m_expl.indices >= nv)
    (element, row), (other, col) = divmod(rows[inner] - nv, ni), divmod(fact.m_expl.indices[inner] - nv, ni)
    # Nothing of the other elements' interiors.
    assert np.array_equal(element, other)
    return element, row, col, fact.m_expl.data[inner], ni


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("model", [ModelKind.GK, ModelKind.MCV])
def test_interior_blocks_are_diagonalized_once_per_distinct_block(monkeypatch, model, graded):
    # Mesh.uniform's nodes give a few distinct Jacobians, so few distinct
    # interior blocks; graded nodes give every element a block of its own.
    # The GK blocks have real eigenvalues only, the MCV blocks mostly
    # complex pairs.
    reduced = []
    real = hpheat.eigenbasis.dgeev

    def dgeev(a, *args, **kwargs):
        reduced.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(hpheat.eigenbasis, "dgeev", dgeev)
    n = 100
    mesh = Mesh.uniform(n, 0.005)
    if graded:
        mesh = Mesh(0.005 * (np.geomspace(1.0, 3.0, n + 1) - 1.0) / 2.0)
    mat = GK_MAT if model is ModelKind.GK else MCV_MAT
    sys = assemble(mesh, mat, model, 10, BOUNDARY_DATA["flux"])
    fact = build_factorization(sys, ThetaScheme(1.0, 1e-3, 1))
    # Each element's interior rows hold its block T in the interior
    # columns: the diagonal, and the 2x2 block [[a, b], [-b, a]] of each
    # complex pair, stored where b != 0 and nowhere else.
    element, row, col, value, ni = interior_entries(fact, n)
    (run,) = fact.to_eigenbasis
    assert not np.any([np.array_equal(b, np.eye(ni)) for b in run.inverse])
    pair = row != col
    assert np.all(np.abs(row - col) <= 1)
    assert np.all(value[pair] != 0.0)
    upper = pair & (col > row)
    at = np.flatnonzero(upper)
    # The entries follow each other row by row, so a pair's four entries
    # are a, b in row j and then -b, a in row j + 1.
    assert np.array_equal(value[at + 1], -value[at])
    assert np.array_equal(value[at + 2], value[at - 1])
    assert element.size == n * ni + 2 * upper.sum()
    assert (upper.sum() > 0) == (model is ModelKind.MCV)
    # One reduction per distinct block.
    assert len({a.tobytes() for a in reduced}) == len(reduced)
    assert len(reduced) == n if graded else len(reduced) < n


def test_a_singular_eigenbasis_marches_every_block_as_it_stands():
    # A nilpotent Jordan block has one eigenvector, and dgeev returns it
    # three times: W is exactly singular.  The diagonal block beside it has
    # a perfect eigenbasis, but a singular W sends every block back.
    blocks = np.stack((np.eye(3, k=1), np.diag([1.0, 2.0, 3.0])))
    t, basis, to_basis, structure = hpheat.eigenbasis.diagonalize(blocks)
    assert np.array_equal(t, blocks)
    assert np.array_equal(basis, np.broadcast_to(np.eye(3), blocks.shape))
    assert np.array_equal(to_basis, basis)
    assert structure.all()
    # Alone, the diagonal block is diagonalized.
    t, basis, to_basis, structure = hpheat.eigenbasis.diagonalize(blocks[1:])
    assert np.array_equal(t, blocks[1:]) and np.array_equal(structure[0], np.eye(3, dtype=bool))


def test_ill_conditioned_interior_blocks_march_as_they_stand():
    # Nonlocal GK without the gradient term, at a long relaxation time, high
    # degree and a tiny step: the eigenvectors of both interior blocks have
    # kappa_1 far above the bound, so they march as they stand, W = I, and
    # their blocks are full.
    mat = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=3.0, kappa2=0.0)
    sys = assemble(Mesh.uniform(2, 0.005), mat, ModelKind.GK, 8, PULSE_BCS)
    scheme = ThetaScheme(theta=0.5, dt=1e-6, n_steps=500)
    fact = build_factorization(sys, scheme)
    element, _, _, _, ni = interior_entries(fact, 2)
    assert element.size == 2 * ni * ni
    (run,) = fact.to_eigenbasis
    assert all(np.array_equal(b, np.eye(ni)) for b in run.inverse)
    # Ten times the largest gap to the dense march measured with the
    # fallback (3.3e-11, on q_mid).
    a0 = np.zeros(sys.dim)
    got = integrate(sys, scheme, a0, probes=ALL_PROBES).probe_values
    want = dense_theta_march(sys, scheme, a0, ALL_PROBES)
    gap = np.max(np.abs(got - want), axis=1) / np.ptp(want, axis=1)
    assert np.all(gap <= 3.3e-10)


@pytest.mark.parametrize("load", ["average", "sampled"])
@pytest.mark.parametrize("data", ["flux", "dirichlet"])
def test_non_finite_boundary_data_name_their_step(data, load, held_at_step_ends, nan_from):
    # Step k runs from t_(k-1) to t_k, the first grid time where the data are
    # NaN; data held at their step-end samples first hold the NaN over step k.
    k, dt = 7, 1e-3
    if data == "flux":
        bad = nan_from(flash_pulse(PulseParams()), (k - 0.5) * dt)
        bcs = BoundarySpec(left=PrescribedFlux(bad), right=PrescribedFlux(ZERO))
    else:
        bad = nan_from(RISING, (k - 0.5) * dt)
        bcs = BoundarySpec(left=DirichletTemperature(bad), right=PrescribedFlux(ZERO))
    if load == "sampled":
        bcs = held_spec(bcs, dt, held_at_step_ends)
    sys = assemble(Mesh.uniform(4, 0.005), GK_MAT, ModelKind.GK, 2, bcs)
    a0 = apply_initial_conditions(sys, 293.0, 0.0)
    with pytest.raises(NonFiniteStateError) as info:
        integrate(sys, ThetaScheme(0.5, dt, 20), a0, probes=ALL_PROBES)
    assert info.value.step == k
    assert f"step {k}" in str(info.value)
    # The data of the first k - 1 steps are finite, so that many steps march.
    ok = integrate(sys, ThetaScheme(0.5, dt, k - 1), a0)
    assert np.all(np.isfinite(ok.final_state))


def test_non_finite_state_names_its_first_column():
    sys = assemble(Mesh.uniform(4, 0.005), MCV_MAT, ModelKind.MCV, 2, QUIET_BCS)
    probes = ((0.0025, Field.TEMPERATURE),)
    with pytest.raises(NonFiniteStateError) as info:
        integrate(sys, ThetaScheme(0.5, 1e-3, 5), np.full(sys.dim, np.nan), probes=probes)
    assert info.value.step == 0
    # Finite at the start, overflowing in the first explicit product.
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as info:
        integrate(sys, ThetaScheme(0.5, 1e-3, 5), np.full(sys.dim, 1e308), probes=probes)
    assert info.value.step == 1
    # Without probes the final state is the one checked.
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as info:
        integrate(sys, ThetaScheme(0.5, 1e-3, 5), np.full(sys.dim, 1e308))
    assert info.value.step == 5


# ------------------------------------------------------------- stacks

STACK_SCHEME = ThetaScheme(theta=0.5, dt=1e-3, n_steps=30)


def stack_members():
    """Prepared systems of every vertex bandwidth: 1 for the local models,
    3 for GK (2 on two elements with flux data), with flux and temperature
    data."""
    return [
        prepare(
            assemble(Mesh.uniform(n, 0.005), mat, model, p, BOUNDARY_DATA[data]),
            STACK_SCHEME,
            ALL_PROBES,
        )
        for (mat, model), n, p, data in (
            (STUDY_MATERIALS["mcv"], 4, 2, "flux"),
            (STUDY_MATERIALS["gk_wave"], 3, 3, "dirichlet"),
            (STUDY_MATERIALS["fourier"], 5, 2, "dirichlet"),
            (STUDY_MATERIALS["gk_diffuse"], 2, 4, "flux"),
        )
    ]


def test_stack_of_both_vertex_bandwidths_is_bitwise_each_member_alone(monkeypatch):
    assert_stack_is_bitwise_each_member_alone(monkeypatch)


def test_stack_is_bitwise_each_member_alone_across_blocks(monkeypatch):
    # 30 steps in blocks of 7, for the stack and for every member alone.
    monkeypatch.setattr(hpheat.timeint, "_BLOCK_STEPS", 7)
    assert_stack_is_bitwise_each_member_alone(monkeypatch)


def assert_stack_is_bitwise_each_member_alone(monkeypatch):
    members = stack_members()
    bandwidths = [build_factorization(m.system, STACK_SCHEME).kl for m in members]
    assert {1, 3} <= set(bandwidths)
    # One march: a non-finite stack would be marched again member by member.
    marches = Counter()
    real_march = hpheat.timeint.march

    def march(*args):
        marches["calls"] += 1
        return real_march(*args)

    monkeypatch.setattr(hpheat.timeint, "march", march)
    results = integrate_stack(members, STACK_SCHEME)
    assert marches["calls"] == 1
    for m, got in zip(members, results):
        want = integrate(m.system, STACK_SCHEME, np.zeros(m.system.dim), ALL_PROBES)
        assert np.array_equal(got.probe_values, want.probe_values)
        assert np.array_equal(got.final_state, want.final_state)


def test_singular_interior_block_fails_only_its_member(zero_row):
    # One interior flux DOF of an element loses its couplings to the other
    # interior DOFs, so the element's interior block is singular while the
    # row keeps its vertex couplings and its scale.
    members = stack_members()
    sys = members[2].system
    interior = sys.dofmap.full_to_free[sys.dofmap.element_dofs[Field.HEAT_FLUX][1]]
    bubble = sys.dofmap.full_to_free[sys.dofmap.element_dofs[Field.TEMPERATURE][1, 2:]]
    inner = np.concatenate((interior, bubble))

    broken = zero_row(sys, interior[1], inner)
    assert not broken.B[interior[1], inner].count_nonzero()
    assert broken.B[interior[1]].count_nonzero() > 0
    members[2] = replace(members[2], system=broken)
    with pytest.raises(FactorizationError) as info:
        build_factorization(broken, STACK_SCHEME)
    assert info.value.pivot - 1 in inner

    results = integrate_stack(members, STACK_SCHEME)
    assert isinstance(results[2], FactorizationError)
    assert str(results[2]) == str(info.value)
    for k in (0, 1, 3):
        m = members[k]
        want = integrate(m.system, STACK_SCHEME, np.zeros(m.system.dim), ALL_PROBES)
        assert np.array_equal(results[k].probe_values, want.probe_values)
        assert np.array_equal(results[k].final_state, want.final_state)


def test_a_stack_of_singular_members_marches_nothing(zero_row, monkeypatch):
    members = [replace(m, system=zero_row(m.system, 0)) for m in stack_members()]
    marches = Counter()
    monkeypatch.setattr(hpheat.timeint, "march", lambda *args: marches.update(["calls"]))
    results = integrate_stack(members, STACK_SCHEME)
    assert not marches
    assert all(isinstance(r, FactorizationError) and r.pivot == 1 for r in results)
