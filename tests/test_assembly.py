"""Unit tests for meshes, DOF numbering, global assembly, and evaluation rows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpheat.assembly import (
    BoundarySpec,
    Continuity,
    DirichletTemperature,
    Field,
    Mesh,
    PrescribedFlux,
    approximation_spaces,
    apply_initial_conditions,
    assemble,
    build_dofmap,
    field_integral_weights,
    probe_row,
)
import hpheat.assembly
import hpheat.cli
import hpheat.elemmat
from hpheat.basis import MAX_DEGREE, ShapeSet, gauss_rule
from hpheat.elemmat import element_matrices
from hpheat.materials import MaterialParams, ModelKind
from hpheat.scenario import benchmark_scenario, solve_transient
from hpheat.study import SweepSpec, compute_reference, run_sweep
from hpheat.timefun import ZERO, constant

MCV_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3)
GK_MAT = MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0, tau=0.3, kappa2=8e-6)

FLUX_BCS = BoundarySpec(
    left=PrescribedFlux(constant(10000.0)),
    right=PrescribedFlux(ZERO),
)


def uniform_system(mat, model, n, p, bcs=FLUX_BCS, length=0.005):
    return assemble(Mesh.uniform(n, length), mat, model, p, bcs)


# ---------------------------------------------------------------- spaces


def test_spaces_per_model():
    for model in (ModelKind.FOURIER, ModelKind.MCV):
        t_space, q_space = approximation_spaces(model, 3)
        assert t_space.continuity is Continuity.C0 and t_space.degree == 4
        assert q_space.continuity is Continuity.DISCONTINUOUS and q_space.degree == 3
    t_space, q_space = approximation_spaces(ModelKind.GK, 3)
    assert t_space.degree == 4 and q_space.degree == 4
    assert q_space.continuity is Continuity.C0


def test_spaces_accept_model_strings():
    assert approximation_spaces("gk", 2) == approximation_spaces(ModelKind.GK, 2)
    assert approximation_spaces("mcv", 2) == approximation_spaces(ModelKind.MCV, 2)


def test_spaces_degree_limits():
    with pytest.raises(ValueError):
        approximation_spaces(ModelKind.MCV, 0)
    with pytest.raises(ValueError):
        approximation_spaces(ModelKind.MCV, MAX_DEGREE)  # temperature would exceed the cap
    approximation_spaces(ModelKind.MCV, MAX_DEGREE - 1)


# ---------------------------------------------------------------- meshes


def test_uniform_mesh():
    mesh = Mesh.uniform(4, 0.005)
    assert mesh.n_elements == 4
    assert np.allclose(mesh.nodes, np.linspace(0.0, 0.005, 5))


def test_uniform_mesh_rejects_no_elements():
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one element"):
            Mesh.uniform(n, 0.005)


def test_dofmap_rejects_an_unsupported_boundary_condition():
    # A bare signal, not a DirichletTemperature or PrescribedFlux.
    bcs = BoundarySpec(left=PrescribedFlux(ZERO), right=ZERO)
    with pytest.raises(TypeError, match="unsupported boundary condition"):
        build_dofmap(Mesh.uniform(3, 0.005), ModelKind.MCV, 2, bcs)


def test_mesh_rejects_non_increasing_nodes():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_nodes(bad):
    with pytest.raises(ValueError, match="mesh node 1 must be finite"):
        Mesh(np.array([0.0, bad, 2.0]))
    with pytest.raises(ValueError, match="domain length must be finite"):
        Mesh.uniform(4, bad)


# ---------------------------------------------------------------- numbering


def test_free_dof_counts_local_models():
    # Discontinuous flux, both ends natural: nothing is constrained, so the
    # free count is n(p+1) + n+1 temperature DOFs plus n(p+1) flux DOFs.
    n = 20
    for p in range(2, 9):
        dofmap = build_dofmap(Mesh.uniform(n, 0.005), ModelKind.MCV, p, FLUX_BCS)
        assert dofmap.total_dofs == 2 * n * (p + 1) + 1
        assert dofmap.full_dim == dofmap.total_dofs
        assert not dofmap.constrained
        assert len(dofmap.natural_terms) == 2


def test_free_dof_counts_nonlocal_model():
    # Continuous flux: both boundary flux values are essential constraints.
    for n, p in ((52, 2), (52, 8), (8, 3)):
        dofmap = build_dofmap(Mesh.uniform(n, 0.005), ModelKind.GK, p, FLUX_BCS)
        assert dofmap.full_dim == 2 * (n * (p + 1) + 1)
        assert dofmap.total_dofs == dofmap.full_dim - 2
        assert len(dofmap.constrained) == 2
        assert all(c.field is Field.HEAT_FLUX for c in dofmap.constrained)


def test_smallest_nonlocal_problem():
    dofmap = build_dofmap(Mesh.uniform(1, 1.0), ModelKind.GK, 1, FLUX_BCS)
    assert dofmap.total_dofs == 4


def test_dirichlet_constrains_temperature_vertex():
    bcs = BoundarySpec(
        left=DirichletTemperature(constant(300.0)),
        right=PrescribedFlux(ZERO),
    )
    dofmap = build_dofmap(Mesh.uniform(5, 1.0), ModelKind.MCV, 2, bcs)
    assert len(dofmap.constrained) == 1
    assert dofmap.constrained[0].field is Field.TEMPERATURE
    assert dofmap.constrained[0].dof == dofmap.vertex_dofs[Field.TEMPERATURE][0]


def test_model_strings_accepted_in_dofmap():
    a = build_dofmap(Mesh.uniform(6, 0.005), "gk", 3, FLUX_BCS)
    b = build_dofmap(Mesh.uniform(6, 0.005), ModelKind.GK, 3, FLUX_BCS)
    assert a.total_dofs == b.total_dofs
    assert a.spaces == b.spaces


# ---------------------------------------------------------------- assembly


@pytest.mark.parametrize(
    "mat,model",
    [
        (MCV_MAT, ModelKind.MCV),
        (GK_MAT, ModelKind.GK),
        (MaterialParams(2600, 800, 3.0), ModelKind.FOURIER),
    ],
)
def test_global_block_structure(mat, model):
    sys = uniform_system(mat, model, 7, 3)
    A = sys.A_full.toarray()
    B = sys.B_full.toarray()

    asym = np.max(np.abs(A - A.T))
    assert asym <= 1e-12 * np.max(np.abs(A))

    t_dofs = sys.dofmap.field_dofs(Field.TEMPERATURE)
    q_dofs = sys.dofmap.field_dofs(Field.HEAT_FLUX)

    # No flux evolution coefficient touches A's T block and vice versa.
    assert np.max(np.abs(A[np.ix_(t_dofs, q_dofs)])) == 0.0
    assert np.max(np.abs(B[np.ix_(t_dofs, t_dofs)])) == 0.0

    # The skew pair: B_tq = -(B_qt / lam)^T.
    b_tq = B[np.ix_(t_dofs, q_dofs)]
    b_qt = B[np.ix_(q_dofs, t_dofs)]
    resid = b_tq + b_qt.T / mat.conductivity
    assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(b_tq))


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    model_name=st.sampled_from(["mcv", "gk"]),
    n=st.integers(min_value=2, max_value=7),
    p=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_scatter_gather_on_random_meshes(seed, model_name, n, p):
    # Reassemble densely from the element blocks through the recorded DOF
    # lists; the sparse assembly must agree entry for entry.
    rng = np.random.default_rng(seed)
    nodes = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.8, size=n))))
    mesh = Mesh(nodes)
    model = ModelKind(model_name)
    mat = GK_MAT if model is ModelKind.GK else MCV_MAT
    sys = assemble(mesh, mat, model, p, FLUX_BCS)
    dofmap = sys.dofmap

    degT, degQ = dofmap.spaces[0].degree, dofmap.spaces[1].degree
    A = np.zeros((dofmap.full_dim, dofmap.full_dim))
    B = np.zeros_like(A)
    blocks = element_matrices(mesh.jacobians, mat, model, degT, degQ)
    for e in range(mesh.n_elements):
        td = dofmap.element_dofs[Field.TEMPERATURE][e]
        qd = dofmap.element_dofs[Field.HEAT_FLUX][e]
        A[np.ix_(td, td)] += blocks.C[e]
        A[np.ix_(qd, qd)] += blocks.T[e]
        B[np.ix_(qd, qd)] += blocks.K[e]
        B[np.ix_(qd, td)] += blocks.Q
        B[np.ix_(td, qd)] -= blocks.Qt

    scale_a = max(np.max(np.abs(A)), 1.0)
    scale_b = max(np.max(np.abs(B)), 1.0)
    assert np.max(np.abs(sys.A_full.toarray() - A)) <= 1e-12 * scale_a
    assert np.max(np.abs(sys.B_full.toarray() - B)) <= 1e-12 * scale_b


def _dense_reference(mesh, mat, model, dofmap):
    """A_full and B_full accumulated element by element from the block formulas."""
    degT, degQ = dofmap.spaces[0].degree, dofmap.spaces[1].degree
    rule_t, rule_q = gauss_rule(degT + 1), gauss_rule(degQ + 1)
    rule = gauss_rule(max(degT, degQ) + 1)
    vt = ShapeSet(degT).values(rule_t.points)
    vq = ShapeSet(degQ).values(rule_q.points)
    dq = ShapeSet(degQ).derivatives(rule_q.points)
    vq_g = ShapeSet(degQ).values(rule.points)
    dt_g = ShapeSet(degT).derivatives(rule.points)
    wt, wq, w = rule_t.weights, rule_q.weights, rule.weights
    A = np.zeros((dofmap.full_dim, dofmap.full_dim))
    B = np.zeros_like(A)
    for e in range(mesh.n_elements):
        J = mesh.jacobians[e]
        td = dofmap.element_dofs[Field.TEMPERATURE][e]
        qd = dofmap.element_dofs[Field.HEAT_FLUX][e]
        K = J * ((vq * wq) @ vq.T)
        if model is ModelKind.GK:
            K = K + (mat.kappa2 / J) * ((dq * wq) @ dq.T)
        A[np.ix_(td, td)] += mat.rho * mat.c_v * J * ((vt * wt) @ vt.T)
        A[np.ix_(qd, qd)] += mat.tau * J * ((vq * wq) @ vq.T)
        B[np.ix_(qd, qd)] += K
        B[np.ix_(qd, td)] += mat.conductivity * ((vq_g * w) @ dt_g.T)
        B[np.ix_(td, qd)] -= (dt_g * w) @ vq_g.T
    return A, B


@pytest.mark.parametrize("model", list(ModelKind))
def test_assembly_equals_dense_per_element_accumulation_exactly(model):
    # Two addends meet at most at a shared vertex, and their sum does not
    # depend on order, so the element blocks must reproduce the
    # element-by-element accumulation to the last bit, not just to roundoff.
    # On one element both end vertices, and so both constrained DOFs, sit in
    # the same element's blocks.
    mat = {
        ModelKind.FOURIER: MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0),
        ModelKind.MCV: MCV_MAT,
        ModelKind.GK: GK_MAT,
    }[model]
    rng = np.random.default_rng(11)
    graded = Mesh(0.001 * np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.8, size=5)))))
    held = DirichletTemperature(constant(300.0))
    boundary_data = (
        FLUX_BCS,
        BoundarySpec(left=held, right=PrescribedFlux(ZERO)),
        BoundarySpec(left=PrescribedFlux(constant(10000.0)), right=held),
        BoundarySpec(left=held, right=held),
    )
    for p in range(1, MAX_DEGREE):
        for mesh in (Mesh.uniform(4, 0.005), graded, Mesh.uniform(1, 0.005)):
            for bcs in boundary_data:
                sys = assemble(mesh, mat, model, p, bcs)
                A, B = _dense_reference(mesh, mat, model, sys.dofmap)
                free = sys.dofmap.free_to_full
                cons = [c.dof for c in sys.dofmap.constrained]
                assert np.array_equal(sys.A.toarray(), A[np.ix_(free, free)])
                assert np.array_equal(sys.B.toarray(), B[np.ix_(free, free)])
                # The couplings to the constrained DOFs, kept on load_rows:
                # the natural rows and the rows with a nonzero coupling.
                a_fc, b_fc = A[np.ix_(free, cons)], B[np.ix_(free, cons)]
                loaded = a_fc.any(axis=1) | b_fc.any(axis=1)
                loaded[[idx for idx, _, _ in sys.natural_free()]] = True
                assert np.array_equal(sys.load_rows, np.flatnonzero(loaded))
                assert np.array_equal(sys.A_lc, a_fc[sys.load_rows])
                assert np.array_equal(sys.B_lc, b_fc[sys.load_rows])
                assert not np.delete(a_fc, sys.load_rows, axis=0).any()
                assert not np.delete(b_fc, sys.load_rows, axis=0).any()


def test_setup_table_work_does_not_grow_with_element_count(monkeypatch):
    # Reference tables are built once per field and degree pair, however
    # many elements the mesh has.
    calls = {"rules": 0, "tables": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (hpheat.elemmat, hpheat.assembly):
        monkeypatch.setattr(module, "gauss_rule", counted("rules", module.gauss_rule))
    for name in ("values", "derivatives"):
        monkeypatch.setattr(ShapeSet, name, counted("tables", getattr(ShapeSet, name)))

    def setup_calls(model, mat, n):
        # Every call starts without the reference integrals and the
        # projection tables, which are cached per degree.
        hpheat.elemmat._reference.cache_clear()
        hpheat.assembly._bubble_projection.cache_clear()
        calls.update(rules=0, tables=0)
        sys = assemble(Mesh.uniform(n, 0.005), mat, model, 3, FLUX_BCS)
        apply_initial_conditions(sys, lambda x: 293.0 + x, 0.0)
        return dict(calls)

    for model, mat in ((ModelKind.MCV, MCV_MAT), (ModelKind.GK, GK_MAT)):
        few = setup_calls(model, mat, 5)
        assert few["rules"] > 0 and few["tables"] > 0
        assert setup_calls(model, mat, 100) == few


def test_reference_integrals_are_computed_once_per_degree_pair(monkeypatch):
    calls = []
    for name in ("values", "derivatives"):
        real = getattr(ShapeSet, name)

        def counted(self, eta, _real=real):
            calls.append(self.degree)
            return _real(self, eta)

        monkeypatch.setattr(ShapeSet, name, counted)
    hpheat.elemmat._reference.cache_clear()
    assemble(Mesh.uniform(5, 0.005), GK_MAT, ModelKind.GK, 3, FLUX_BCS)
    assert calls
    calls.clear()
    assemble(Mesh.uniform(7, 0.005), GK_MAT, ModelKind.GK, 3, FLUX_BCS)
    assert not calls
    # Qt is shared by every element of every call, so it is read-only.
    assert not element_matrices(np.ones(2), GK_MAT, ModelKind.GK, 3, 3).Qt.flags.writeable


def test_half_bandwidth_matches_pattern():
    for mat, model in ((MCV_MAT, ModelKind.MCV), (GK_MAT, ModelKind.GK)):
        sys = uniform_system(mat, model, 5, 4)
        rows, cols = np.nonzero((sys.A.toarray() != 0.0) | (sys.B.toarray() != 0.0))
        assert sys.half_bandwidth == int(np.max(np.abs(rows - cols)))


def test_no_solve_builds_a_global_matrix(monkeypatch, tmp_path):
    # Solves read the element blocks; only structure checks and size counts
    # build the global matrices.
    def refuse(sys):
        raise AssertionError("a global matrix was built")

    monkeypatch.setattr(hpheat.assembly, "global_matrices", refuse)
    gk = benchmark_scenario(ModelKind.GK, tau=0.3, kappa2=8e-6, n_steps=20)
    held = replace(gk, bcs=replace(gk.bcs, left=DirichletTemperature(constant(293.5))))
    for scenario in (gk, held):
        run = solve_transient(scenario, 4, 2)
        assert np.all(np.isfinite(run.solution.final_state))

    def make(tau):
        return benchmark_scenario(ModelKind.MCV, tau=tau, n_steps=20)

    spec = SweepSpec(
        family="mcv", kind="h", values=(3, 5), fixed=2, taus=(0.3,), scenario_factory=make
    )
    report = run_sweep(spec, {0.3: compute_reference(make(0.3), 6, 2)})
    assert not report.failures and np.all(np.isfinite(report.errors[(0.3, "T_rear")]))

    config = tmp_path / "transient.conf"
    config.write_text(
        "mode = transient\nmodel = gk\nconductivity_w_per_m_k = 3.0\n"
        "density_kg_per_m3 = 2600\nspecific_heat_j_per_kg_k = 800\n"
        "relaxation_time_s = 0.3\nkappa2_m2 = 8e-6\n"
        "n_steps = 5\nelements = 4\ndegree = 2\n"
    )
    assert hpheat.cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0

    with pytest.raises(AssertionError, match="global matrix"):
        run.system.A


def test_assemble_rejects_mismatched_material():
    with pytest.raises(ValueError):
        uniform_system(GK_MAT, ModelKind.MCV, 4, 2)


# ---------------------------------------------------------------- loads


def test_natural_load_sign_convention():
    # Influx on the left heats; the left T vertex row gets +q_data, the
    # right one -q_data.
    sys = uniform_system(MCV_MAT, ModelKind.MCV, 4, 2, bcs=BoundarySpec(
        left=PrescribedFlux(constant(7.0)),
        right=PrescribedFlux(constant(2.0)),
    ))
    f = sys.load_average(0.0, 1e-3)
    dofmap = sys.dofmap
    left = dofmap.full_to_free[dofmap.vertex_dofs[Field.TEMPERATURE][0]]
    right = dofmap.full_to_free[dofmap.vertex_dofs[Field.TEMPERATURE][-1]]
    assert f[left] == pytest.approx(7.0)
    assert f[right] == pytest.approx(-2.0)
    mask = np.ones(sys.dim, dtype=bool)
    mask[[left, right]] = False
    assert np.max(np.abs(f[mask])) == 0.0


# ---------------------------------------------------------------- fields


def test_initial_conditions_reproduce_constants_exactly():
    sys = uniform_system(GK_MAT, ModelKind.GK, 6, 3)
    alpha = apply_initial_conditions(sys, 293.0, 0.0)
    full = sys.full_state(alpha, 0.0)
    t_dofs = sys.dofmap.field_dofs(Field.TEMPERATURE)
    vertex_t = sys.dofmap.vertex_dofs[Field.TEMPERATURE]
    assert np.allclose(full[vertex_t], 293.0, rtol=0.0, atol=1e-12)
    bubbles = np.setdiff1d(t_dofs, vertex_t)
    assert np.max(np.abs(full[bubbles])) <= 1e-12 * 293.0
    assert not np.any(full[bubbles])


def test_initial_conditions_exact_for_in_span_polynomials():
    sys = uniform_system(MCV_MAT, ModelKind.MCV, 5, 3)
    poly = lambda x: 2.0 + 3.0 * x - 40.0 * x**2
    alpha = apply_initial_conditions(sys, poly, 0.0)
    row = probe_row(sys.dofmap, 0.00217, Field.TEMPERATURE)
    assert row.evaluate(sys, alpha, 0.0) == pytest.approx(poly(0.00217), rel=1e-11)


def test_probe_row_averages_interior_jump():
    # Set the flux piecewise constant with a jump at an interior node; the
    # probe there must report the mean of the one-sided limits.
    sys = uniform_system(MCV_MAT, ModelKind.MCV, 4, 2)
    dofmap = sys.dofmap
    node = dofmap.mesh.nodes[2]
    full = np.zeros(dofmap.full_dim)
    a, b = 3.0, 11.0
    left_dofs = dofmap.element_dofs[Field.HEAT_FLUX][1]
    right_dofs = dofmap.element_dofs[Field.HEAT_FLUX][2]
    full[left_dofs[0]] = full[left_dofs[1]] = a
    full[right_dofs[0]] = full[right_dofs[1]] = b
    alpha = full[dofmap.free_to_full]
    row = probe_row(dofmap, node, Field.HEAT_FLUX)
    assert row.evaluate(sys, alpha, 0.0) == pytest.approx(0.5 * (a + b), rel=1e-13)


def test_probe_row_end_points_use_one_sided_elements():
    sys = uniform_system(MCV_MAT, ModelKind.MCV, 3, 2)
    dofmap = sys.dofmap
    alpha = apply_initial_conditions(sys, lambda x: 5.0 + x, 0.0)
    left = probe_row(dofmap, 0.0, Field.TEMPERATURE)
    right = probe_row(dofmap, 0.005, Field.TEMPERATURE)
    assert left.evaluate(sys, alpha, 0.0) == pytest.approx(5.0, rel=1e-12)
    assert right.evaluate(sys, alpha, 0.0) == pytest.approx(5.005, rel=1e-12)


@pytest.mark.parametrize(
    "model, mat",
    [
        (ModelKind.FOURIER, MaterialParams(rho=2600.0, c_v=800.0, conductivity=3.0)),
        (ModelKind.MCV, MCV_MAT),
        (ModelKind.GK, GK_MAT),
    ],
)
def test_probe_row_reproduces_in_span_fields_on_graded_mesh(model, mat):
    # Cubics lie in both field spaces at p = 3.  The prescribed end values
    # match the fields, so the constrained weights are exercised too.
    length, n = 0.005, 7
    mesh = Mesh(length * (np.arange(n + 1) / n) ** 1.7)
    temperature = lambda x: 2.0 + 3.0 * (x / length) - 4.0 * (x / length) ** 3
    flux = lambda x: -1.0 + 5.0 * (x / length) ** 2 + 2.0 * (x / length) ** 3
    bcs = BoundarySpec(
        left=DirichletTemperature(constant(temperature(0.0))),
        right=PrescribedFlux(constant(flux(length))),
    )
    sys = assemble(mesh, mat, model, 3, bcs)
    alpha = apply_initial_conditions(sys, temperature, flux)
    points = np.concatenate((mesh.nodes, np.random.default_rng(11).uniform(0.0, length, 6)))
    for fld, fun in ((Field.TEMPERATURE, temperature), (Field.HEAT_FLUX, flux)):
        for x in points:
            row = probe_row(sys.dofmap, x, fld)
            assert row.evaluate(sys, alpha, 0.0) == pytest.approx(fun(x), rel=1e-12)


def test_probe_row_rejects_outside_points():
    dofmap = build_dofmap(Mesh.uniform(3, 0.005), ModelKind.MCV, 2, FLUX_BCS)
    for x in (-0.001, 0.006, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="outside the domain"):
            probe_row(dofmap, x, Field.TEMPERATURE)


def test_field_integral_weights_quadratic():
    length = 0.005
    sys = uniform_system(GK_MAT, ModelKind.GK, 7, 2, length=length)
    alpha = apply_initial_conditions(sys, lambda x: x * x, 0.0)
    w = field_integral_weights(sys.dofmap, Field.TEMPERATURE)
    got = float(w @ sys.full_state(alpha, 0.0))
    assert got == pytest.approx(length**3 / 3.0, rel=1e-12)
