"""Global DOF numbering, the semi-discrete system as element blocks, boundary data.

The coefficient vector is ordered element-interleaved: the DOFs shared at a
mesh vertex come first, then the interior DOFs of the element to its right,
then the next vertex, and so on.  All DOFs of one element therefore live
within a fixed index distance of each other, and each element's DOFs form
one contiguous run.

The system is kept as one block per element (DofMap.block_dofs), which the
static condensation (module condense) reads directly; only structure checks
and size counts scatter the blocks into global matrices (global_matrices).

Boundary conditions split by field regularity.  Prescribed temperatures are
always essential.  Prescribed fluxes are natural data in the energy-balance
row (they load the boundary T vertex) and, when the flux field is continuous
(the nonlocal model), additionally essential on the boundary q vertex.
Essential constraints are eliminated: constrained columns of A and B move to
the load, applied to the step means of the prescribed values and to their
rate, the change between consecutive step means.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .basis import MAX_DEGREE, QuadratureRule, ShapeSet, gauss_rule
from .elemmat import element_matrices
from .materials import MaterialParams, ModelKind
from .timefun import TimeFunction


class Field(enum.Enum):
    TEMPERATURE = "temperature"
    HEAT_FLUX = "heat_flux"


class Continuity(enum.Enum):
    C0 = "c0"
    DISCONTINUOUS = "discontinuous"


@dataclass(frozen=True)
class SpaceSpec:
    field: Field
    continuity: Continuity
    degree: int


def approximation_spaces(model: ModelKind, p: int) -> tuple[SpaceSpec, SpaceSpec]:
    """Per-model spaces for (temperature, heat flux) at degree parameter p.

    Temperature is continuous of degree p+1 in every model.  The flux is
    discontinuous of degree p for the local models and continuous of degree
    p+1 for the nonlocal one, whose weak form differentiates q.
    """
    model = ModelKind(model)
    if p < 1:
        raise ValueError(f"degree parameter must be >= 1, got {p}")
    if p + 1 > MAX_DEGREE:
        raise ValueError(
            f"degree parameter {p} needs temperature degree {p + 1}, "
            f"above the basis cap {MAX_DEGREE}"
        )
    t_space = SpaceSpec(Field.TEMPERATURE, Continuity.C0, p + 1)
    if model is ModelKind.GK:
        q_space = SpaceSpec(Field.HEAT_FLUX, Continuity.C0, p + 1)
    else:
        q_space = SpaceSpec(Field.HEAT_FLUX, Continuity.DISCONTINUOUS, p)
    return t_space, q_space


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing node coordinates; n_elements = len(nodes) - 1."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        bad = ~np.isfinite(nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"mesh node {i} must be finite, got {nodes[i]}")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("mesh nodes must be strictly increasing")

    @classmethod
    def uniform(cls, n_elements: int, length: float) -> "Mesh":
        if n_elements < 1:
            raise ValueError(f"need at least one element, got {n_elements}")
        if not 0.0 < length < np.inf:
            raise ValueError(f"domain length must be finite and positive, got {length}")
        return cls(np.linspace(0.0, length, n_elements + 1))

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def length(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    @property
    def jacobians(self) -> np.ndarray:
        """dx/deta of every element's affine map from the master element (-1, 1)."""
        return 0.5 * (self.nodes[1:] - self.nodes[:-1])


@dataclass(frozen=True)
class DirichletTemperature:
    """Prescribed boundary temperature, essential on the T vertex.

    The value is an absolute temperature.  A solver marching the rise over a
    uniform initial temperature T0 lowers it by T0 on its copy of the system
    (SemiDiscreteSystem.lowered_temperatures); the system handed back to the
    caller keeps the absolute data, so full_state fills absolute values.

    Absolute data of the form 293 K + s(t) round before the solver sees
    them: the value at ulp(293 K) and the running integral at ulp(293 K * t).
    On gk_diffuse 8x8, 10^3 steps and a 10 mK signal this costs 1.7e-9
    relative in T_rear and 5.5e-8 in q_mid.  Where that matters, pass the
    data relative to a zero T0.
    """

    value: TimeFunction


@dataclass(frozen=True)
class PrescribedFlux:
    """Prescribed boundary heat flux (positive in +x).

    Natural data on the T vertex in every model, and essential on the q
    vertex exactly when the flux space is continuous (the nonlocal model).
    """

    value: TimeFunction


BoundaryCondition = DirichletTemperature | PrescribedFlux


@dataclass(frozen=True)
class BoundarySpec:
    left: BoundaryCondition
    right: BoundaryCondition


@dataclass(frozen=True)
class ConstrainedDof:
    dof: int
    field: Field
    value: TimeFunction


@dataclass(frozen=True)
class NaturalFluxTerm:
    """Boundary term of the energy-balance row: sign * q_data(t) at a T vertex."""

    dof: int
    sign: float
    value: TimeFunction


@dataclass
class DofMap:
    """Both fields' DOFs, element by element and at the vertices.

    block_dofs holds every element's full DOFs in the local slots of its
    blocks: the DOFs at its left vertex (T before q), those at its right
    vertex, then its interior DOFs in ascending order.  block_slots holds,
    per field, the slot of each of its shape functions, so that
    element_dofs[field] is block_dofs[:, block_slots[field]].
    """

    mesh: Mesh
    model: ModelKind
    spaces: tuple[SpaceSpec, SpaceSpec]
    block_dofs: np.ndarray
    block_slots: dict[Field, np.ndarray]
    element_dofs: dict[Field, np.ndarray]
    vertex_dofs: dict[Field, np.ndarray | None]
    full_dim: int
    constrained: tuple[ConstrainedDof, ...]
    natural_terms: tuple[NaturalFluxTerm, ...]
    full_to_free: np.ndarray = dataclass_field(init=False)
    free_to_full: np.ndarray = dataclass_field(init=False)

    def __post_init__(self) -> None:
        is_free = np.ones(self.full_dim, dtype=bool)
        is_free[[c.dof for c in self.constrained]] = False
        free = np.flatnonzero(is_free)
        full_to_free = np.full(self.full_dim, -1, dtype=int)
        full_to_free[free] = np.arange(free.size)
        self.full_to_free = full_to_free
        self.free_to_full = free

    @property
    def total_dofs(self) -> int:
        """Unknown coefficients after constraint elimination."""
        return self.free_to_full.size

    @property
    def per_vertex(self) -> int:
        """DOFs at every vertex: T, and q when the flux is continuous."""
        return 1 if self.vertex_dofs[Field.HEAT_FLUX] is None else 2

    def space(self, field: Field) -> SpaceSpec:
        return self.spaces[0] if field is Field.TEMPERATURE else self.spaces[1]

    def field_dofs(self, field: Field) -> np.ndarray:
        """All full-numbering DOFs of one field, sorted."""
        return np.unique(self.element_dofs[field])


def build_dofmap(mesh: Mesh, model: ModelKind, p: int, bcs: BoundarySpec) -> DofMap:
    """Number both fields element-interleaved and record boundary bookkeeping."""
    t_space, q_space = approximation_spaces(model, p)
    degT, degQ = t_space.degree, q_space.degree
    q_c0 = q_space.continuity is Continuity.C0
    n = mesh.n_elements

    # Each vertex holds its T DOF (then its q DOF when q is continuous); the
    # T bubbles and the q interior DOFs of the element to its right follow.
    pv = 2 if q_c0 else 1
    q_interior = degQ - 1 if q_c0 else degQ + 1
    n_interior = degT - 1 + q_interior
    stride = pv + n_interior
    vertex_t = np.arange(n + 1) * stride
    vertex_q = vertex_t + 1 if q_c0 else None
    at_vertex = vertex_t[:, None] + np.arange(pv)
    block_dofs = np.hstack(
        (at_vertex[:-1], at_vertex[1:], at_vertex[:-1, :1] + pv + np.arange(n_interior))
    )
    bubbles = 2 * pv + np.arange(degT - 1)
    q_inner = 2 * pv + degT - 1 + np.arange(q_interior)
    slots = {
        Field.TEMPERATURE: np.concatenate(([0, pv], bubbles)),
        Field.HEAT_FLUX: np.concatenate(([1, pv + 1], q_inner)) if q_c0 else q_inner,
    }

    constrained: list[ConstrainedDof] = []
    natural: list[NaturalFluxTerm] = []
    for end, bc, t_vertex, q_vertex in (
        ("left", bcs.left, vertex_t[0], vertex_q[0] if q_c0 else None),
        ("right", bcs.right, vertex_t[n], vertex_q[n] if q_c0 else None),
    ):
        if isinstance(bc, DirichletTemperature):
            constrained.append(ConstrainedDof(int(t_vertex), Field.TEMPERATURE, bc.value))
        elif isinstance(bc, PrescribedFlux):
            sign = 1.0 if end == "left" else -1.0
            natural.append(NaturalFluxTerm(int(t_vertex), sign, bc.value))
            if q_c0:
                constrained.append(ConstrainedDof(int(q_vertex), Field.HEAT_FLUX, bc.value))
        else:
            raise TypeError(f"unsupported boundary condition {bc!r}")

    return DofMap(
        mesh=mesh,
        model=model,
        spaces=(t_space, q_space),
        block_dofs=block_dofs,
        block_slots=slots,
        element_dofs={fld: block_dofs[:, at] for fld, at in slots.items()},
        vertex_dofs={Field.TEMPERATURE: vertex_t, Field.HEAT_FLUX: vertex_q},
        full_dim=n * stride + pv,
        constrained=tuple(constrained),
        natural_terms=tuple(natural),
    )


@dataclass
class SemiDiscreteSystem:
    """A alpha' + B alpha = f(t) on the free DOFs, kept as element blocks.

    A_blocks and B_blocks hold every element's blocks of A and B, shape
    (n_elements, k, k), in the local slots of dofmap.block_dofs, the rows
    and columns of the constrained DOFs included.  Elements share only
    vertex DOFs, so the blocks sum to the global matrices: a vertex's own
    coupling, to which the elements on both sides contribute, is summed
    once into the element to its right (the last vertex's stays in the
    last element).

    load_rows are the free rows that boundary data load, ascending: the
    natural flux rows and the rows coupled to a constrained DOF.  A_lc and
    B_lc couple those rows to the constrained DOFs; their products with the
    prescribed values (and their rates) enter the load.

    A_full, B_full (the unconstrained assembly), A, B (its free blocks) and
    half_bandwidth are built from the blocks on every read, by
    global_matrices, for structure checks and size counts; no solve reads
    them.
    """

    dofmap: DofMap
    material: MaterialParams
    A_blocks: np.ndarray
    B_blocks: np.ndarray
    load_rows: np.ndarray
    A_lc: np.ndarray
    B_lc: np.ndarray

    @property
    def dim(self) -> int:
        return self.dofmap.total_dofs

    @property
    def mesh(self) -> Mesh:
        return self.dofmap.mesh

    @property
    def A_full(self) -> sp.csr_matrix:
        return global_matrices(self)[0]

    @property
    def B_full(self) -> sp.csr_matrix:
        return global_matrices(self)[1]

    @property
    def A(self) -> sp.csr_matrix:
        free = self.dofmap.free_to_full
        return self.A_full[free][:, free].tocsr()

    @property
    def B(self) -> sp.csr_matrix:
        free = self.dofmap.free_to_full
        return self.B_full[free][:, free].tocsr()

    @property
    def half_bandwidth(self) -> int:
        """Largest |i - j| of a nonzero entry of A or B."""
        pattern = (abs(self.A) + abs(self.B)).tocoo()
        return int(np.max(np.abs(pattern.row - pattern.col), initial=0))

    def natural_free(self) -> list[tuple[int, float, TimeFunction]]:
        """(free row, sign, flux data) of every natural flux term."""
        return [
            (int(self.dofmap.full_to_free[term.dof]), term.sign, term.value)
            for term in self.dofmap.natural_terms
        ]

    def load_average(
        self, t0: float, t1: float, prev_average: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact mean of f over [t0, t1] via the running integrals of the data.

        Using these averages in the time stepper makes the discrete energy
        balance telescope to machine precision regardless of how fast the
        boundary data varies within a step.

        Prescribed values are treated as a piecewise-constant trajectory at
        their per-step averages, so the rate term is driven by the change
        between consecutive averages; callers stepping through time pass the
        previous step's averages to keep that sequence consistent.  Without
        one, the value at t0 stands in, which is exact at the initial
        instant.  Mixing the pointwise increment with averaged loads instead
        injects a spurious boundary-layer kick whenever the data moves fast
        within a step.
        """
        f = np.zeros(self.dim)
        for idx, sign, fn in self.natural_free():
            f[idx] += sign * fn.average(t0, t1)
        if self.dofmap.constrained:
            g_avg = np.array([c.value.average(t0, t1) for c in self.dofmap.constrained])
            if prev_average is None:
                prev_average = np.array([c.value.value(t0) for c in self.dofmap.constrained])
            rate = (g_avg - prev_average) / (t1 - t0)
            f[self.load_rows] -= self.A_lc @ rate + self.B_lc @ g_avg
        return f

    def lowered_temperatures(self, offset: float) -> "SemiDiscreteSystem":
        """The same operators with every prescribed temperature lowered by offset.

        A uniform temperature with zero flux is an exact equilibrium of the
        semi-discrete system, so the rise T - offset obeys the same equations;
        only the temperature constraint data moves, to g - offset with the
        same rate and the running integral minus offset * t.
        """
        constrained = tuple(
            replace(c, value=c.value.shifted(-offset))
            if c.field is Field.TEMPERATURE
            else c
            for c in self.dofmap.constrained
        )
        return replace(self, dofmap=replace(self.dofmap, constrained=constrained))

    def full_state(self, alpha: np.ndarray, t: float) -> np.ndarray:
        """Scatter a free vector to full numbering, filling prescribed values."""
        full = np.empty(self.dofmap.full_dim)
        full[self.dofmap.free_to_full] = alpha
        for c in self.dofmap.constrained:
            full[c.dof] = c.value.value(t)
        return full


def assemble(
    mesh: Mesh,
    mat: MaterialParams,
    model: ModelKind,
    p: int,
    bcs: BoundarySpec,
) -> SemiDiscreteSystem:
    """The element blocks of A and B, and the couplings of the boundary data.

    Block layout in field terms, with G the unweighted coupling integral:

        A = [[C, 0], [0, T]],   B = [[0, -G^T], [lam G, K]]

    The minus sign on the T-row coupling comes from integrating the flux
    divergence by parts; together with the lam-weighted lower block it makes
    the homogeneous system dissipative in the norm lam t'C t + q'T q.
    """
    mat.require_kind(model)
    dofmap = build_dofmap(mesh, model, p, bcs)
    degT, degQ = dofmap.spaces[0].degree, dofmap.spaces[1].degree

    blocks = element_matrices(mesh.jacobians, mat, model, degT, degQ)
    t, q = dofmap.block_slots[Field.TEMPERATURE], dofmap.block_slots[Field.HEAT_FLUX]
    k = dofmap.block_dofs.shape[1]
    a = np.zeros((mesh.n_elements, k, k))
    b = np.zeros_like(a)
    # Assigned, not added to the zeros, so that every zero keeps its sign.
    a[:, t[:, None], t] = blocks.C
    a[:, q[:, None], q] = blocks.T
    b[:, q[:, None], q] = blocks.K
    b[:, q[:, None], t] = blocks.Q
    b[:, t[:, None], q] = -blocks.Qt
    # Each vertex's own coupling is kept once, in the element to its right.
    own, right = slice(0, dofmap.per_vertex), slice(dofmap.per_vertex, 2 * dofmap.per_vertex)
    for m in (a, b):
        m[1:, own, own] += m[:-1, right, right]
        m[:-1, right, right] = 0.0

    # A constrained DOF sits at an end vertex, so its column is a column of
    # an end element's blocks.  Constrained slots land on the extra last row.
    a_fc = np.zeros((dofmap.total_dofs + 1, len(dofmap.constrained)))
    b_fc = np.zeros_like(a_fc)
    for j, c in enumerate(dofmap.constrained):
        e = 0 if c.dof in dofmap.block_dofs[0] else -1
        slot = np.argmax(dofmap.block_dofs[e] == c.dof)
        rows = dofmap.full_to_free[dofmap.block_dofs[e]]
        a_fc[rows, j], b_fc[rows, j] = a[e, :, slot], b[e, :, slot]
    loaded = a_fc.any(axis=1) | b_fc.any(axis=1)
    loaded[dofmap.full_to_free[[term.dof for term in dofmap.natural_terms]]] = True
    load_rows = np.flatnonzero(loaded[:-1])

    return SemiDiscreteSystem(
        dofmap=dofmap,
        material=mat,
        A_blocks=a,
        B_blocks=b,
        load_rows=load_rows,
        A_lc=a_fc[load_rows],
        B_lc=b_fc[load_rows],
    )


def global_matrices(sys: SemiDiscreteSystem) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """A_full and B_full, every element's field blocks scattered at once.

    Where a vertex's own coupling moved into the element to its right, the
    element to its left adds a zero to it.
    """
    dofmap = sys.dofmap
    t, q = Field.TEMPERATURE, Field.HEAT_FLUX

    def coo(blocks, *pairs):
        """Sum of the (row field, column field) parts of the blocks."""
        rows, cols, vals = [], [], []
        for r, c in pairs:
            r_dofs, c_dofs = dofmap.element_dofs[r], dofmap.element_dofs[c]
            shape = (r_dofs.shape[0], r_dofs.shape[1], c_dofs.shape[1])
            rows.append(np.broadcast_to(r_dofs[:, :, None], shape).ravel())
            cols.append(np.broadcast_to(c_dofs[:, None, :], shape).ravel())
            vals.append(blocks[:, dofmap.block_slots[r][:, None], dofmap.block_slots[c]].ravel())
        data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
        return sp.coo_matrix(data, shape=(dofmap.full_dim,) * 2).tocsr()

    return coo(sys.A_blocks, (t, t), (q, q)), coo(sys.B_blocks, (q, q), (q, t), (t, q))


def _sample(f, x: np.ndarray) -> np.ndarray:
    """A scalar function, or a constant, at every point of x."""
    if not callable(f):
        return np.full(x.shape, float(f))
    return np.array([float(f(xi)) for xi in x.ravel()]).reshape(x.shape)


@lru_cache(maxsize=None)
def _bubble_projection(deg: int) -> tuple[QuadratureRule, np.ndarray, np.ndarray]:
    """The Gauss rule of the initial projection at degree deg, the shape
    functions at its points and the reference bubble mass, computed once
    per degree; the cached arrays are read-only."""
    rule = gauss_rule(deg + 2)
    values = ShapeSet(deg).values(rule.points)
    bub = values[2:]
    mass = (bub * rule.weights) @ bub.T
    values.setflags(write=False)
    mass.setflags(write=False)
    return rule, values, mass


def apply_initial_conditions(sys: SemiDiscreteSystem, T0, q0) -> np.ndarray:
    """Free coefficient vector matching the initial fields.

    Vertex coefficients take point values (one-sided for the discontinuous
    flux space).  Bubble coefficients come from the element-wise L2 projection
    of the residual left after the vertex part, so any field inside the local
    polynomial span is reproduced exactly and constants produce exact zeros.
    The Jacobian scales both sides of the projection, so one reference bubble
    mass serves every element.
    """
    dofmap = sys.dofmap
    nodes = dofmap.mesh.nodes
    centers = 0.5 * (nodes[:-1] + nodes[1:])[:, None]
    jac = dofmap.mesh.jacobians[:, None]
    full = np.zeros(dofmap.full_dim)
    for fld, fun in ((Field.TEMPERATURE, T0), (Field.HEAT_FLUX, q0)):
        deg = dofmap.space(fld).degree
        dofs = dofmap.element_dofs[fld]
        vertex = _sample(fun, nodes)
        full[dofs[:, 0]] = vertex[:-1]
        full[dofs[:, 1]] = vertex[1:]
        rule, values, mass = _bubble_projection(deg)
        bub = values[2:]
        f_g = _sample(fun, centers + jac * rule.points)
        # N_1 = 1 - N_2 written out, so a constant leaves an exact zero.
        left, right = vertex[:-1, None], vertex[1:, None]
        resid = (f_g - left) - (right - left) * values[1]
        full[dofs[:, 2:]] = np.linalg.solve(mass, bub @ (rule.weights * resid).T).T
    return full[dofmap.free_to_full]


@dataclass(frozen=True)
class ProbeRow:
    """Sparse evaluation functional: value = w_free . alpha + w_cons . g(t)."""

    x: float
    field: Field
    free_idx: np.ndarray
    free_w: np.ndarray
    cons_idx: np.ndarray
    cons_w: np.ndarray

    def evaluate(self, sys: SemiDiscreteSystem, alpha: np.ndarray, t: float) -> float:
        value = float(self.free_w @ alpha[self.free_idx])
        for pos, w in zip(self.cons_idx, self.cons_w):
            value += w * sys.dofmap.constrained[pos].value.value(t)
        return value


def probe_row(dofmap: DofMap, x: float, field: Field) -> ProbeRow:
    """Evaluation weights for a field at a point.

    At an interior mesh node of the discontinuous flux space the value is the
    average of the two one-sided limits; everywhere else it is the ordinary
    element evaluation.  The row spans every DOF of the elements evaluated,
    zero weights included, in ascending full numbering.
    """
    mesh = dofmap.mesh
    nodes = mesh.nodes
    tol = 1e-12 * mesh.length
    if not nodes[0] - tol <= x <= nodes[-1] + tol:
        raise ValueError(f"probe point {x} outside the domain [{nodes[0]}, {nodes[-1]}]")

    space = dofmap.space(field)
    nearest = int(np.argmin(np.abs(nodes - x)))
    if abs(nodes[nearest] - x) <= tol:
        if (
            0 < nearest < mesh.n_elements
            and space.continuity is Continuity.DISCONTINUOUS
        ):
            pieces = [(nearest - 1, 1.0, 0.5), (nearest, -1.0, 0.5)]
        elif nearest == mesh.n_elements:
            pieces = [(nearest - 1, 1.0, 1.0)]
        else:
            pieces = [(nearest, -1.0, 1.0)]
    else:
        e = int(np.searchsorted(nodes, x) - 1)
        e = min(max(e, 0), mesh.n_elements - 1)
        eta = (x - 0.5 * (nodes[e] + nodes[e + 1])) / mesh.jacobians[e]
        pieces = [(e, eta, 1.0)]

    elements, etas, _ = zip(*pieces)
    values = ShapeSet(space.degree).values(np.array(etas))
    element_dofs = dofmap.element_dofs[field]
    weights = np.zeros(dofmap.full_dim)
    for k, (e, _, share) in enumerate(pieces):
        weights[element_dofs[e]] += share * values[:, k]

    dofs = np.unique(element_dofs[list(elements)])
    free = dofmap.full_to_free[dofs]
    is_free = free >= 0
    cons_pos = np.full(dofmap.full_dim, -1)
    cons_pos[[c.dof for c in dofmap.constrained]] = np.arange(len(dofmap.constrained))
    return ProbeRow(
        x=float(x),
        field=field,
        free_idx=free[is_free],
        free_w=weights[dofs[is_free]],
        cons_idx=cons_pos[dofs[~is_free]],
        cons_w=weights[dofs[~is_free]],
    )


def field_integral_weights(dofmap: DofMap, field: Field) -> np.ndarray:
    """Full-numbering weights w with w . alpha_full = integral of the field."""
    space = dofmap.space(field)
    shapes = ShapeSet(space.degree)
    rule = gauss_rule(space.degree + 1)
    shape_integrals = shapes.values(rule.points) @ rule.weights
    dofs = dofmap.element_dofs[field]
    contributions = dofmap.mesh.jacobians[:, None] * shape_integrals
    return np.bincount(
        dofs.ravel(), weights=contributions.ravel(), minlength=dofmap.full_dim
    )
