"""One-step implicit time integration over a statically condensed system.

The theta scheme applied to A alpha' + B alpha = f(t) reads

    (A + dt theta B) alpha_{n+1} = (A - dt (1 - theta) B) alpha_n + dt f_n*

`build_factorization` condenses the implicit matrix onto the vertex DOFs
once per system (module `condense`), with the probes' rows on the
condensed state.  `step_arrays` joins the factorizations of one or more
systems into the arrays of one step (StepArrays), in one pass over the
members' own arrays: the step operator with its vertex rows in the order
that the band factorization's row interchanges leave them in, one column
per folded load row and the probes' rows, the unit lower band of the
forward sweep, and the upper band.  The step loop is `march`, a core that
knows nothing of SemiDiscreteSystem: from those arrays, a table of dt f_n*
on the rows that boundary data load (SemiDiscreteSystem.load_rows) for
every step, and a condensed state, it returns the free part of the probe
values after every step and the final condensed state.  Each block of
_BLOCK_STEPS steps runs through one buffer of rows, row n holding state n,
the probe values on state n - 1 and the folded load of step n; a step is
three kernel calls that take row n into row n + 1: one sparse product of
the state and the load, one forward sweep and one back-substitution on the
narrow vertex band, in place.  No step copies an array: the loads go into
the buffer, and the probe values out of it, a block at a time.  The step's
bits are those of the product with the step operator, the addition of the
load and LAPACK's dgbtrs on the factors, taken one after the other
(test_the_step_is_bitwise_the_public_formulation, tests/test_timeint.py).
The state holds each element's interiors' right-hand side in the
eigenbasis of its interior block of the step operator (module
`eigenbasis`); march converts nothing into it or out of it.

`integrate` is a thin adapter over the core for one system: it builds the
inputs with `prepare` and `build_factorization`, converts the initial
state into the condensed state and the final state out of it with the
factorization, and afterwards adds the probe values at t = 0,
ProbeRow.evaluate's free part on the initial state, and the prescribed
part on the whole time grid, and checks that the result is finite.
`integrate_stack` marches several systems on one grid as a single
block-diagonal system through the same core.

The step's sparse product calls scipy's CSR kernel csr_matvec, from the
private module scipy.sparse._sparsetools, into a zeroed output: the call
that `@` ends in, without scipy's dispatch around it (held bit for bit to
`@` by test_the_private_kernels_are_bitwise_the_public_products).  The
forward sweep is BLAS's dtbsv and the back-substitution LAPACK's dgbtrs,
called through scipy's wrappers in place on the buffer, with every
argument by position.  The back-substitution stays dgbtrs, looked up by
this module's name for it once per march: perfbench/spans.py wraps that
name to time the step and count the steps.  An upper dtbsv in its place
waits for the benchmark to read the steps from the run record (ROADMAP
item 17).

The load is f = natural fluxes - A_lc g' - B_lc g on the load rows, with g
the constrained values and A_lc, B_lc the couplings of those rows to them
(SemiDiscreteSystem).  f_n* is its exact mean over the step, from the
closed-form running integrals of the boundary data, so the discrete energy
balance telescopes exactly even when the excitation varies fast compared
to the step.  The rate g' is the change between consecutive step means of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrs
from scipy.sparse._sparsetools import csr_matvec

from .assembly import Field, ProbeRow, SemiDiscreteSystem, probe_row
from .condense import CondensedFactorization, FactorizationError, condense
from .timefun import NonFiniteStateError, on_grid, step_averages


@dataclass(frozen=True)
class ThetaScheme:
    """theta in [1/2, 1]: trapezoidal rule through backward Euler."""

    theta: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [1/2, 1], got {self.theta}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"time step must be finite and positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.n_steps}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


# Steps that march takes through one buffer of rows: at GK 100x10 the
# buffer holds 0.57 MB.
_BLOCK_STEPS = 32


def build_factorization(
    sys: SemiDiscreteSystem, scheme: ThetaScheme, probes: Sequence[ProbeRow] = ()
) -> CondensedFactorization:
    """The implicit matrix of the scheme, condensed onto the vertex DOFs,
    with the probes' rows if the scheme has steps: a march of no steps
    reads no state.

    Raises FactorizationError naming the free index of the failing pivot.
    """
    return condense(sys, scheme.dt, scheme.theta, probes if scheme.n_steps else ())


@dataclass(frozen=True)
class StepArrays:
    """The arrays of one theta step of one or more condensed systems, the
    members, built by step_arrays from their factorizations.

    The members march side by side as one block-diagonal system, whose
    state holds every member's vertex DOFs, member after member, and then
    every member's interiors; parts[k] holds the indices of member k's
    condensed state in it.  A row of march's buffer holds that state, then
    one entry per probe, then the step's folded load, one per row of each
    member's load_rows.  A step reads a row x's state and load, and writes
    the next state and the probes' functionals on x's state into the next
    row y, zeroed there:

    - y = matrix @ x.  matrix holds the rows of the members' m_expl, with
      the vertex rows in the order that dgbtrf's row interchanges leave
      them in, and after the entries of each row in load_rows one entry
      1.0 in the column that reads its load from x.  So each row sums the
      products of m_expl and then adds its load, from +0.  The rows of
      `functionals` follow; no row reads the probe columns.
    - The forward sweep with the unit lower band `lower`, of half-bandwidth
      reach, on y's vertex rows: one dtbsv.  A member's column j holds
      dgbtrf's multipliers of column j, each in the row where the later
      interchanges carry it, so reach can exceed kl, up to n_vertex - 1
      when the interchanges chain down every row.
    - The back-substitution with the upper band `upper` of the factors, of
      half-bandwidth ku, the largest kl + ku of the members: one dgbtrs
      with kl = 0, which reads no pivot; ipiv is there for its wrapper's
      signature.

    Each member's bands sit in the layout of the widest, where the extra
    diagonals hold exact zeros.  dgbtrs on a member's full factors makes
    the same products and sums in the same order: it takes each
    interchange just before its column's elimination, and does the
    elimination as a rank-one update, which OpenBLAS runs through the axpy
    kernel that dtbsv runs too.  Where the bands hold more than the rows
    that dgbtrs updates, they hold exact zeros.  Their products, +-0,
    change no finite sum, since no sum is -0 when the product starts every
    row from +0; and they make NaN only of entries beside a non-finite
    one: within a member, of entries that dgbtrs makes non-finite too.

    load_fold folds the members' loads, member after member, onto their
    load_rows.  scales times the product of `functionals`, the members'
    probe rows on the state, with a state are the free part of the probe
    values on it; with no probes, functionals is None.  reach and ku repeat
    lower.shape[0] - 1 and upper.shape[0] - 1.
    """

    matrix: sp.csr_matrix
    lower: np.ndarray
    reach: int
    upper: np.ndarray
    ku: int
    ipiv: np.ndarray
    load_fold: sp.csr_matrix
    functionals: sp.csr_matrix | None
    scales: np.ndarray
    parts: list[np.ndarray]

    @property
    def dim(self) -> int:
        """The size of the condensed state."""
        return self.matrix.shape[0] - self.scales.size


def _forward_sweep(fact: CondensedFactorization) -> tuple[np.ndarray, np.ndarray]:
    """The order in which dgbtrf's row interchanges leave the vertex rows,
    and the unit lower band of the forward sweep in that order.  Only the
    rows that dgbtrf interchanged take a Python iteration each."""
    nv, kl = fact.n_vertex, fact.kl
    # dgbtrs swaps rows k and ipiv[k] just before it eliminates column k,
    # and the swap moves the entries that the columns before k have
    # updated.  Applied up front, the swaps take the vertex rows in the
    # order perm, and carry each multiplier of column j, which row j + 1 + t
    # received, to the row where that row's entry ends up.
    perm = np.arange(nv)
    rows = np.arange(nv) + np.arange(1, kl + 1)[:, None]
    reach = kl
    for k in np.flatnonzero(fact.ipiv != perm):
        p = fact.ipiv[k]
        perm[[k, p]] = perm[[p, k]]
        # Only the columns within reach of row k hold multipliers in row k
        # or row p >= k.
        start = max(k - reach, 0)
        window = rows[:, start:k]
        down, up = window == k, window == p
        window[down], window[up] = p, k
        if down.any():
            reach = max(reach, p - start - int(np.argmax(down.any(axis=0))))
    cols = np.broadcast_to(np.arange(nv), rows.shape)
    inside = rows < nv
    offset = rows[inside] - cols[inside]
    lower = np.zeros((int(offset.max(initial=0)) + 1, nv), order="F")
    lower[offset, cols[inside]] = fact.lu[kl + fact.ku + 1:][inside]
    return perm, lower


def _joined(mats: Sequence[sp.csr_matrix], cols: Sequence[np.ndarray], n_cols: int) -> sp.csr_matrix:
    """The rows of the CSR matrices mats, one matrix after the other, with
    each column j of mats[k] moved to cols[k][j], an int32 array.  Every
    row keeps the order of its entries."""
    counts = np.concatenate([np.diff(m.indptr) for m in mats])
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    data = np.concatenate([m.data for m in mats])
    indices = np.concatenate([c.take(m.indices) for m, c in zip(mats, cols)])
    return sp.csr_matrix((data, indices, indptr), shape=(counts.size, n_cols))


def step_arrays(facts: Sequence[CondensedFactorization]) -> StepArrays:
    """The step's arrays for the factorizations of one or more systems,
    joined in one pass from the members' own arrays."""
    nv = np.array([f.n_vertex for f in facts])
    dims = np.array([f.dim for f in facts])
    n_vertex, dim = int(nv.sum()), int(dims.sum())
    vertex_start = np.cumsum(nv) - nv
    interior_start = n_vertex + np.cumsum(dims - nv) - (dims - nv)
    parts = [
        np.concatenate((np.arange(s, s + v), np.arange(t, t + d - v)), dtype=np.int32)
        for v, d, s, t in zip(nv, dims, vertex_start, interior_start)
    ]
    sweeps = [_forward_sweep(f) for f in facts]
    reach = max(band.shape[0] for _, band in sweeps) - 1
    ku = max(f.kl + f.ku for f in facts)
    lower = np.zeros((reach + 1, n_vertex), order="F")
    upper = np.zeros((ku + 1, n_vertex), order="F")
    # The joined row of every member's rows: a member's vertex row perm[i]
    # goes to its vertex row i.
    where = []
    for f, part, s, (perm, band) in zip(facts, parts, vertex_start, sweeps):
        vertex = slice(s, s + f.n_vertex)
        lower[:band.shape[0], vertex] = band
        upper[ku - f.kl - f.ku:, vertex] = f.lu[:f.kl + f.ku + 1]
        row = part.copy()
        row[perm] = part[:f.n_vertex]
        where.append(row)
    where = np.concatenate(where)

    # The rows of m_expl in the joined order, each followed by its load
    # entry, and then the probes' rows.
    probed = [k for k, f in enumerate(facts) if f.functionals is not None]
    functionals = None
    if probed:
        functionals = _joined([facts[k].functionals for k in probed], [parts[k] for k in probed], dim)
    loaded = where[np.concatenate([f.load_rows + s for f, s in zip(facts, np.cumsum(dims) - dims)])]
    scales = np.concatenate([f.scales for f in facts])
    n_load, n_probes = loaded.size, scales.size
    nnz = np.cumsum([0] + [f.m_expl.nnz for f in facts])
    counts = np.empty(dim + n_probes, dtype=np.int32)
    starts = np.empty(dim + n_probes, dtype=np.int32)
    counts[where] = np.concatenate([np.diff(f.m_expl.indptr) for f in facts])
    starts[where] = np.concatenate([f.m_expl.indptr[:-1] + s for f, s in zip(facts, nnz)])
    # The load columns follow the state's and the probes'.
    loads = np.arange(dim + n_probes, dim + n_probes + n_load, dtype=np.int32)
    data = [f.m_expl.data for f in facts] + [np.ones(n_load)]
    indices = [part.take(f.m_expl.indices) for f, part in zip(facts, parts)] + [loads]
    if functionals is not None:
        counts[dim:] = np.diff(functionals.indptr)
        starts[dim:] = nnz[-1] + n_load + functionals.indptr[:-1]
        data.append(functionals.data)
        indices.append(functionals.indices)
    counts[loaded] += 1
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    source = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    source[indptr[loaded + 1] - 1] = nnz[-1] + np.arange(n_load)
    matrix = sp.csr_matrix(
        (np.concatenate(data)[source], np.concatenate(indices)[source], indptr),
        shape=(counts.size, dim + n_probes + n_load),
    )
    n_loads = np.array([f.load_fold.shape[1] for f in facts])
    return StepArrays(
        matrix=matrix, lower=lower, reach=reach, upper=upper, ku=ku,
        ipiv=np.concatenate([f.ipiv + s for f, s in zip(facts, vertex_start)]).astype(np.int32),
        load_fold=_joined(
            [f.load_fold for f in facts],
            [np.arange(s, s + n, dtype=np.int32) for n, s in zip(n_loads, np.cumsum(n_loads) - n_loads)],
            int(n_loads.sum()),
        ),
        functionals=functionals, scales=scales, parts=parts,
    )


@dataclass
class TransientSolution:
    """Probe histories on the uniform time grid, plus the final state."""

    times: np.ndarray
    probe_values: np.ndarray
    final_state: np.ndarray


@dataclass
class Prepared:
    """A system with what its march needs besides the factorization: the
    probe rows, and dt times the step-mean load on the system's load_rows
    at every step, as an (n_steps, len(load_rows)) table."""

    system: SemiDiscreteSystem
    probes: list[ProbeRow]
    loads: np.ndarray


def _step_loads(sys: SemiDiscreteSystem, scheme: ThetaScheme) -> np.ndarray:
    """dt times the load on the system's load_rows, per step.

    Each step reads the step means, with the constrained rate taken from the
    previous step's mean (from g(0) at the first step), as
    SemiDiscreteSystem.load_average does.
    """
    times = scheme.times
    natural = sys.natural_free()
    signals = [c.value for c in sys.dofmap.constrained]
    fluxes = [fn for _, _, fn in natural]
    signs = np.array([sign for _, sign, _ in natural])
    natural_rows = np.array([idx for idx, _, _ in natural], dtype=int)
    rows = sys.load_rows
    natural_pos = np.searchsorted(rows, natural_rows)
    flux = signs * step_averages(fluxes, times)
    value = step_averages(signals, times)
    previous = np.vstack((on_grid(signals, times[:1], "value"), value[:-1]))
    rate = (value - previous) / (times[1:] - times[:-1])[:, None]
    bad = ~np.isfinite(np.hstack((flux, rate, value))).all(axis=1)
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)) + 1, "boundary data")
    # Built in place, so that at most two temporaries of the table's size
    # add to the peak memory.
    loads = np.zeros((len(flux), rows.size))
    loads[:, natural_pos] += flux
    coupled = rate @ sys.A_lc.T
    coupled += value @ sys.B_lc.T
    loads -= coupled
    loads *= scheme.dt
    return loads


def prepare(
    sys: SemiDiscreteSystem,
    scheme: ThetaScheme,
    probes: Sequence[tuple[float, Field]] = (),
) -> Prepared:
    """Probe rows and load table of a system on the scheme's time grid.

    Raises ValueError for a probe outside the domain and NonFiniteStateError
    when the boundary data of a step are not finite.
    """
    rows = [probe_row(sys.dofmap, x, fld) for x, fld in probes]
    return Prepared(system=sys, probes=rows, loads=_step_loads(sys, scheme))


def march(step: StepArrays, loads: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step loop from the condensed state w: one step per row of loads,
    which holds dt f_n* on the free rows that step.load_fold folds.
    Returns the free part of the probe values after every step, as a
    (probes, steps) array, and the final condensed state.

    Each block of _BLOCK_STEPS steps runs through one buffer of rows in the
    layout of StepArrays, row n holding state n.  Per block, the step's
    columns of rows 1..k are zeroed, the loads go into rows 0..k-1 and the
    probe values come out of rows 1..k, and the last row's state moves into
    row 0.  The last state is read once after the loop, with the
    functionals alone."""
    n_steps, n_probes, dim = len(loads), step.scales.size, step.dim
    probed = dim + n_probes
    m, lower, reach, upper, ku, ipiv = step.matrix, step.lower, step.reach, step.upper, step.ku, step.ipiv
    (rows, width), nv, ldab = m.shape, lower.shape[1], upper.shape[0]
    indptr, indices, data = m.indptr, m.indices, m.data
    # dgbtrs as this module names it when the march starts, which
    # perfbench/spans.py wraps.
    trs = dgbtrs
    history = np.empty((n_steps + 1, n_probes))
    # A march of no steps runs no block.
    block = max(min(_BLOCK_STEPS, n_steps), 1)
    buffer = np.empty((block + 1, width))
    views = list(buffer)
    pairs = list(zip(views, views[1:]))
    buffer[0, :dim] = w
    # A state that overflows is reported after the march, by the first step
    # whose probe values or final state are not finite, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, block):
            k = min(block, n_steps - first)
            buffer[1:k + 1, :probed] = 0.0
            buffer[:k, probed:] = (step.load_fold @ loads[first:first + k].T).T
            for x, y in pairs[:k]:
                csr_matvec(rows, width, indptr, indices, data, x, y)
                if nv:
                    # Every argument by position, which the wrappers parse
                    # faster than keywords: a unit lower band, in place.
                    dtbsv(reach, lower, y, 1, 0, 1, 0, 1, 1)
                    info = trs(upper, 0, ku, y, ipiv, 0, nv, ldab, width, 1)[1]
                    if info:
                        raise RuntimeError(f"banded back-substitution failed with info {info}")
            # Scaled on the way out: in place, the history's scaling would
            # take numpy's iteration buffer of up to 64 KB besides.
            np.multiply(buffer[1:k + 1, dim:probed], step.scales, out=history[first:first + k])
            buffer[0, :dim] = buffer[k, :dim]
        state = buffer[0, :dim].copy()
        if n_probes:
            history[-1] = step.scales * (step.functionals @ state)
    return history[1:].T, state


def _solution(
    prepared: Prepared,
    times: np.ndarray,
    alpha0: np.ndarray,
    marched: np.ndarray,
    alpha: np.ndarray,
) -> TransientSolution:
    """The probe histories: the free part at t = 0, ProbeRow.evaluate's dot
    products on alpha0, then the marched free part, all with the prescribed
    part added; checked finite with the final state alpha."""
    rows = prepared.probes
    alpha0 = np.asarray(alpha0, dtype=float)
    values = np.empty((len(rows), times.size))
    values[:, 0] = [r.free_w @ alpha0[r.free_idx] for r in rows]
    # A march of no steps builds no probe rows: marched is then (0, 0).
    values[:, 1:] = marched.reshape(len(rows), times.size - 1)
    if any(r.cons_idx.size for r in rows):
        constrained = prepared.system.dofmap.constrained
        prescribed = on_grid([c.value for c in constrained], times, "value")
        for i, r in enumerate(rows):
            for pos, w in zip(r.cons_idx, r.cons_w):
                values[i] += w * prescribed[:, pos]
    bad = ~np.isfinite(values).all(axis=0)
    bad[-1] |= not np.isfinite(alpha).all()
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)), "state")
    return TransientSolution(times=times, probe_values=values, final_state=alpha)


def _solve(
    prepared: Prepared, fact: CondensedFactorization, scheme: ThetaScheme, alpha0: np.ndarray
) -> TransientSolution:
    """March one factorized system from alpha0, converted into the condensed
    state and back out of it.  A march of no steps keeps alpha0 itself."""
    alpha = np.array(alpha0, dtype=float, copy=True)
    if alpha.shape != (fact.dim,):
        raise ValueError(f"initial state has shape {alpha.shape}, expected ({fact.dim},)")
    marched = np.empty((0, 0))
    if scheme.n_steps:
        marched, w = march(step_arrays([fact]), prepared.loads, fact.state(alpha))
        alpha = fact.coefficients(w)
    return _solution(prepared, scheme.times, alpha0, marched, alpha)


def integrate(
    sys: SemiDiscreteSystem,
    scheme: ThetaScheme,
    alpha0: np.ndarray,
    probes: Sequence[tuple[float, Field]] = (),
) -> TransientSolution:
    """Factor once, then march n_steps steps recording the probe values.

    Raises NonFiniteStateError, before marching, when the boundary data of a
    step are not finite, and after it when a probe history or the final
    state is.
    """
    prepared = prepare(sys, scheme, probes)
    fact = build_factorization(sys, scheme, prepared.probes)
    return _solve(prepared, fact, scheme, alpha0)


def integrate_stack(
    members: Sequence[Prepared],
    scheme: ThetaScheme,
) -> list[TransientSolution | FactorizationError | NonFiniteStateError]:
    """March several prepared systems from rest (the zero state) on one time
    grid as a single block-diagonal system, and split the result per member.

    Every member is condensed on its own, with its probes' rows, and
    step_arrays joins the members' arrays into one step: every step is one
    sparse product, one forward sweep and one back-substitution on the
    narrow vertex band for all members, and the product's probe rows read
    each member's probes off its own part of the state.  The march starts
    from the zero state, which is the condensed state of zero coefficients,
    and each member's part of the final state is converted out with the
    member's own factorization.  A member's histories and final state are
    bit for bit those of integrate on its own, since each of its rows holds
    the same entries in the same column order in the stack as alone.

    Failures stay per member.  A member whose factorization fails keeps its
    FactorizationError and the rest march.  A NaN or infinity in one block
    reaches every other block within one step, because the banded solves
    multiply the band's stored zeros by it; so when any member ends
    non-finite, every member is marched again alone, and only the bad ones
    keep a NonFiniteStateError naming their own step.  Returns, in member
    order, each solution or the error that stopped it.
    """
    results: list = [None] * len(members)
    facts = {}
    for k, m in enumerate(members):
        try:
            facts[k] = build_factorization(m.system, scheme, m.probes)
        except FactorizationError as exc:
            results[k] = exc
    if not facts:
        return results
    step = step_arrays(list(facts.values()))
    marched, w = march(step, np.hstack([members[k].loads for k in facts]), np.zeros(step.dim))
    probes = np.cumsum([0] + [f.scales.size for f in facts.values()])
    try:
        for (k, fact), part, first, stop in zip(facts.items(), step.parts, probes, probes[1:]):
            alpha = fact.coefficients(w[part])
            results[k] = _solution(members[k], scheme.times, np.zeros(fact.dim), marched[first:stop], alpha)
    except NonFiniteStateError:
        for k, fact in facts.items():
            try:
                results[k] = _solve(members[k], fact, scheme, np.zeros(fact.dim))
            except NonFiniteStateError as exc:
                results[k] = exc
    return results
