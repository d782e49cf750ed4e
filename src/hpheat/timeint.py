"""One-step implicit time integration over a statically condensed system.

The theta scheme applied to A alpha' + B alpha = f(t) reads

    (A + dt theta B) alpha_{n+1} = (A - dt (1 - theta) B) alpha_n + dt f_n*

`build_factorization` condenses the implicit matrix onto the vertex DOFs
once per system, the standard hp treatment (module `condense`): the element
interiors are eliminated, and the vertex Schur complement is a band of
half-bandwidth 1 for the local models and 3 for GK whatever the degree.

The step loop is `march`, a core that knows nothing of SemiDiscreteSystem.
Its inputs are built once, before the loop:

- the CondensedFactorization of the implicit matrix, which also folds a
  load on the rows that boundary data load (SemiDiscreteSystem.load_rows)
  onto the condensed rows it reaches;
- a table of dt f_n* on those rows for every step;
- the free-DOF weight rows of the probes;
- the initial state.

It returns the probe histories and the final state.  Once per march, it
derives the step's arrays from the factorization and the probe rows
(StepArrays): the step operator with its vertex rows in the order that the
band factorization's row interchanges leave them in, one column per folded
load row and one row per probe, the unit lower band of the forward sweep,
and the upper band.  A step is then one sparse product of the state and
the step's load, which sit one after the other in one buffer, one forward
sweep and one back-substitution on the narrow vertex band, all in place in
a second buffer, and one copy of the probe values that the product gave;
the two buffers swap after every step.  The step's bits are those of the product with the step operator,
the addition of the load and LAPACK's dgbtrs on the factors, taken one
after the other (test_the_step_is_bitwise_the_public_formulation,
tests/test_timeint.py).  The condensed state holds each element's
interiors' right-hand side, not the interiors, and in the basis of
eigenvectors in which the element's interior block of the step operator is
diagonal but for a 2x2 block per complex pair of eigenvalues, so the
product holds one or two entries per interior row there.  The bits of that
basis come from LAPACK's dgeev and depend on the LAPACK build.  The march
recovers the interiors once, for the final state, and reads the probes
off the state itself (_functionals).

`integrate` is a thin adapter over the core for one system: it builds the
inputs with `prepare` and `build_factorization`, and afterwards adds the
prescribed part of the probe values on the whole time grid and checks that
the result is finite.  `integrate_stack` marches several systems on one
grid as a single block-diagonal system through the same core.

The step's sparse product calls scipy's CSR kernel csr_matvec itself, into
a zeroed output: the call that `@` ends in, with the same bits, without
the microseconds of scipy's dispatch around it.  The forward sweep is
BLAS's dtbsv and the back-substitution LAPACK's dgbtrs, called through
scipy's wrappers in place on the buffer.  The kernel comes from
scipy.sparse._sparsetools, a private scipy module; the test
test_the_private_kernels_are_bitwise_the_public_products (tests/test_timeint.py)
holds it bit for bit to `@`.

The load is f = natural fluxes - A_lc g' - B_lc g on the load rows, with g
the constrained values and A_lc, B_lc the couplings of those rows to them
(SemiDiscreteSystem).  f_n* is its exact mean over the step, from the closed-form running
integrals of the boundary data, so the discrete energy balance telescopes
exactly even when the excitation varies fast compared to the step.  The rate
g' is the change between consecutive step means of g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrs
from scipy.sparse._sparsetools import csr_matvec

from .assembly import Field, ProbeRow, SemiDiscreteSystem, probe_row
from .condense import CondensedFactorization, FactorizationError, condense, stack
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


# Steps of the load table folded at once in march.
_BLOCK_STEPS = 128


def build_factorization(sys: SemiDiscreteSystem, scheme: ThetaScheme) -> CondensedFactorization:
    """The implicit matrix of the scheme, condensed onto the vertex DOFs.

    Raises FactorizationError naming the free index of the failing pivot.
    """
    return condense(sys, scheme.dt, scheme.theta)


@dataclass(frozen=True)
class StepArrays:
    """The arrays of one theta step, derived from a CondensedFactorization
    and probe rows by step_arrays.

    A step reads the condensed state and then the step's folded load from
    the first dim + len(fact.load_rows) entries of a buffer x.  Into a
    buffer y of the same size it writes the next state, in its first dim
    entries, and the probes' functionals on x's state, in the next
    len(scales) entries:

    - y = matrix @ x.  matrix holds the rows of fact.m_expl, with the
      vertex rows in the order that dgbtrf's row interchanges leave them
      in, and after the entries of each row in fact.load_rows one entry
      1.0 in the column that reads its load from the tail of x.  So each
      row sums the products of m_expl and then adds its load.  The rows
      of `functionals` follow: scales times their product with a state
      are the free part of the probe values on it (_functionals).
    - The forward sweep with the unit lower band `lower`, of half-bandwidth
      reach, on y's vertex rows: one dtbsv.  Its column j holds dgbtrf's
      multipliers of column j, each in the row where the later interchanges
      carry it, so reach can exceed fact.kl, up to n_vertex - 1 when
      the interchanges chain down every row.
    - The back-substitution with the upper band `upper` of the factors, of
      half-bandwidth ku = fact.kl + fact.ku: one dgbtrs with kl = 0, which
      reads no pivot; ipiv is there for its wrapper's signature.

    dgbtrs on the full factors makes the same products and sums in the
    same order: it takes each interchange just before its column's
    elimination, and does the elimination as a rank-one update, which
    OpenBLAS runs through the axpy kernel that dtbsv runs too.  Where
    reach exceeds the rows that dgbtrs updates, the lower band holds exact
    zeros.  Their products, +-0, change no finite sum, since no sum is -0
    when the product starts every row from +0; and they make NaN only of
    entries below a non-finite one, which dgbtrs makes non-finite too.

    rows, n_vertex, reach and ku repeat matrix.shape[0], lower.shape[1],
    lower.shape[0] - 1 and upper.shape[0] - 1.  They are kept because every
    step reads them, and reading the shapes would add about 0.25 us to a
    step of 16.6 us at GK 100x10.
    """

    rows: int
    n_vertex: int
    matrix: sp.csr_matrix
    lower: np.ndarray
    reach: int
    upper: np.ndarray
    ku: int
    ipiv: np.ndarray
    functionals: sp.csr_matrix
    scales: np.ndarray


def _functionals(
    fact: CondensedFactorization, probes: Sequence[ProbeRow]
) -> tuple[sp.csr_matrix, np.ndarray]:
    """free_w . coefficients(w)[free_idx] of each probe as a row on the
    condensed state w, scaled to unit max-norm, and the scales: a vertex DOF
    reads col_scale times its entry of w, an interior one col_scale times
    its row of `interior`.  Zero weights are left out.  Without the scaling
    (col_scale reaches 4.7e4) a row overflows on states whose coefficients
    are finite.  The values round apart from ProbeRow.evaluate on the
    coefficients, within the bound of
    test_the_probe_functionals_agree_with_the_recovered_coefficients."""
    nv, dim, it = fact.n_vertex, fact.dim, fact.interior
    weight = np.concatenate([np.zeros(0)] + [r.free_w for r in probes])
    free = np.concatenate([np.zeros(0, dtype=int)] + [r.free_idx for r in probes])
    owner = np.repeat(np.arange(len(probes)), [r.free_w.size for r in probes])
    keep = weight != 0.0
    free, owner = free[keep], owner[keep]
    weight = weight[keep] * fact.col_scale[free]
    position = np.empty(dim, dtype=int)
    position[fact.order] = np.arange(dim)
    at = position[free]
    # An interior DOF's term spreads over its row of `interior`.
    inner = at >= nv
    rows = at[inner] - nv
    counts = it.indptr[rows + 1] - it.indptr[rows]
    entry = np.repeat(it.indptr[rows] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    col = np.concatenate((at[~inner], it.indices[entry]))
    terms = np.concatenate((weight[~inner], it.data[entry] * np.repeat(weight[inner], counts)))
    owner = np.concatenate((owner[~inner], np.repeat(owner[inner], counts)))
    # The terms of a probe on one column add up in the order they come in.
    key, term = np.unique(owner * dim + col, return_inverse=True)
    value = np.bincount(term, terms, key.size)
    row, col = np.divmod(key, dim)
    scales = np.zeros(len(probes))
    np.maximum.at(scales, row, np.abs(value))
    value = value / scales[row]
    indptr = np.zeros(len(probes) + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=len(probes)), out=indptr[1:])
    return sp.csr_matrix((value, col.astype(np.int32), indptr), shape=(len(probes), dim)), scales


def step_arrays(fact: CondensedFactorization, probes: Sequence[ProbeRow] = ()) -> StepArrays:
    """The step's arrays for a factorization and the probe rows on its free
    numbering.  Only the rows that dgbtrf interchanged take a Python
    iteration each."""
    nv, kl, dim = fact.n_vertex, fact.kl, fact.dim
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
    reach = int(offset.max(initial=0))
    lower = np.zeros((reach + 1, nv), order="F")
    lower[offset, cols[inside]] = fact.lu[kl + fact.ku + 1:][inside]

    # The rows of m_expl in the new order, each followed by its load entry,
    # and then the probes' rows.
    m = fact.m_expl
    functionals, scales = _functionals(fact, probes)
    order = np.concatenate((perm, np.arange(nv, dim)))
    at = np.empty(dim, dtype=int)
    at[order] = np.arange(dim)
    loaded = at[fact.load_rows]
    n_load = loaded.size
    counts = np.concatenate((np.diff(m.indptr)[order], np.diff(functionals.indptr)))
    counts[loaded] += 1
    indptr = np.zeros(counts.size + 1, dtype=m.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    starts = np.concatenate((m.indptr[order], m.nnz + n_load + functionals.indptr[:-1]))
    source = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    source[indptr[loaded + 1] - 1] = m.nnz + np.arange(n_load)
    loads = np.arange(dim, dim + n_load, dtype=m.indices.dtype)
    matrix = sp.csr_matrix(
        (
            np.concatenate((m.data, np.ones(n_load), functionals.data))[source],
            np.concatenate((m.indices, loads, functionals.indices))[source],
            indptr,
        ),
        shape=(counts.size, dim + n_load),
    )
    return StepArrays(
        rows=matrix.shape[0], n_vertex=nv, matrix=matrix, lower=lower, reach=reach,
        upper=np.asfortranarray(fact.lu[:kl + fact.ku + 1]), ku=kl + fact.ku, ipiv=fact.ipiv,
        functionals=functionals, scales=scales,
    )


def advance(step: StepArrays, x: np.ndarray, y: np.ndarray) -> None:
    """One theta step (StepArrays): from the state and load in x, the next
    state into the first dim entries of y, and the probes' functionals on
    x's state into the entries after it.

    The product calls scipy's CSR kernel csr_matvec, the call that `@`
    ends in, on y zeroed.  Both solves work in place on y's vertex rows."""
    m = step.matrix
    y.fill(0.0)
    csr_matvec(step.rows, x.size, m.indptr, m.indices, m.data, x, y)
    if step.n_vertex:
        # incx, offx, lower, trans, diag and overwrite_x by position, which
        # the wrapper parses faster than keywords: a unit lower band, in
        # place.
        dtbsv(step.reach, step.lower, y, 1, 0, 1, 0, 1, 1)
        _, info = dgbtrs(step.upper, 0, step.ku, y, step.ipiv, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"banded back-substitution failed with info {info}")


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


def march(
    fact: CondensedFactorization,
    loads: np.ndarray,
    probes: Sequence[ProbeRow],
    alpha0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The step loop: one step per row of loads, which holds dt f_n* on the
    free rows that fact.load_fold folds.  Returns the free part of the probe
    histories and the final state.

    A step is advance, whose product also applies the probes' functionals
    (StepArrays) to the state it reads, and one copy of those values into a
    (steps, probes) history.  The last state is read once after the loop,
    with the functionals alone, and the history is scaled at the end.  The
    load table is folded for _BLOCK_STEPS steps at a time.  The initial
    values are ProbeRow.evaluate's dot products on alpha0."""
    alpha = np.array(alpha0, dtype=float, copy=True)
    if alpha.shape != (fact.dim,):
        raise ValueError(f"initial state has shape {alpha.shape}, expected ({fact.dim},)")
    n_steps = len(loads)
    values = np.empty((len(probes), n_steps + 1))
    values[:, 0] = [r.free_w @ alpha[r.free_idx] for r in probes]
    if not n_steps:
        return values, alpha

    step = step_arrays(fact, probes)
    dim = fact.dim
    loaded, read = slice(dim, dim + fact.load_rows.size), slice(dim, dim + len(probes))
    history = np.empty((n_steps + 1, len(probes)))
    # The state and the step's load, and the next state with the probe
    # values of the state before it, swapped after every step.
    x = np.empty(dim + max(fact.load_rows.size, len(probes)))
    y = np.empty_like(x)
    x[:dim] = fact.state(alpha)
    # A state that overflows is reported after the march, by the first step
    # whose probe values or final state are not finite, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        # Blocks bound the memory that the folded table takes.
        for first in range(0, n_steps, _BLOCK_STEPS):
            table = fact.load_fold @ loads[first:first + _BLOCK_STEPS].T
            for load, row in zip(table.T, history[first:]):
                x[loaded] = load
                advance(step, x, y)
                row[:] = y[read]
                x, y = y, x
        history[-1] = step.functionals @ x[:dim]
        np.multiply(history[1:].T, step.scales[:, None], out=values[:, 1:])
    return values, fact.coefficients(x[:dim])


def _solution(
    prepared: Prepared, times: np.ndarray, values: np.ndarray, alpha: np.ndarray
) -> TransientSolution:
    """Add the prescribed part of the probe values and check that the
    histories and the final state are finite."""
    rows = prepared.probes
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
    values, alpha = march(fact, prepared.loads, prepared.probes, alpha0)
    return _solution(prepared, scheme.times, values, alpha)


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
    fact = build_factorization(sys, scheme)
    return _solve(prepared, fact, scheme, alpha0)


def integrate_stack(
    members: Sequence[Prepared],
    scheme: ThetaScheme,
) -> list[TransientSolution | FactorizationError | NonFiniteStateError]:
    """March several prepared systems from rest (the zero state) on one time
    grid as a single block-diagonal system, and split the result per member.

    Every member is condensed on its own, and the stack concatenates the
    condensed operators: every step is one sparse product, one forward sweep
    and one back-substitution on the narrow vertex band for all members, and
    the product's probe rows read each member's probes off its own part of
    the state.  A member's histories and final state are bit for bit those
    of integrate on its own, since a probe's row holds the same entries in
    the same column order in the stack as in its member alone.

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
            facts[k] = build_factorization(m.system, scheme)
        except FactorizationError as exc:
            results[k] = exc
    if not facts:
        return results
    fact = stack(list(facts.values()))
    starts = np.cumsum([0] + [f.dim for f in facts.values()])
    blocks = [(k, members[k], int(start)) for k, start in zip(facts, starts)]
    values, alpha = march(
        fact,
        np.hstack([m.loads for _, m, _ in blocks]),
        [replace(r, free_idx=r.free_idx + start) for _, m, start in blocks for r in m.probes],
        np.zeros(fact.dim),
    )
    first = 0
    try:
        for k, m, start in blocks:
            rows = slice(first, first + len(m.probes))
            first = rows.stop
            state = alpha[start:start + m.system.dim].copy()
            results[k] = _solution(m, scheme.times, values[rows], state)
    except NonFiniteStateError:
        for k, m, _ in blocks:
            try:
                results[k] = _solve(m, facts[k], scheme, np.zeros(m.system.dim))
            except NonFiniteStateError as exc:
                results[k] = exc
    return results
