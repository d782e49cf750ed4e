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

It returns the probe histories and the final state.  A step is one CSR
product with the step operator, an update of the few folded load rows, one
narrow banded back-substitution for the vertex DOFs, one CSR product that
recovers the interiors from them, and one gather of the state entries the
probes read.  The probe dot products run once per block of steps, one
stacked product per probe that sums each step as ProbeRow.evaluate does.
`integrate` is a thin adapter over the core for one system: it builds the
inputs with `prepare` and `build_factorization`, and afterwards adds the
prescribed part of the probe values on the whole time grid and checks that
the result is finite.  `integrate_stack` marches several systems on one
grid as a single block-diagonal system through the same core.

The load is f = natural fluxes - A_fc g' - B_fc g, with g the constrained
values.  f_n* is its exact mean over the step, from the closed-form running
integrals of the boundary data, so the discrete energy balance telescopes
exactly even when the excitation varies fast compared to the step.  The rate
g' is the change between consecutive step means of g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgbtrs

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


# Steps of the load table folded, and of probe values evaluated, at once in
# march.
_BLOCK_STEPS = 128


def build_factorization(sys: SemiDiscreteSystem, scheme: ThetaScheme) -> CondensedFactorization:
    """The implicit matrix of the scheme, condensed onto the vertex DOFs.

    Raises FactorizationError naming the free index of the failing pivot.
    """
    return condense(sys, scheme.dt, scheme.theta)


def advance(fact: CondensedFactorization, y: np.ndarray, load: np.ndarray) -> np.ndarray:
    """One theta step of the condensed state y, with a load folded onto the
    condensed rows fact.load_rows (fact.load_fold applied to it)."""
    rhs = fact.m_expl @ y
    rhs[fact.load_rows] += load
    nv = fact.n_vertex
    if nv:
        vertex, info = dgbtrs(fact.lu, fact.kl, fact.ku, rhs[:nv], fact.ipiv, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"banded back-substitution failed with info {info}")
        rhs[:nv] = vertex
        rhs[nv:] -= fact.interior @ vertex
    return rhs


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
    if signals:
        coupled = rate @ sys.A_fc[rows].T
        coupled += value @ sys.B_fc[rows].T
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

    The steps run in blocks of _BLOCK_STEPS.  Before a block, the load
    table is folded for its steps.  A step is advance and one gather of the
    probes' entries of the state into a row of a buffer.  After the block,
    the buffer is scaled to coefficients and reduced to the probe values of
    all its steps."""
    alpha = np.array(alpha0, dtype=float, copy=True)
    if alpha.shape != (fact.dim,):
        raise ValueError(f"initial state has shape {alpha.shape}, expected ({fact.dim},)")
    n_steps = len(loads)
    values = np.empty((len(probes), n_steps + 1))
    # The dot product of ProbeRow.evaluate.
    values[:, 0] = [r.free_w @ alpha[r.free_idx] for r in probes]
    if not n_steps:
        return values, alpha

    at, scale = fact.probe(probes)
    ends = np.cumsum([len(r.free_w) for r in probes], dtype=int)
    terms = [(r.free_w[:, None], slice(e - len(r.free_w), e)) for r, e in zip(probes, ends)]
    seen = np.empty((min(n_steps, _BLOCK_STEPS), at.size))
    y = fact.state(alpha)
    # A state that overflows is reported after the march, by the first step
    # whose probe values or final state are not finite, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        # Blocks bound the memory that the folded table and the buffer take.
        for first in range(0, n_steps, _BLOCK_STEPS):
            table = fact.load_fold @ loads[first:first + _BLOCK_STEPS].T
            for load, row in zip(table.T, seen):
                y = advance(fact, y, load)
                # at is in range: mode "clip" writes straight into the row,
                # where "raise" goes through a buffer.
                y.take(at, out=row, mode="clip")
            block = seen[:table.shape[1]]
            block *= scale
            # ProbeRow.evaluate's dot products on coefficients(y): a stack of
            # row-by-column products is one ddot per step, where a matrix-vector
            # product would sum in another order.
            done = slice(first + 1, first + 1 + len(block))
            for i, (w, part) in enumerate(terms):
                values[i, done] = np.matmul(block[:, None, part], w)[:, 0, 0]
    return values, fact.coefficients(y)


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
    condensed operators: every step is one CSR product, one load update,
    one back-substitution on the narrow vertex band and one interior
    product for all members.  A member's histories are bit for bit those of
    integrate on its own.

    Failures stay per member.  A member whose factorization fails keeps its
    FactorizationError and the rest march.  A NaN or infinity in one block
    reaches every other block within one step, because the back-substitution
    multiplies the band's stored zeros by it; so when any member ends
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
