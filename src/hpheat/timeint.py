"""One-step implicit time integration with a reusable banded factorization.

The theta scheme applied to A alpha' + B alpha = f(t) reads

    (A + dt theta B) alpha_{n+1} = (A - dt (1 - theta) B) alpha_n + dt f_n*

The step loop is `march`, a core that knows nothing of SemiDiscreteSystem.
Its inputs are built once, before the loop:

- the BandedFactorization of the implicit matrix, which also carries the
  explicit matrix in CSR form;
- the free rows the boundary data touch, with a table of dt f_n* on those
  rows for every step;
- the free-DOF weight rows of the probes;
- the initial state.

It returns the probe histories and the final state.  A step is one sparse
matrix-vector product with the explicit matrix, an update of the few load
rows, one banded back-substitution and one short dot product per probe.
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
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .assembly import Field, ProbeRow, SemiDiscreteSystem, probe_row
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
        if self.dt <= 0.0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.n_steps}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


class FactorizationError(RuntimeError):
    """Singular implicit matrix; pivot is the 1-based failing index."""

    def __init__(self, pivot: int):
        super().__init__(f"banded LU factorization failed at pivot {pivot}")
        self.pivot = pivot


@dataclass
class BandedFactorization:
    """LU factors of the equilibrated (A + dt theta B) plus cached helpers.

    Temperature and flux rows differ in scale by many orders of magnitude in
    strongly nonlocal regimes, so the implicit matrix is equilibrated before
    factorization: row scales r and column scales c bring every row and
    column to unit max-norm, and the back-substitution undoes them.
    """

    lu: np.ndarray
    ipiv: np.ndarray
    kl: int
    ku: int
    dim: int
    m_expl: object
    row_scale: np.ndarray
    col_scale: np.ndarray


def build_factorization(sys: SemiDiscreteSystem, scheme: ThetaScheme) -> BandedFactorization:
    kl = ku = sys.half_bandwidth
    dim = sys.dim
    m_impl = (sys.A + scheme.dt * scheme.theta * sys.B).tocoo()
    row, col, data = m_impl.row, m_impl.col, m_impl.data.copy()
    r = np.zeros(dim)
    np.maximum.at(r, row, np.abs(data))
    if np.any(r == 0.0):
        raise FactorizationError(int(np.argmin(r > 0.0)) + 1)
    r = 1.0 / r
    data *= r[row]
    c = np.zeros(dim)
    np.maximum.at(c, col, np.abs(data))
    c = np.where(c > 0.0, 1.0 / c, 1.0)
    data *= c[col]
    # LAPACK general-band layout: entry (i, j) lives at ab[kl + ku + i - j, j],
    # with kl extra rows of factorization workspace on top.
    ab = np.zeros((2 * kl + ku + 1, dim), order="F")
    ab[kl + ku + row - col, col] = data
    lu, ipiv, info = dgbtrf(ab, kl, ku)
    if info > 0:
        raise FactorizationError(int(info))
    if info < 0:
        raise RuntimeError(f"illegal argument {-info} in banded factorization")
    m_expl = (sys.A - scheme.dt * (1.0 - scheme.theta) * sys.B).tocsr()
    return BandedFactorization(
        lu=lu, ipiv=ipiv, kl=kl, ku=ku, dim=dim, m_expl=m_expl,
        row_scale=r, col_scale=c,
    )


def _back_substitute(fact: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    scaled = (fact.row_scale * rhs).reshape(-1, 1)
    x, info = dgbtrs(fact.lu, fact.kl, fact.ku, scaled, fact.ipiv)
    if info != 0:
        raise RuntimeError(f"banded back-substitution failed with info {info}")
    return fact.col_scale * x[:, 0]


@dataclass
class TransientSolution:
    """Probe histories on the uniform time grid, plus the final state."""

    times: np.ndarray
    probe_values: np.ndarray
    final_state: np.ndarray
    states: np.ndarray | None = None


@dataclass
class Prepared:
    """A system with what its march needs besides the factorization: the
    probe rows, and the free rows the boundary data touch with dt times the
    step-mean load on them at every step, as an (n_steps, len(load_rows))
    table."""

    system: SemiDiscreteSystem
    probes: list[ProbeRow]
    load_rows: np.ndarray
    loads: np.ndarray


def _step_loads(sys: SemiDiscreteSystem, scheme: ThetaScheme) -> tuple[np.ndarray, np.ndarray]:
    """The free rows the boundary data touch, and dt times the load on them
    per step.

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
    touched = sys.A_fc.any(axis=1) | sys.B_fc.any(axis=1)
    touched[natural_rows] = True
    rows = np.flatnonzero(touched)
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
    return rows, loads


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
    load_rows, loads = _step_loads(sys, scheme)
    return Prepared(system=sys, probes=rows, load_rows=load_rows, loads=loads)


def march(
    fact: BandedFactorization,
    load_rows: np.ndarray,
    loads: np.ndarray,
    probes: Sequence[ProbeRow],
    alpha0: np.ndarray,
    record_states: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The step loop: one step per row of loads, which holds dt f_n* on the
    load rows.  Returns the free part of the probe histories, the final
    state, and every state when record_states is set."""
    alpha = np.array(alpha0, dtype=float, copy=True)
    if alpha.shape != (fact.dim,):
        raise ValueError(f"initial state has shape {alpha.shape}, expected ({fact.dim},)")
    n_steps = len(loads)
    values = np.empty((len(probes), n_steps + 1))
    states = np.empty((n_steps + 1, fact.dim)) if record_states else None
    # The dot product of ProbeRow.evaluate; one matrix product over all
    # probes would sum in another order and move the last bits.
    values[:, 0] = [r.free_w @ alpha[r.free_idx] for r in probes]
    if states is not None:
        states[0] = alpha

    m_expl = fact.m_expl
    for n, load in enumerate(loads):
        rhs = m_expl @ alpha
        rhs[load_rows] += load
        alpha = _back_substitute(fact, rhs)
        values[:, n + 1] = [r.free_w @ alpha[r.free_idx] for r in probes]
        if states is not None:
            states[n + 1] = alpha
    return values, alpha, states


def _solution(
    prepared: Prepared,
    times: np.ndarray,
    values: np.ndarray,
    alpha: np.ndarray,
    states: np.ndarray | None = None,
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
    return TransientSolution(times=times, probe_values=values, final_state=alpha, states=states)


def _solve(
    prepared: Prepared,
    fact: BandedFactorization,
    scheme: ThetaScheme,
    alpha0: np.ndarray,
    record_states: bool = False,
) -> TransientSolution:
    values, alpha, states = march(
        fact, prepared.load_rows, prepared.loads, prepared.probes, alpha0, record_states
    )
    return _solution(prepared, scheme.times, values, alpha, states)


def integrate(
    sys: SemiDiscreteSystem,
    scheme: ThetaScheme,
    alpha0: np.ndarray,
    probes: Sequence[tuple[float, Field]] = (),
    record_states: bool = False,
) -> TransientSolution:
    """Factor once, then march n_steps steps recording the probe values.

    Raises NonFiniteStateError, before marching, when the boundary data of a
    step are not finite, and after it when a probe history or the final
    state is.
    """
    prepared = prepare(sys, scheme, probes)
    fact = build_factorization(sys, scheme)
    return _solve(prepared, fact, scheme, alpha0, record_states)


def integrate_stack(
    members: Sequence[Prepared],
    scheme: ThetaScheme,
) -> list[TransientSolution | FactorizationError | NonFiniteStateError]:
    """March several prepared systems from rest (the zero state) on one time
    grid as a single block-diagonal system, and split the result per member.

    The stack is factored once, with the largest member half-bandwidth, and
    marched once through the same core as integrate: every step is one CSR
    product, one load update and one back-substitution for all members.  The
    band's extra diagonals only ever meet exact zeros, so a member's
    histories are bit for bit those of integrate on its own.

    Failures stay per member.  A singular block is dropped and the rest is
    refactored.  A NaN or infinity in one block reaches every other block
    within one step, because the back-substitution multiplies the band's
    stored zeros by it; so when any member ends non-finite, every member is
    marched again alone, and only the bad ones keep a NonFiniteStateError
    naming their own step.  Returns, in member order, each solution or the
    error that stopped it.
    """
    results: list = [None] * len(members)
    live = list(range(len(members)))
    fact = None
    while live and fact is None:
        systems = [members[k].system for k in live]
        offsets = np.cumsum([0] + [s.dim for s in systems])
        # build_factorization reads no more of a system than these four.
        stack = SimpleNamespace(
            A=sp.block_diag([s.A for s in systems], format="csr"),
            B=sp.block_diag([s.B for s in systems], format="csr"),
            half_bandwidth=max(s.half_bandwidth for s in systems),
            dim=int(offsets[-1]),
        )
        try:
            fact = build_factorization(stack, scheme)
        except FactorizationError as exc:
            # The pivot lies in the first singular block; count it there.
            j = int(np.searchsorted(offsets, exc.pivot - 1, side="right")) - 1
            results[live.pop(j)] = FactorizationError(exc.pivot - int(offsets[j]))
    if fact is None:
        return results
    blocks = [(k, members[k], int(offsets[j])) for j, k in enumerate(live)]
    values, alpha, _ = march(
        fact,
        np.concatenate([m.load_rows + start for _, m, start in blocks]),
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
        for k in live:
            m = members[k]
            try:
                fact = build_factorization(m.system, scheme)
                results[k] = _solve(m, fact, scheme, np.zeros(m.system.dim))
            except NonFiniteStateError as exc:
                results[k] = exc
    return results
