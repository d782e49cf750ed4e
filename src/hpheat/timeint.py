"""One-step implicit time integration with a reusable banded factorization.

The theta scheme applied to A alpha' + B alpha = f(t) reads

    (A + dt theta B) alpha_{n+1} = (A - dt (1 - theta) B) alpha_n + dt f_n*

Everything that does not depend on the state is prepared once per run: the
equilibrated banded LU of the left matrix, the boundary data at every grid
time, the rows of A_fc and B_fc that the data touch, and the evaluation rows
of the probes.  A step is then one sparse matrix-vector product with the
right matrix, an update of the few load rows, one banded back-substitution
and one short dot product per probe; the prescribed part of the probe
values is added on the whole time grid after the loop.

The load is f = natural fluxes - A_fc g' - B_fc g, with g the constrained
values.  f_n* is its exact mean over the step, from the closed-form running
integrals of the boundary data, so the discrete energy balance telescopes
exactly even when the excitation varies fast compared to the step.  The rate
g' is the change between consecutive step means of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
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


def _step_loads(sys: SemiDiscreteSystem, times: np.ndarray):
    """The free rows the boundary data touch, and the load on them per step.

    The data are kept per signal, never as a load table.  Each step reads
    the step means, with the constrained rate taken from the previous step's
    mean (from g(0) at the first step), as SemiDiscreteSystem.load_average
    does.
    """
    natural = sys.natural_free()
    signals = [c.value for c in sys.dofmap.constrained]
    fluxes = [fn for _, _, fn in natural]
    signs = np.array([sign for _, sign, _ in natural])
    natural_rows = np.array([idx for idx, _, _ in natural], dtype=int)
    touched = sys.A_fc.any(axis=1) | sys.B_fc.any(axis=1)
    touched[natural_rows] = True
    rows = np.flatnonzero(touched)
    natural_pos = np.searchsorted(rows, natural_rows)
    a_fc, b_fc = sys.A_fc[rows], sys.B_fc[rows]
    flux = signs * step_averages(fluxes, times)
    value = step_averages(signals, times)
    previous = np.vstack((on_grid(signals, times[:1], "value"), value[:-1]))
    rate = (value - previous) / (times[1:] - times[:-1])[:, None]
    bad = ~np.isfinite(np.hstack((flux, rate, value))).all(axis=1)
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)) + 1, "boundary data")

    def at(n: int) -> np.ndarray:
        f = np.zeros(rows.size)
        f[natural_pos] += flux[n]
        if signals:
            f -= a_fc @ rate[n] + b_fc @ value[n]
        return f

    return rows, map(at, range(len(flux)))


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
    rows: list[ProbeRow] = [probe_row(sys.dofmap, x, fld) for x, fld in probes]
    fact = build_factorization(sys, scheme)
    dt, n_steps = scheme.dt, scheme.n_steps

    times = np.arange(n_steps + 1) * dt
    values = np.empty((len(rows), n_steps + 1))
    states = np.empty((n_steps + 1, sys.dim)) if record_states else None

    alpha = np.array(alpha0, dtype=float, copy=True)
    if alpha.shape != (sys.dim,):
        raise ValueError(f"initial state has shape {alpha.shape}, expected ({sys.dim},)")
    load_rows, loads = _step_loads(sys, times)
    # The dot product of ProbeRow.evaluate; one matrix product over all
    # probes would sum in another order and move the last bits.
    values[:, 0] = [r.free_w @ alpha[r.free_idx] for r in rows]
    if record_states:
        states[0] = alpha

    m_expl = fact.m_expl
    for n, f_rows in enumerate(loads):
        rhs = m_expl @ alpha
        rhs[load_rows] += dt * f_rows
        alpha = _back_substitute(fact, rhs)
        values[:, n + 1] = [r.free_w @ alpha[r.free_idx] for r in rows]
        if record_states:
            states[n + 1] = alpha

    if any(r.cons_idx.size for r in rows):
        prescribed = on_grid([c.value for c in sys.dofmap.constrained], times, "value")
        for i, r in enumerate(rows):
            for pos, w in zip(r.cons_idx, r.cons_w):
                values[i] += w * prescribed[:, pos]
    bad = ~np.isfinite(values).all(axis=0)
    bad[-1] |= not np.isfinite(alpha).all()
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)), "state")

    return TransientSolution(
        times=times,
        probe_values=values,
        final_state=alpha,
        states=states,
    )
