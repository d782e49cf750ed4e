"""Staggered finite-difference oracle, independent of the element machinery.

This module exists to cross-check the element solver, so it deliberately
shares no discretization code with it: temperatures live at cell centers,
fluxes at cell faces, and all spatial coupling is by central differences.
The boundary faces carry the prescribed flux data directly, which is the
finite-difference analogue of how the mixed weak form takes flux data.

Unknowns per step are the m cell temperatures and the m - 1 interior face
fluxes.  The semi-discrete system

    M dz/dt + K z + b_l q_left(t) + b_r q_right(t) = 0

is stepped by the same theta family as the element solver, loaded with the
same exact step means of the boundary data, so that time discretization
differences never pollute the comparison.

fd_solve does not factor the whole theta matrix.  With a = theta dt and
z = [T; q], that matrix is [[C, E], [F, H]] with C = rho c_v I diagonal,
E = a D (D the cell divergence of the face fluxes) and F = -a lam D^T.
Because C is diagonal, taking F C^-1 times the temperature rows from the flux
rows eliminates T exactly, without pivoting or fill-in, and leaves

    S = H - F C^-1 E = (tau + a) I + (a kappa2 + a^2 lam / (rho c_v)) L

in the flux rows, with L = D^T D the (2, -1) / dx^2 Laplacian on the interior
faces.  S is symmetric positive definite tridiagonal, so it is factored once
with LAPACK dpttrf; a step is one dpttrs solve for q and one diagonal
division for T.  The same row operation is applied once to the explicit
matrix and the boundary columns.  Everything is formed from the assembled
blocks, so S rounds its coefficients as the full matrix does, and only
roundoff changes: the tests hold the histories within 1e-12 of a dense solve
of the full system.  The roundoff grows as the margin tau + a shrinks against
the Laplacian part: for Fourier at 2000 cells the histories are 1.5e-11 from
a refined solve, against 1.1e-13 for SuperLU on the full matrix.

The step's two sparse products call scipy's CSR kernel csr_matvec itself,
into zeroed outputs: the call that `@` ends in, with the same bits, without
scipy's dispatch around it.  It comes from scipy.sparse._sparsetools, a
private scipy module; the test
test_the_private_kernel_is_bitwise_the_public_product (tests/test_fdoracle.py)
holds it bit for bit to `@`.

The oracle keeps this stepper of its own instead of the element solver's in
timeint: criterion 7 is an independent check only while a fault in timeint
cannot show up in both solvers.  fd_step, one backward Euler step for the
tests, solves the full system with SuperLU.  It stays, with the splu import,
while the benchmark harness still resolves hpheat.fdoracle.splu by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .materials import MaterialParams
from .timefun import NonFiniteStateError, TimeFunction, on_grid, step_averages

# Steps whose probe entries fd_solve gathers before it interpolates them.
_BLOCK_STEPS = 128


@dataclass
class StaggeredGrid:
    """State on a uniform staggered grid: T at m centers, q at m + 1 faces."""

    length: float
    T: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        if self.q.size != self.T.size + 1:
            raise ValueError("face array must have one more entry than the cell array")
        if self.T.size < 3:
            raise ValueError("need at least three cells")

    @property
    def cells(self) -> int:
        return self.T.size

    @property
    def dx(self) -> float:
        return self.length / self.cells


def _operator(cells: int, dx: float, mat: MaterialParams):
    """Mass diagonal, stiffness matrix and boundary-data columns for z = [T; q_int]."""
    m = cells
    dim = 2 * m - 1
    mass = np.empty(dim)
    mass[:m] = mat.rho * mat.c_v
    mass[m:] = mat.tau
    b_left = np.zeros(dim)
    b_right = np.zeros(dim)
    cell = np.arange(m)
    face = np.arange(1, m)  # interior faces j
    r = m + face - 1  # their flux rows

    # Energy balance per cell: rho c_v dT_i/dt + (q_{i+1} - q_i) / dx = 0.
    terms = [
        (cell[:-1], m + cell[:-1], 1.0 / dx),
        (cell[1:], m + cell[1:] - 1, -1.0 / dx),
    ]
    # The boundary faces' fluxes are data, so their terms go to the boundary
    # columns, added into zeros: kappa2 = 0 leaves +0.0 there, not -0.0.
    b_right[m - 1] += 1.0 / dx
    b_left[0] += -1.0 / dx

    # Flux law per interior face j: tau dq_j/dt + q_j
    #   + lam (T_j - T_{j-1}) / dx - kappa2 (q_{j+1} - 2 q_j + q_{j-1}) / dx^2 = 0.
    lam_dx = mat.conductivity / dx
    k_dx2 = mat.kappa2 / dx**2
    terms += [
        (r, r, 1.0 + 2.0 * k_dx2),
        (r, face, lam_dx),
        (r, face - 1, -lam_dx),
        (r[:-1], m + face[:-1], -k_dx2),
        (r[1:], m + face[1:] - 2, -k_dx2),
    ]
    b_right[-1] += -k_dx2
    b_left[m] += -k_dx2

    rows, cols, vals = zip(*((i, j, np.full(i.size, v)) for i, j, v in terms))
    stiff = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    return mass, stiff, b_left, b_right


def fd_step(
    grid: StaggeredGrid,
    mat: MaterialParams,
    dt: float,
    q_left: float,
    q_right: float,
) -> StaggeredGrid:
    """One backward Euler step with the boundary fluxes at the new time level.

    Like fd_solve, it steps the temperature relative to a uniform background,
    here the first cell's value: a uniform temperature is an exact
    equilibrium, so the background only costs roundoff inside the solve.
    """
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    m = grid.cells
    mass, stiff, b_left, b_right = _operator(m, grid.dx, mat)
    background = grid.T[0]
    z0 = np.concatenate((grid.T - background, grid.q[1:-1]))
    lhs = sp.diags(mass) + dt * stiff
    rhs = mass * z0 - dt * (b_left * q_left + b_right * q_right)
    z1 = splu(lhs.tocsc()).solve(rhs)
    q_new = np.empty(m + 1)
    q_new[0] = q_left
    q_new[-1] = q_right
    q_new[1:-1] = z1[m:]
    return StaggeredGrid(length=grid.length, T=z1[:m] + background, q=q_new)


def _temperature_probe_weights(
    cells: int, dx: float, xs: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Linear two-point rules on cell centers, extrapolating at the ends:
    T(x) = (1 - w) T[i] + w T[i + 1], as the arrays (i, w) over xs."""
    s = (np.asarray(xs, dtype=float) - 0.5 * dx) / dx
    i = np.clip(np.floor(s).astype(int), 0, cells - 2)
    return i, s - i


@dataclass
class FdSolution:
    """Probe histories and final grid.  temperature_rise holds the marched
    histories of T - T0; temperature_probes and final.T are absolute."""

    times: np.ndarray
    temperature_probes: dict[float, np.ndarray]
    flux_probes: dict[float, np.ndarray]
    final: StaggeredGrid
    temperature_rise: dict[float, np.ndarray]


def fd_solve(
    mat: MaterialParams,
    length: float,
    initial_temperature: float,
    q_left: TimeFunction,
    q_right: TimeFunction,
    cells: int,
    dt: float,
    n_steps: int,
    theta: float = 0.5,
    probe_temperatures: tuple[float, ...] = (),
    probe_fluxes: tuple[float, ...] = (),
) -> FdSolution:
    """Theta-stepped staggered solve recording probe histories.

    Every step is loaded with the exact mean of the boundary fluxes over it.
    Temperature probes interpolate (or extrapolate, at the faces) linearly
    between cell centers; flux probes snap to the nearest face and read the
    boundary data when that face is a boundary.  Probe points outside
    [0, length], beyond the 1e-12 * length tolerance of probe_row, and a
    cell width whose square overflows raise ValueError before marching.

    As in the element solver, the unknown is the rise T - T0 over the
    uniform initial temperature, so the millikelvin signal is not rounded at
    the last place of a 293 K background every step.  A uniform temperature
    with zero flux is an exact equilibrium of the staggered system, so the
    rise starts from zero; T0 is added once, after the loop.

    Precision limit: the march solves the flux Schur complement S, whose
    margin tau + a is tiny against its Laplacian part in the stiff Fourier
    regime, and there it loses about two digits against a solve of the
    full matrix.  At dt lam / (rho c_v dx^2) = 2.3e5 (2000 cells, 2000 steps,
    theta 1) the probe histories are 1.5e-11 relative from a refined
    reference, where SuperLU on the full matrix reached 1.1e-13.  Criterion
    7 runs no Fourier case.

    Raises NonFiniteStateError, before marching, when the boundary data of a
    step are not finite, and after it when a probe history or the final
    state is.
    """
    if not 0.0 < length < np.inf:
        raise ValueError(f"domain length must be finite and positive, got {length}")
    if cells < 3:
        raise ValueError(f"need at least three cells, got {cells}")
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must be in [1/2, 1], got {theta}")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"time step must be finite and positive, got {dt}")
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got {n_steps}")
    tol = 1e-12 * length
    for x in (*probe_temperatures, *probe_fluxes):
        if not -tol <= x <= length + tol:
            raise ValueError(f"probe point {x} outside the domain [0, {length}]")

    m = cells
    dx = length / m
    if not np.isfinite(dx * dx):
        raise ValueError(f"cell width length / cells = {length} / {cells} squares to inf")
    mass, stiff, b_left, b_right = _operator(m, dx, mat)
    lhs = (sp.diags(mass) + dt * theta * stiff).tocsr()
    m_expl = (sp.diags(mass) - dt * (1.0 - theta) * stiff).tocsr()
    # lhs = [[C, E], [F, H]]: eliminate T from the flux rows (module docstring).
    c = mass[:m]
    e_block = lhs[:m, m:]
    f_c = lhs[m:, :m] @ sp.diags(1.0 / c)
    schur = lhs[m:, m:] - f_c @ e_block
    ldl_d, ldl_e, info = dpttrf(schur.diagonal(), schur.diagonal(1))
    if info != 0:
        raise RuntimeError(f"flux Schur complement is not positive definite (info {info})")
    m_fold = sp.vstack((m_expl[:m], m_expl[m:] - f_c @ m_expl[:m])).tocsr()
    b_fold = np.column_stack((b_left, b_right))
    b_fold[m:] -= f_c @ b_fold[:m]

    t_cell, t_w = _temperature_probe_weights(m, dx, probe_temperatures)
    q_faces = np.clip(np.rint(np.asarray(probe_fluxes, dtype=float) / dx).astype(int), 0, m)
    q_rows = np.clip(q_faces - 1, 0, m - 2)

    times = np.arange(n_steps + 1) * dt
    t_hist = np.zeros((len(probe_temperatures), n_steps + 1))
    q_hist = np.zeros((len(probe_fluxes), n_steps + 1))

    boundary = step_averages((q_left, q_right), times)
    bad = ~np.isfinite(boundary).all(axis=1)
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)) + 1, "boundary data")
    load_rows = np.flatnonzero(b_fold.any(axis=1))
    loads = boundary @ b_fold[load_rows].T
    loads *= dt

    z = np.zeros(2 * m - 1)
    T, q = z[:m], z[m:]
    # Each step gathers the state entries the probes read; they are
    # interpolated a block of steps at a time.
    k = t_cell.size
    at = np.concatenate((t_cell, t_cell + 1, m + q_rows))
    seen = np.empty((min(n_steps, _BLOCK_STEPS), at.size))
    for first in range(0, n_steps, _BLOCK_STEPS):
        block = loads[first:first + _BLOCK_STEPS]
        for load, row in zip(block, seen):
            rhs = np.zeros(z.size)
            csr_matvec(z.size, z.size, m_fold.indptr, m_fold.indices, m_fold.data, z, rhs)
            rhs[load_rows] -= load
            q[:] = dpttrs(ldl_d, ldl_e, rhs[m:])[0]
            div = np.zeros(m)
            csr_matvec(m, q.size, e_block.indptr, e_block.indices, e_block.data, q, div)
            T[:] = (rhs[:m] - div) / c
            z.take(at, out=row, mode="clip")
        done = seen[:len(block)]
        steps = slice(first + 1, first + 1 + len(block))
        t_hist[:, steps] = ((1.0 - t_w) * done[:, :k] + t_w * done[:, k:2 * k]).T
        q_hist[:, steps] = done[:, 2 * k:].T

    # Probes on a boundary face read the data, not the marched fluxes.
    faces = on_grid((q_left, q_right), times, "value")
    for i, j in enumerate(q_faces):
        if j in (0, m):
            q_hist[i] = faces[:, j // m]
    bad = ~np.isfinite(np.vstack((t_hist, q_hist))).all(axis=0)
    bad[-1] |= not np.isfinite(z).all()
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)), "state")

    q_final = np.empty(m + 1)
    q_final[[0, -1]] = faces[-1]
    q_final[1:-1] = q
    t0 = float(initial_temperature)
    final = StaggeredGrid(length=length, T=T + t0, q=q_final)
    rise = dict(zip(probe_temperatures, t_hist))
    return FdSolution(
        times=times,
        temperature_probes={x: r + t0 for x, r in rise.items()},
        flux_probes=dict(zip(probe_fluxes, q_hist)),
        final=final,
        temperature_rise=rise,
    )
