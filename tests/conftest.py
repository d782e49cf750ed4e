"""Shared pytest wiring: collect acceptance verdict lines and echo them
in the terminal summary, where they survive output capture; boundary data
held constant over each time step, shared by the tests of both time
steppers; boundary data cut to NaN from a given time on, shared by the
tests of non-finite data; and a system with a row of its element blocks
zeroed, shared by the tests of singular systems."""

from dataclasses import replace

import numpy as np
import pytest

from hpheat.assembly import SemiDiscreteSystem
from hpheat.timefun import TimeFunction

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    def add(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return add


def _held_at_step_ends(signal: TimeFunction, dt: float) -> TimeFunction:
    """The signal held, over each step (t_(n-1), t_n] of a grid with spacing
    dt, at its sample at the step end t_n.  The exact step mean of such data
    is that sample, so a reference march can load each step with a pointwise
    value where the steppers take differences of the running integral.
    Like every signal, it takes a float or an array of times."""

    def grid_index(t):
        s = np.asarray(t) / dt
        m = np.rint(s)
        on_grid = np.abs(s - m) <= 1e-9 * np.maximum(1.0, np.abs(s))
        return np.where(on_grid, m, np.floor(s)).astype(int), on_grid

    def samples(m) -> np.ndarray:
        """The signal at t_0 .. t_(max(m) + 1), from one call on the grid."""
        return signal.value(np.arange(np.max(m) + 2) * dt)

    def value(t):
        m, on_grid = grid_index(t)
        return samples(m)[np.where(on_grid, m, m + 1)]

    def integral(t):
        m, on_grid = grid_index(t)
        held = samples(m)
        summed = np.concatenate(([0.0], np.cumsum(dt * held[1:])))[m]
        return np.where(on_grid, summed, summed + (t - m * dt) * held[m + 1])

    return TimeFunction(value, integral)


@pytest.fixture(scope="session")
def held_at_step_ends():
    return _held_at_step_ends


def _nan_from(signal: TimeFunction, t_bad: float) -> TimeFunction:
    """The signal, with value and running integral NaN from t_bad on."""

    def cut(fn):
        return lambda t: np.where(np.less(t, t_bad), fn(t), np.nan)

    return TimeFunction(cut(signal.value), cut(signal.integral))


@pytest.fixture(scope="session")
def nan_from():
    return _nan_from


def _zero_row(sys: SemiDiscreteSystem, row: int, columns=None) -> SemiDiscreteSystem:
    """The system with free row `row` of A and B zeroed in every element
    that holds it: the whole row, or only its entries in the free columns
    `columns`."""
    free = sys.dofmap.full_to_free[sys.dofmap.block_dofs]
    a, b = sys.A_blocks.copy(), sys.B_blocks.copy()
    for e, slot in zip(*np.nonzero(free == row)):
        cut = slice(None) if columns is None else np.isin(free[e], columns)
        a[e, slot, cut] = 0.0
        b[e, slot, cut] = 0.0
    return replace(sys, A_blocks=a, B_blocks=b)


@pytest.fixture(scope="session")
def zero_row():
    return _zero_row


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)
