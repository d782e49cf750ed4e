"""Shared pytest wiring: collect acceptance verdict lines and echo them
in the terminal summary, where they survive output capture; boundary data
held constant over each time step, shared by the tests of both time
steppers; boundary data cut to NaN from a given time on, shared by the
tests of non-finite data; and a system with a row of its element blocks
zeroed, shared by the tests of singular systems."""

import math
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
    value where the steppers take differences of the running integral."""
    samples: list[float] = []
    sums = [0.0]

    def sample(j: int) -> float:
        while len(samples) <= j:
            samples.append(signal.value(len(samples) * dt))
        return samples[j]

    def summed(m: int) -> float:
        while len(sums) <= m:
            sums.append(sums[-1] + dt * sample(len(sums)))
        return sums[m]

    def grid_index(t: float) -> tuple[int, bool]:
        s = t / dt
        m = round(s)
        if abs(s - m) <= 1e-9 * max(1.0, abs(s)):
            return m, True
        return math.floor(s), False

    def value(t: float) -> float:
        m, on_grid = grid_index(t)
        return sample(m if on_grid else m + 1)

    def integral(t: float) -> float:
        m, on_grid = grid_index(t)
        if on_grid:
            return summed(m)
        return summed(m) + (t - m * dt) * sample(m + 1)

    return TimeFunction(value, integral)


@pytest.fixture(scope="session")
def held_at_step_ends():
    return _held_at_step_ends


def _nan_from(signal: TimeFunction, t_bad: float) -> TimeFunction:
    """The signal, with value and running integral NaN from t_bad on."""

    def cut(fn):
        return lambda t: fn(t) if t < t_bad else float("nan")

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
