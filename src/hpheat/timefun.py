"""Time signals with analytic derivative and running integral.

Boundary data enters the semi-discrete system both directly and, for
essential flux constraints, through its time derivative.  Exact per-step
averages of the load (used by the time integrator to conserve the supplied
energy to machine precision) additionally need the running integral.  A
TimeFunction therefore bundles all three as closed-form callables instead of
leaving differentiation and quadrature to the consumer.

NonFiniteStateError lives here, with the boundary data, because both time
steppers raise it: the element solver and the finite difference oracle, which
must not import the element solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NonFiniteStateError(RuntimeError):
    """Boundary data or a marched state that is not finite.

    step k names the step from t_(k-1) to t_k, the first whose data or
    result is not finite; step 0 is the initial state.
    """

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass(frozen=True)
class TimeFunction:
    """A scalar signal t -> value(t) with its derivative and running integral.

    integral(t) must return the definite integral from 0 to t, so that
    integral(0) == 0 and per-step averages follow from differences.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    integral: Callable[[float], float]

    def average(self, t0: float, t1: float) -> float:
        """Exact mean value over [t0, t1] via the running integral."""
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
        return (self.integral(t1) - self.integral(t0)) / (t1 - t0)

    def shifted(self, offset: float) -> "TimeFunction":
        """The signal plus a constant: same derivative, integral plus offset * t."""
        return TimeFunction(
            value=lambda t: self.value(t) + offset,
            derivative=self.derivative,
            integral=lambda t: self.integral(t) + offset * t,
        )


def constant(value: float) -> TimeFunction:
    return TimeFunction(
        value=lambda t: value,
        derivative=lambda t: 0.0,
        integral=lambda t: value * t,
    )


ZERO = constant(0.0)


def on_grid(signals: Sequence[TimeFunction], times: np.ndarray, part: str) -> np.ndarray:
    """One part ("value", "derivative" or "integral") of every signal at
    every time, as a (len(times), len(signals)) array."""
    out = np.empty((times.size, len(signals)))
    for j, signal in enumerate(signals):
        out[:, j] = np.fromiter(map(getattr(signal, part), times), float, times.size)
    return out


def step_averages(signals: Sequence[TimeFunction], times: np.ndarray) -> np.ndarray:
    """Mean of every signal over every step [times[n], times[n + 1]], as a
    (len(times) - 1, len(signals)) array, with the arithmetic of
    TimeFunction.average but one running-integral evaluation per time."""
    running = on_grid(signals, times, "integral")
    return (running[1:] - running[:-1]) / (times[1:] - times[:-1])[:, None]
