"""Time signals with a closed-form running integral.

Both time steppers load every step with the exact mean of the boundary data
over that step, which conserves the supplied energy to machine precision
however fast the data varies within a step.  The means come from differences
of the running integral, so a TimeFunction bundles the value with its
closed-form integral instead of leaving quadrature to the consumer.

A signal's value and integral take a float or an ndarray of times and return
a result of that shape, so on_grid samples a signal on a whole time grid in
one call per part.  Closed forms built on numpy's exp carry a platform
dependence: numpy picks its exp kernel by CPU features, and libm need not
match it, so pulse data can differ by an ulp between machines.

NonFiniteStateError lives here, with the boundary data, because both time
steppers raise it: the element solver and the finite difference oracle, which
must not import the element solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

FloatOrArray = Union[float, np.ndarray]


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
    """A scalar signal t -> value(t) with its running integral.

    integral(t) must return the definite integral from 0 to t, so that
    integral(0) == 0 and per-step averages follow from differences.  Both
    accept a float or an ndarray of times and return a result of that
    shape; the ulp caveat of the module docstring applies to their values.
    """

    value: Callable[[FloatOrArray], FloatOrArray]
    integral: Callable[[FloatOrArray], FloatOrArray]

    def average(self, t0: float, t1: float) -> float:
        """Exact mean value over [t0, t1] via the running integral."""
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
        return (self.integral(t1) - self.integral(t0)) / (t1 - t0)

    def shifted(self, offset: float) -> "TimeFunction":
        """The signal plus a constant: integral plus offset * t."""
        return TimeFunction(
            value=lambda t: self.value(t) + offset,
            integral=lambda t: self.integral(t) + offset * t,
        )


def constant(value: float) -> TimeFunction:
    return TimeFunction(
        value=lambda t: np.full(np.shape(t), value, dtype=float),
        integral=lambda t: value * t,
    )


ZERO = constant(0.0)


def on_grid(signals: Sequence[TimeFunction], times: np.ndarray, part: str) -> np.ndarray:
    """One part ("value" or "integral") of every signal at
    every time, as a (len(times), len(signals)) array, from one call per
    signal on the whole grid.  Data that overflow come out inf or NaN,
    without a warning, for the callers' finiteness checks to report by
    step."""
    out = np.empty((times.size, len(signals)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, signal in enumerate(signals):
            out[:, j] = getattr(signal, part)(times)
    return out


def step_averages(signals: Sequence[TimeFunction], times: np.ndarray) -> np.ndarray:
    """Mean of every signal over every step [times[n], times[n + 1]], as a
    (len(times) - 1, len(signals)) array, with the arithmetic of
    TimeFunction.average but one running-integral evaluation per time."""
    running = on_grid(signals, times, "integral")
    with np.errstate(over="ignore", invalid="ignore"):
        return (running[1:] - running[:-1]) / (times[1:] - times[:-1])[:, None]
