"""A fixed reference kernel that tracks how fast the shared host runs right now.

On a shared 2-core host the whole machine switches between fast and slow
phases (up to 2x) lasting from a second to minutes; every kernel slows,
pure Python and LAPACK alike.  A benchmark run that falls into a slow phase
reads slow whatever estimator it uses over its own calls.  The end-to-end
run therefore times this kernel just before and just after each workload
call.  The kernel uses none of hpheat and its inputs are fixed, so its time
changes only with the host, never with the program under test.

The kernel is a loop of short numpy calls on small arrays: products,
element-wise arithmetic, concatenation, reductions, a 12x12 solve, a sort
and a search.  Like the workloads' per-step code, its time goes to
interpreter and numpy call overhead rather than to arithmetic, and slow
phases slow such code more than they slow tight loops or large array
passes.  One pass takes about 18 ms on an idle host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ITERATIONS = 700
VECTORS = 8
LENGTH = 40
SYSTEM = 12
# About the fastest pass seen on a 2-core Intel Xeon host (Python 3.11,
# numpy 2.4).  A constant, so that a slow phase that spans a whole run
# cannot rescale the result.
REFERENCE_SECONDS = 0.018


class Reference:
    """The reference kernel with its fixed inputs, built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vectors = [rng.standard_normal(LENGTH) for _ in range(VECTORS)]
        self.matrix = rng.standard_normal((SYSTEM, SYSTEM)) + SYSTEM * np.eye(SYSTEM)

    def _pass(self) -> float:
        total = 0.0
        for i in range(ITERATIONS):
            a = self.vectors[i % VECTORS]
            b = self.vectors[(i + 3) % VECTORS]
            c = np.dot(a, b)
            d = a * b + c
            e = np.concatenate((a[:10], d[5:15]))
            x = np.linalg.solve(self.matrix, a[:SYSTEM])
            total += np.sum(e) + np.max(d) + x[0]
            total += np.searchsorted(np.sort(a), 0.0) + np.where(a > 0, a, -a).mean()
        return total

    def time(self) -> float:
        """Wall seconds of one pass of the kernel."""
        start = time.perf_counter()
        self._pass()
        return time.perf_counter() - start


class Clock:
    """Times workload calls in reference passes.

    `begin()` and `end()` bracket one call; `lap()`, called by the workload
    between the phases of a long call, closes one segment and opens the
    next.  Every segment boundary gets a reference pass, which is not part
    of any segment, and the pass that ends one call also begins the next.
    A segment's ratio is its time over the mean of the passes at its two
    ends, and a call's ratio is the sum over its segments: its time in
    reference passes, whatever phase the host was in.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.passes: list[float] = []
        self._last: float | None = None
        self._start = 0.0
        self._seconds = 0.0
        self._ratio = 0.0

    def _pass(self) -> float:
        self._last = self.reference.time()
        self.passes.append(self._last)
        return self._last

    def begin(self) -> None:
        if self._last is None:
            self._pass()
        self._seconds = self._ratio = 0.0
        self._start = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._start
        before = self._last
        after = self._pass()
        self._seconds += elapsed
        self._ratio += elapsed / (0.5 * (before + after))
        self._start = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """(seconds, ratio) of the call that `begin()` opened."""
        self.lap()
        return self._seconds, self._ratio


def normalized(ratios: list[float]) -> float:
    """The median call ratio in seconds of an idle host."""
    return statistics.median(ratios) * REFERENCE_SECONDS
