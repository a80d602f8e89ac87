"""Host speed: a fixed kernel timed between ops, to report times at one reference speed.

A shared host runs the same code at changing speeds: it switches between a
fast and a slow state (about 1.5x apart), for seconds to minutes at a time.
Timed alone, a run's figures follow the share of slow time more than the
code.  So the loop times this kernel every ``EVERY_S`` seconds between ops,
and each op's latency is scaled by ``REFERENCE_S`` over the median kernel
time within ``WINDOW_S`` of the op.  The kernel uses no snmlkit, only the
code snmlkit's time goes to (Python callbacks under scipy's adaptive
quadrature, ``math`` special functions and small numpy arrays), so a change
to snmlkit moves the ops and not the kernel.

Scaled times read as the time on a host where the kernel takes
``REFERENCE_S``.  On the 2-core machine the baseline was taken on it took
0.8 ms in the fast state and 1.25 ms in the slow one.  Over 150 s of the
same predict-cold round on that machine, 10 s means of op latency varied
by 11% (coefficient of variation) unscaled and by 2% scaled.

Start-up is import work, which the host's state slows less than the
kernel, so set-up is scaled by a reference start instead: a fresh
interpreter that imports the third-party modules snmlkit imports
(``REFERENCE_IMPORTS``), timed just before each set-up start.  Scaled
set-up times read as the time on a host where that start takes
``REFERENCE_IMPORT_S``.  On that machine, with the other core idle, busy
and idle again, set-up over the reference start read 1.216, 1.221 and
1.221, against 1.33, 1.46 and 1.15 scaled by the kernel.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy import integrate

REFERENCE_S = 1.0e-3
EVERY_S = 0.2
WINDOW_S = 1.5
MIN_SAMPLES = 5
REFERENCE_IMPORTS = ("numpy", "scipy.integrate", "scipy.interpolate", "scipy.special", "sympy")
REFERENCE_IMPORT_S = 1.0


def _integrand(x: float, scale: float) -> float:
    return math.exp(-0.5 * x * x / scale) * math.log1p(x * x)


def kernel() -> float:
    total = 0.0
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        total += integrate.quad(_integrand, -math.inf, math.inf, args=(scale,))[0]
    total += math.fsum(math.lgamma(1.0 + k / 7.0) for k in range(500))
    grid = np.linspace(0.1, 4.0, 64)
    for _ in range(80):
        total += float(np.log1p(grid).sum())
    return total


class HostSpeed:
    """Kernel times with their start times, and the scale factor they give at any moment."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            began = time.perf_counter()
            kernel()
            self.starts.append(began)
            self.durations.append(time.perf_counter() - began)
            self._last = began

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time near ``at`` (the nearest MIN_SAMPLES if few are near)."""
        lo = bisect.bisect_left(self.starts, at - WINDOW_S)
        hi = bisect.bisect_right(self.starts, at + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - at))[:MIN_SAMPLES]
            near = [self.durations[i] for i in nearest]
        else:
            near = self.durations[lo:hi]
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.durations)
