"""Machine-speed calibration for timings on a shared, drifting host.

The speed a process gets on the shared two-core machine this benchmark
was built on drifts by up to 50% over minutes, so the raw wall times of
identical runs a few minutes apart differ by more than a useful
regression bound.  The benchmark therefore times a fixed calibration
kernel throughout a run, between passes and at the scenarios' progress
reports inside them (time that is left out of the pass), and reports

    reported = median(measured) * NOMINAL_S / median(kernel times)

which scales a run on a slowed host back to an idle one.  The kernel is
a small replica of what the workloads spend their time on: an
interpreter loop over 3-vector numpy calls and scalar special functions
(the Monte-Carlo and Green-tensor loops) and a dense LU with repeated
solves (the diffusion eigen-solver).  It imports nothing from the
package, so no change to the program moves it.  Over five runs per
workload it cut the spread of run medians from 16-27% to 5-6% on
analytic-sweeps and cbs-twolevel and left it near 10% on the other two,
where the raw spread was already that low.  Two simpler kernels
(pure-interpreter, and numpy with a small LU) did not track the drift.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import erf, spherical_jn

# Kernel time on a fast, uncontended core of the reference machine
# (x86-64 KVM guest, Python 3.11, numpy 2.4, scipy 1.17, one BLAS
# thread); scaled times read as seconds on that machine at that speed.
NOMINAL_S = 0.010

REPS = 2          # kernel runs per calibration sample
INTERVAL_S = 0.5  # least time between samples taken during a pass


def kernel() -> float:
    rng = np.random.default_rng(12345)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    acc = 0.0
    for i in range(150):
        v = A @ np.array([1.0, 1e-3 * i, 0.5])
        v = v / np.linalg.norm(v)
        acc += math.exp(-float(np.vdot(v, v).real)) + float(erf(1e-3 * i))
        acc += float(spherical_jn(2, 1.0 + 1e-2 * i))
    M = rng.normal(size=(200, 200)) + 200.0 * np.eye(200)
    lu = lu_factor(M)
    x = np.ones(200)
    for _ in range(20):
        x = lu_solve(lu, x)
        x /= np.linalg.norm(x)
    return acc + float(x[0])


class Calibration:
    """Kernel timings collected over one run."""

    def __init__(self):
        self.times = []
        self._last = -math.inf

    def sample(self) -> float:
        """Time REPS kernel runs; return the wall time this took."""
        start = time.perf_counter()
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        return self._last - start

    def sample_if_due(self) -> float:
        """Sample when INTERVAL_S has passed since the last sample, so
        that a long pass is sampled while it runs; return the wall time
        taken, for the caller to leave out of its measurement."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return 0.0
        return self.sample()

    def scale(self, measured) -> float:
        """Median of ``measured`` scaled to the reference machine speed."""
        return statistics.median(measured) * NOMINAL_S \
            / statistics.median(self.times)
