"""A fixed reference kernel that gauges how fast this machine runs right now.

Other processes on a shared host slow the benchmark by up to 2x, for
seconds to minutes at a time, and they slow a whole run as much as any one
repetition of it.  So run.py times this kernel right before and right after
every unit of timed work (Gauge), and scales the unit's time by
NOMINAL_NS / (mean kernel time around it): the reported times are those of
a machine on which the kernel takes NOMINAL_NS.

The kernel does the same kind of work as a filter step (a Python loop over
sigma points, each doing small numpy products and an SO(3) exponential,
then a Cholesky factorization and solve through scipy), so the load that
slows the filter slows it alike.  It uses nothing from manifold_ukf: a
change to the package under test leaves it alone, and so leaves the scale
alone.
"""

import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# The kernel's time on an idle 2-core x86-64 box (Python 3.11, numpy 2.4,
# scipy 1.17), fastest of many.  Fixed: it only sets the unit of the
# reported times, and must be the same for every commit that is compared.
NOMINAL_NS = 8.7e6

_D = 9
_SWEEPS = 12
_CHUNKS = 3


def _hat(w):
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0x6361)
        a = rng.standard_normal((_D, _D))
        self.cov = a @ a.T / _D + np.eye(_D)
        self.v = rng.standard_normal(3)
        self.weights = np.full(2 * _D, 1.0 / (2 * _D))

    def _sweep(self):
        chol = np.linalg.cholesky(self.cov)
        points = []
        for sign in (1.0, -1.0):
            for i in range(_D):
                w = sign * 0.1 * chol[i, :3]
                th = float(np.sqrt(w @ w))
                k = _hat(w)
                r = (np.eye(3) + (np.sin(th) / th) * k
                     + ((1.0 - np.cos(th)) / th**2) * (k @ k))
                points.append(np.concatenate([r @ self.v, chol[i, 3:] * sign]))
        x = np.array(points)
        mean = self.weights @ x
        dev = x - mean
        cov = (self.weights[:, None] * dev).T @ dev + 1e-3 * np.eye(_D)
        return cho_solve(cho_factor(cov[:3, :3]), mean[:3])

    def time_ns(self):
        """_CHUNKS times the median time of a chunk of _SWEEPS sweeps: a
        burst of other load that hits one chunk drops out."""
        chunks = []
        for _ in range(_CHUNKS):
            t0 = time.perf_counter_ns()
            for _ in range(_SWEEPS):
                self._sweep()
            chunks.append(time.perf_counter_ns() - t0)
        return _CHUNKS * statistics.median(chunks)


class Gauge:
    """Times the kernel between units of timed work."""

    def __init__(self):
        self.kernel = Kernel()
        self.samples = [self.kernel.time_ns()]

    def scale(self):
        """The factor that takes the unit run since the last sample to the
        kernel's nominal speed: nominal over the mean kernel time around
        it."""
        self.samples.append(self.kernel.time_ns())
        return NOMINAL_NS / ((self.samples[-2] + self.samples[-1]) / 2)


# Set-up time is mostly imports, which the kernel above tracks poorly: in a
# busy spell the kernel slowed 1.9x while set-up slowed 1.5x.  Its gauge is
# a fresh process importing numpy and scipy.stats, most of what importing
# manifold_ukf costs, with nominal time IMPORT_NOMINAL_S (the fastest seen
# on the same idle box).
IMPORT_NOMINAL_S = 0.83
_IMPORT = ("import time; t0 = time.perf_counter(); import numpy, scipy.stats; "
           "print(time.perf_counter() - t0)")


def import_s():
    out = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)
