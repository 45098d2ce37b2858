"""A fixed reference kernel, sampled while a pass runs, to express time in its units.

On a shared 2-vCPU cloud VM the same pass takes 13 s one minute and 20 s a
few minutes later: the host's load changes how fast every instruction runs, at
every time scale from milliseconds to minutes. No statistic over one run's
passes removes a slow phase that lasts the whole run. What does remove it
is timing, at the same moments, a piece of work that never changes.

:class:`Pacer` interrupts the pass every ``INTERVAL_S`` seconds (SIGALRM,
handled between bytecodes of the main thread) and times one
:func:`sweep`: a Riccati-style backward sweep over a few steps of 6x6
blocks, the same kind of work as the solver's per-step loops (small numpy
products, a Cholesky, two solves, fancy-indexed updates), so a slow phase
of the host slows both alike. Its samples are spread evenly over the
pass's time, so the mean of ``1 / sweep_time`` is the pass's average pace
in sweeps per second, and ``program_seconds * pace`` is the pass's length
in sweeps (unit ``ref``): the number a faster program lowers and a slow
host does not move. A solve inside the pass is paced the same way, by the
samples taken while it ran.

The time spent in sweeps is taken out of every interval measured with
:meth:`Pacer.clock`, so the program's own time is what gets scaled.

The kernel and its inputs are frozen. Changing them changes the unit of
every ``*_ref`` metric, so results from before and after would not compare.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.03
# Sweeps per second that ``setup_s`` is converted at: about this VM's pace.
NOMINAL_PACE = 1000.0
# An interval shorter than MIN_SAMPLES sampling periods is paced by the
# MIN_SAMPLES samples around its middle.
MIN_SAMPLES = 4
STEPS = 16
N = 3


def _inputs():
    rng = np.random.default_rng(20240507)
    dim = 2 * N
    ti = np.arange(N) * 2
    pj = ti + 1
    f_x = np.zeros((STEPS, dim, dim))
    f_x[:, ti, ti] = 1.0
    f_x[:, ti, pj] = 0.1
    f_x[:, pj, pj] = 1.0 + 0.01 * rng.standard_normal((STEPS, N))
    f_u = np.zeros((STEPS, dim, N))
    f_u[:, pj, np.arange(N)] = 0.01
    return {
        "f_x": f_x,
        "f_u": f_u,
        "lx": rng.standard_normal((STEPS, dim)),
        "lu": rng.standard_normal((STEPS, N)),
        "lxx": np.broadcast_to(np.eye(dim), (STEPS, dim, dim)).copy(),
        "luu": np.broadcast_to(np.eye(N), (STEPS, N, N)).copy(),
        "lux": np.zeros((STEPS, N, dim)),
    }


_IN = _inputs()


def sweep() -> float:
    """One backward sweep of the frozen problem; returns a checksum."""
    f_x, f_u = _IN["f_x"], _IN["f_u"]
    lx, lu, lxx, luu, lux = _IN["lx"], _IN["lu"], _IN["lxx"], _IN["luu"], _IN["lux"]
    ti = np.arange(N) * 2
    pj = ti + 1
    ai = np.arange(N)
    eye_n = np.eye(N)
    a_val = np.eye(2 * N)
    b_val = np.zeros(2 * N)
    ff = np.empty((STEPS, N))
    for k in range(STEPS - 1, -1, -1):
        fx = f_x[k]
        fu = f_u[k]
        a_fx = a_val @ fx
        q_x = lx[k] + fx.T @ b_val
        q_u = lu[k] + fu.T @ b_val
        q_xx = lxx[k] + fx.T @ a_fx
        q_uu = luu[k] + fu.T @ (a_val @ fu)
        q_ux = lux[k] + fu.T @ a_fx
        q_xx[pj, pj] += b_val[pj] * 1e-3
        q_ux[ai, pj] += b_val[pj] * 1e-3
        q_uu = 0.5 * (q_uu + q_uu.T) + 1e-6 * eye_n
        np.linalg.cholesky(q_uu)
        gain = -np.linalg.solve(q_uu, q_ux)
        ff[k] = -np.linalg.solve(q_uu, q_u)
        b_val = q_x + gain.T @ q_uu @ ff[k] + gain.T @ q_u + q_ux.T @ ff[k]
        a_val = q_xx + gain.T @ q_uu @ gain + gain.T @ q_ux + q_ux.T @ gain
        a_val = 0.5 * (a_val + a_val.T)
    return float(ff.sum())


def timed_sweeps(count: int) -> list:
    """Seconds for each of ``count`` back-to-back sweeps (the calibration loop)."""
    samples = []
    for _ in range(count):
        tic = time.perf_counter()
        sweep()
        samples.append(time.perf_counter() - tic)
    return samples


class Pacer:
    """Samples :func:`sweep` during a pass and keeps a clock that skips the samples."""

    def __init__(self):
        self.paused_s = 0.0  # total seconds spent in sweeps so far
        self.samples: list[float] = []
        self.stamps: list[float] = []  # clock() when each sample started
        self._saved = None

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in sweeps."""
        return time.perf_counter() - self.paused_s

    def _sample(self, signum, frame):
        tic = time.perf_counter()
        sweep()
        elapsed = time.perf_counter() - tic
        self.stamps.append(tic - self.paused_s)
        self.samples.append(elapsed)
        self.paused_s += elapsed

    def start(self) -> None:
        self.samples = []
        self.stamps = []
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def pace(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Sweeps per second between two ``clock()`` readings of the last pass.

        The host's speed changes within a second, so a solve is paced by
        the samples taken while it ran, not by the whole pass's.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.stamps, 0.5 * (start + end))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.stamps) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        inside = self.samples[lo:hi]
        return sum(1.0 / s for s in inside) / len(inside)
