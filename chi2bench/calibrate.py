"""Machine-speed monitor that rescales op latencies to a reference speed.

The benchmark's host is a shared virtual machine whose speed drifts by up
to a factor of two or more for stretches of seconds, with wall time still
equal to CPU time.  While a ``SpeedMonitor`` is active, a SIGALRM timer
runs a short fixed kernel every ``INTERVAL_S`` and records how long it
took.  An op's latency, minus the time spent in those kernels, is then
multiplied by ``REFERENCE_S / median(kernel times within WINDOW_S of the
op)``, which expresses it in seconds at the reference speed.  Set-up time
is rescaled by ``slowdown_now`` right after it.  The kernel does not call
chi2lab, so a change to the library does not move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: kernel time on the reference machine (2-vCPU Xeon VM, Python 3.11,
#: numpy 2.4) when it is not slowed; it only sets the unit of rescaled times
REFERENCE_S = 2.4e-4
INTERVAL_S = 0.05
WINDOW_S = 0.25

_DIM = 6


def _matrix() -> np.ndarray:
    rng = np.random.default_rng(20170101)
    g = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
    return (g + g.conj().T) / 2.0


_M = _matrix()


def kernel():
    """One cyclic Jacobi sweep on a fixed 6x6 Hermitian matrix: the mix of
    interpreter work and tiny numpy operations that dominates chi2lab's
    hot paths."""
    a = _M.copy()
    for p in range(_DIM - 1):
        for q in range(p + 1, _DIM):
            apq = a[p, q]
            r = abs(apq)
            phase = apq / r
            tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
            t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
            t = t if tau >= 0.0 else -t
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            row_p = c * a[p, :] - s * phase * a[q, :]
            row_q = s * np.conj(phase) * a[p, :] + c * a[q, :]
            a[p, :] = row_p
            a[q, :] = row_q
            col_p = c * a[:, p] - s * np.conj(phase) * a[:, q]
            col_q = s * phase * a[:, p] + c * a[:, q]
            a[:, p] = col_p
            a[:, q] = col_q


def slowdown_now(runs: int = 9) -> float:
    """Median kernel time over ``runs`` back-to-back runs, over REFERENCE_S."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


class SpeedMonitor:
    """Samples the kernel's time on a timer; use as a context manager."""

    def __init__(self):
        self.stamps: list[float] = []  # kernel start times
        self.times: list[float] = []  # kernel durations
        self.spent = 0.0  # total seconds inside the timer handler
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append(start)
        self.times.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end], over REFERENCE_S."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        window = self.times[lo:hi] or self.times[max(lo - 1, 0):lo + 1]
        return statistics.median(window) / REFERENCE_S
