"""Host-speed gauge: a fixed reference kernel, timed every few milliseconds
while the workload runs, to rescale each measured interval to a nominal
host speed.

The benchmark's hosts share their cores with other jobs, and a core's
speed changes by up to 2x within seconds: the same compress sample takes
2.6 s or 5.4 s a minute apart, with its process on the CPU the whole time.
A timer signal interrupts the workload every ``PERIOD_S`` and runs the
kernel in the handler, on the same core, between the workload's own
bytecodes.  An interval's time without the ticks inside it, multiplied by
the kernel's nominal time over its median tick time during the interval,
is the interval's time at the nominal speed.  The kernel is the
benchmark's own code, so a change to the program moves the rescaled time
as much as the raw one.

Two kernels, because contention slows different code by different
amounts: four 64x64 float64 matrix products track the graph search and
LeNet-5 best, and an unoptimised three-operand ``np.einsum``, the loop the
exact curvature recursion spends its time in, tracks that one.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.02
# kernel -> its time when the host ran fast, on the 2-vCPU Xeon (Sapphire
# Rapids) VM the benchmark was tuned on (one thread of OpenBLAS 0.3.31,
# numpy 2.4, Python 3.11).  It only sets the scale of the rescaled times.
NOMINAL_S = {"matmul": 60e-6, "einsum": 270e-6}
# an interval with fewer ticks than this is rated by the last RECENT ticks
MIN_TICKS = 5
RECENT = 50


class Gauge:
    """Context manager that ticks the reference kernel while active."""

    def __init__(self, kernel="matmul"):
        self.nominal_s = NOMINAL_S[kernel]
        self.kernel = getattr(self, f"_{kernel}")
        rng = np.random.default_rng(0)
        self._square = rng.random((64, 64))
        self._w, self._h = rng.random((16, 24)), rng.random((1, 16, 16))
        self.ticks = array("d")
        self._previous = None

    def _matmul(self):
        m = self._square
        for _ in range(4):
            m @ m

    def _einsum(self):
        np.einsum("ji,bjk,kl->bil", self._w, self._h, self._w)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.ticks.append(time.perf_counter() - t0)

    def __enter__(self):
        for _ in range(RECENT):  # warm the kernel and seed the recent ticks
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn):
        """``fn()`` and ``{"wall_s", "raw_s", "speed_s"}`` of the call: the
        raw time at the nominal speed, the wall time without the ticks, and
        the median tick time that rates the host's speed."""
        n0 = len(self.ticks)
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        inside = self.ticks[n0:]
        raw = t1 - t0 - math.fsum(inside)
        rating = inside if len(inside) >= MIN_TICKS else self.ticks[-RECENT:]
        speed = statistics.median(rating)
        return out, {"wall_s": raw * self.nominal_s / speed, "raw_s": raw,
                     "speed_s": speed}
