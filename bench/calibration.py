"""Host-speed normalisation of measured times.

The shared host this benchmark was written on changes speed by up to 2x
for seconds to minutes at a time.  CPU time swings with wall time and
steal time stays flat, so the cause is per-cycle contention from other
tenants, not scheduling.  Raw wall times of the same code drifted by ~20%
between sets of runs taken 20 minutes apart.

HostClock therefore interrupts the measured code every TICK_S, times a
fixed kernel, and rescales the code's time since the previous tick by
REFERENCE_S / (kernel time).  Over three sets of ten runs per workload,
the spread across seeds (IQR over median) was 7-18% for raw times and
2-7% for normalised ones.  Time spent in the ticks is excluded from both.

The kernel is plain Python: integer arithmetic and a walk over a
65,536-entry list.  It calls nothing from the package, so a change to the
program cannot change it.  It also imports nothing, so it can time an
import without pre-loading any module the import needs.
"""

from __future__ import annotations

import signal
import time

#: Kernel time inside ticks on the development host in a quiet spell
#: (2-vCPU Xeon VM, Python 3.11.7).  It is only a scale: normalised times
#: are seconds at a host speed where one kernel run takes REFERENCE_S.
REFERENCE_S = 0.0014

#: Seconds of measured code between two kernel samples.
TICK_S = 0.05

# A full-period linear congruential permutation of 0..65535.
_WALK = [(i * 40_503 + 1) % 65_536 for i in range(65_536)]


def kernel_time() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(6_000):
        total += i ^ (i >> 3)
    node = 0
    for _ in range(6_000):
        node = _WALK[node]
    return time.perf_counter() - start


class HostClock:
    """Times a block in seconds at the reference host speed.

    ``seconds`` is the block's own wall time and ``normalised`` the sum of
    its inter-tick intervals, each rescaled by the kernel time measured at
    the tick that ends it.  The tail after the last tick is rescaled by the
    median of five kernel runs taken when the block ends.
    """

    def __enter__(self) -> "HostClock":
        self.seconds = 0.0
        self.normalised = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _add(self, interval: float, kernel_s: float) -> None:
        self.seconds += interval
        self.normalised += interval * REFERENCE_S / kernel_s

    def _tick(self, signum, frame) -> None:
        interval = time.perf_counter() - self._mark
        self._add(interval, kernel_time())
        self._mark = time.perf_counter()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        interval = time.perf_counter() - self._mark
        signal.signal(signal.SIGALRM, self._previous)
        self._add(interval, sorted(kernel_time() for _ in range(5))[2])


class WallClock:
    """HostClock's interface without ticks: plain wall time, not rescaled.

    Traced passes use it, so that span self times carry no tick time.
    """

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self.normalised = time.perf_counter() - self._start
