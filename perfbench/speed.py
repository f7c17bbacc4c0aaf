"""Reference-speed sampling, so that timings absorb drift in the host's speed.

On a shared host the speed drifts: the same pass can take 30% longer a minute
later, for every kind of code.  A fixed reference kernel, made of the
operations the program's hot path is made of (tuple slicing and
concatenation, dict lookups and inserts with tuple keys), is timed
throughout each measurement.  A duration is then reported in reference
seconds, each stretch of wall time weighted by the host's speed relative to
nominal:

    reference_s = measured_s * mean(NOMINAL_KERNEL_S / kernel sample)

The mean, not the median, of the speed ratios matters: the host switches
between a fast and a slow state within seconds, and a pass's time
integrates over both.  On a shared 2-vCPU x86-64 VM, over 150 s of repeated
estimator calls whose raw times spread by 31-39% (interquartile range over
median), this left 5%; the median kernel time left 11-13%.  The kernel is
benchmark code, identical on every commit measured, so the rescaling
cancels when two commits are compared; what remains is the program's own
speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: Kernel time defining nominal speed (about its time on a shared 2-vCPU x86-64 VM).
NOMINAL_KERNEL_S = 1e-3

#: Wall-clock seconds between kernel samples taken during a measurement.
INTERVAL_S = 0.05


def kernel() -> None:
    """The reference kernel: tuple slicing and dict inserts, about 1 ms."""
    prefix = tuple(range(12))
    table: dict = {}
    for i in range(2000):
        key = prefix[: i % 11] + (i,)
        table[key] = table.get(key, 0) + 1


class SpeedProbe:
    """Kernel samples around and during one measured interval."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.inside_s = 0.0  # time the samples taken inside the interval used

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        d = time.perf_counter() - t0
        self.samples.append(d)
        return d

    def _on_alarm(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def around(self, n: int = 3) -> None:
        """Take ``n`` samples outside any measured interval."""
        for _ in range(n):
            self._sample()

    @contextmanager
    def during(self):
        """Sample every ``INTERVAL_S`` inside the block, on a SIGALRM timer."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """Mean host speed relative to nominal over all samples."""
        return statistics.fmean(NOMINAL_KERNEL_S / k for k in self.samples)

    def reference(self, measured_s: float) -> float:
        """``measured_s`` less the samples' own time, in reference seconds."""
        return (measured_s - self.inside_s) * self.speed()
