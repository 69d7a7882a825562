"""Host-speed correction of timings.

The shared 2-vCPU machines this benchmark was built on change speed in
episodes: a fixed kernel runs up to 1.9x slower for 1-2 s at a time, on
each vCPU independently, and how often that happens changes within
minutes. Sets of ten runs spread by 10-50 % between quartiles on every
timing, while counts and memory do not move at all.

So while a workload runs, SIGALRM times a small fixed kernel that never
touches mirrorsim, every INTERVAL_S, on the same vCPU as the workload. The
kernel is run once to warm the caches and timed on its second run, so its
time does not depend on what the workload left in the caches (the timed
runs read the same inside any workload as back to back). A timed interval
is rescaled to the speed at which the kernel takes REFERENCE_S:

    corrected = measured * REFERENCE_S / mean(kernel time during the interval)

Sampling costs 1-2 % of the run. A change to mirrorsim leaves the
kernel alone, so the correction cannot hide it.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# median warm kernel time, in s, on an Intel Xeon 2-vCPU VM between slow
# episodes
REFERENCE_S = 0.000112
INTERVAL_S = 0.02
MIN_SAMPLES = 8
_X = np.linspace(-3.0, 3.0, 512)


def kernel() -> float:
    """Complex elementwise numpy work plus Python-level float formatting,
    the two kinds of work the workloads spend their time in."""
    z = np.exp((-0.3 - 2.0j) * _X * _X + (0.1 - 0.5j) * _X)
    return float(np.abs(z).sum()) + len(",".join(format(v, ".17g") for v in _X[:100]))


def timed_kernel() -> float:
    """Time of one kernel run right after a warm-up run, so that the caches
    hold its data and code whatever the workload did before."""
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def factor_now(seconds: float = 0.05) -> float:
    """Correction factor from running the kernel back to back for ``seconds``."""
    times = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        times.append(timed_kernel())
    return REFERENCE_S / float(np.mean(times))


class SpeedSampler:
    """Times the kernel from SIGALRM while active; corrects intervals."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel time)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, timed_kernel()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time in [start, end]; when fewer
        than MIN_SAMPLES fall inside, the MIN_SAMPLES nearest its middle."""
        # a slice copy runs no Python code, so no sample lands mid-copy
        starts, times = np.array(self.samples[:]).T
        inside = (starts >= start) & (starts <= end)
        if inside.sum() < MIN_SAMPLES:
            nearest = np.argsort(np.abs(starts - 0.5 * (start + end)))[:MIN_SAMPLES]
            inside = np.zeros_like(inside)
            inside[nearest] = True
        return REFERENCE_S / float(times[inside].mean())

    def corrected(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
