"""A clock that reads in seconds of a reference-speed host.

On a shared host the speed of one CPU can change by a factor of almost two
from one second to the next while the process keeps running (CPU time grows
as fast as wall time in both states), so raw wall times of the same work
spread far more than a code change would move them.  ``HostClock``
interrupts the process every ``TICK_S`` seconds of wall time, times one
call of ``reference()`` and takes ``REFERENCE_S / measured`` as the host's
speed until the next tick.  ``now()`` sums the wall time between ticks
weighted by that speed and leaves out the time spent sampling, so it reads
what the same work would have taken on a host where ``reference()`` takes
exactly ``REFERENCE_S``.

The samples run in a SIGALRM handler in the main thread, between bytecodes
of the measured code; the timer is re-armed only after a sample ends, so
samples never nest.  Use it around single-threaded pure-Python work only.
"""

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.001  # one reference() call on the reference host
TICK_S = 0.02


def reference():
    """Fixed interpreter work of the workloads' kind: small tuples, a dict, comparisons."""
    bound = (7, 3, 5, 1)
    counts = {}
    hits = 0
    for i in range(600):
        u = (i & 7, i & 3, 5, i & 1)
        counts[u] = counts.get(u, 0) + 1
        hits += all(a <= b for a, b in zip(u, bound))
    if hits != 600 or len(counts) != 8:
        raise RuntimeError("reference loop miscounted")


class HostClock:
    """Context manager; ``now()`` is host-speed-scaled seconds since entry."""

    def __init__(self):
        self.samples = []   # wall time of each reference() call
        self._scaled = 0.0  # scaled seconds up to self._last
        self._speed = 1.0
        self._last = 0.0
        self._previous = None

    def _sample(self):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._speed = REFERENCE_S / (t1 - t0)
        self._last = t1

    def _tick(self, signum, frame):
        self._scaled += (perf_counter() - self._last) * self._speed
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self):
        while True:  # retry if a tick landed between the reads
            ticks = len(self.samples)
            value = self._scaled + (perf_counter() - self._last) * self._speed
            if ticks == len(self.samples):
                return value

    def median_sample(self):
        return statistics.median(self.samples)
