"""Machine-speed probe: timings scaled to a fixed reference speed.

On a shared virtual machine the core itself runs faster or slower in phases
that last from seconds to minutes (by a factor of up to two), while steal
time stays near zero, so neither wall time nor CPU time of the program is
steady from run to run.  The probe measures that speed next to the program:
a timer signal interrupts the closed loop every ``INTERVAL`` seconds and
runs ``reference_loop``, a fixed piece of pure-Python work that shares no
code with psicert, and records how long it took.  A case's latency, minus
the time spent in the probe, is then scaled by ``REFERENCE_SECONDS`` over
the median reference time measured around that case (inside it, for a long
case).  A scaled time is the time the case would take on a machine where
the reference loop takes ``REFERENCE_SECONDS``, close to its typical time
on a 2-vCPU Intel Xeon at 2.1 GHz under CPython 3.11.

The reference loop touches only ints and an untracked int-keyed dict, so it
creates no object that the cyclic garbage collector counts, and it does not
move the program's collections.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

REFERENCE_STEPS = 800
REFERENCE_SECONDS = 3.0e-4  # typical time of reference_loop(REFERENCE_STEPS), see above
INTERVAL = 0.025  # seconds between samples
WINDOW = 0.1  # samples this far before and after a case count for it
MIN_SAMPLES = 5  # a case is scaled by the median of at least this many samples


def reference_loop(steps):
    """Fixed interpreter work: integer arithmetic, calls and dict updates."""
    table = {}
    x = 1
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 1023
        table[k] = table.get(k, 0) + (x >> 20)
    return len(table) + x


class Probe:
    """Samples the reference loop on a timer while it is entered.

    ``spent`` is the wall time spent in the signal handler so far; a caller
    reads it before and after a case and subtracts the difference.
    """

    def __init__(self):
        self.times = array("d")  # start of each sample
        self.seconds = array("d")  # duration of each sample
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_loop(REFERENCE_STEPS)
        t1 = time.perf_counter()
        self.times.append(t0)
        self.seconds.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_SECONDS over the median sample taken around [start, end]."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        while hi - lo < min(MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return REFERENCE_SECONDS / statistics.median(self.seconds[lo:hi])
