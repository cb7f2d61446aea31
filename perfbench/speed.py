"""Host speed probe: a fixed pure-Python loop timed while a run goes on.

The benchmark machine's cores are shared, and the work on a sibling
hardware thread can slow this process by up to about 2x for tens of
seconds at a time, in CPU time as well as wall time.  The probe measures
that slowdown from inside the run: every ``PERIOD_S`` a timer signal runs
:func:`probe` on the main thread and records how long it took.  A reported
time is the measured time multiplied by the host's mean speed over the
same interval, i.e. the time the work would take at the probe's nominal
speed; the probes' own time is taken out first.  The speed of a sample is
``NOMINAL_S / probe time``, and samples come at equal time steps, so their
plain mean weighs each slice of time alike; a sample that a stray pause
hits reads as one slow slice and moves the mean by at most 1/N.  The probe
does not call dimlab and runs with the garbage collector off, so no
collection of dimlab's objects, whose cost grows with dimlab's heap, lands
in a sample.  A change to the package thus moves the scaled time in the
same proportion as the measured one; the run prints both.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
# probe time on an uncontended core of the reference machine; only the
# ratio of two scaled times ever matters, so this just fixes the units
NOMINAL_S = 0.0006


def probe() -> None:
    """Fraction arithmetic, hashing, dict and sort work, as dimlab does."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 97, 3 ** (i % 13 + 1))
        table[(i * 7919) % 1009] = hashlib.sha256(repr(i).encode()).digest()
        sorted(range(i % 50, 0, -1))


class SpeedProbe:
    """Samples (time, probe duration) on a timer while it is running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((t1, t1 - t0))

    def start(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick(None, None)

    def factor(self, start: float, end: float) -> float:
        """Mean speed (NOMINAL_S / probe time) of the samples in [start, end].

        Widens to the nearest sample on each side, so an interval shorter
        than the period still gets the probes that bracket it.
        """
        times = [t for t, _ in self.samples]
        lo = max(bisect_left(times, start) - 1, 0)
        hi = min(bisect_right(times, end) + 1, len(times))
        return statistics.fmean(NOMINAL_S / d for _, d in self.samples[lo:hi])

    def busy(self, start: float, end: float) -> float:
        """Time the probe itself took inside [start, end]."""
        times = [t for t, _ in self.samples]
        lo, hi = bisect_left(times, start), bisect_right(times, end)
        return sum(d for t, d in self.samples[lo:hi] if t - d >= start)

    def work(self, start: float, end: float) -> float:
        """Time in [start, end] not spent probing."""
        return end - start - self.busy(start, end)

    def scaled(self, start: float, end: float) -> float:
        return self.work(start, end) * self.factor(start, end)
