"""A clock that reports time in reference seconds, steady on a shared host.

The benchmark's host runs other work whose load changes the speed of this
process by up to 2x within seconds, so wall times of the same work spread
by tens of percent between runs.  While a workload runs, a timer signal
interrupts it about every PERIOD_S and runs a fixed reference computation
(stdlib Fraction arithmetic, the kind of work the program does, and none of
the program's code) for SAMPLE_S, recording its rate.  The signal handler
runs between bytecodes of the main thread, so it samples inside long
library calls too.  The timer is one-shot and re-armed only after a sample
ends, so no signal is pending while a sample runs and samples never nest:
their times, and the pauses they make, stay in increasing order.  A wall
interval is reported as reference seconds, the integral over the interval
of

    measured rate / REF_RATE

with the rate interpolated linearly between samples and zero while a
sample runs, so sampling time is never counted.  On a host running at the
reference rate a reference second is a wall second.
"""

import bisect
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# units of _unit() per second on the reference host (2-core x86_64
# container, Python 3.11, quiet period); changing it rescales every time
REF_RATE = 9000.0
PERIOD_S = 0.1
SAMPLE_S = 0.008


def _unit():
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, 3 * i * i + 1)
    return total


class Clock:
    def __init__(self):
        self.points = []        # (wall time, rate) at each sample's midpoint
        self.pauses = []        # (start, end) of each sample
        self._cum = None
        self._armed = False

    @contextmanager
    def running(self):
        """Sample the host rate about every PERIOD_S while the block runs."""
        self.calibrate()
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield self
        finally:
            # a tick still pending after this line does not re-arm
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.calibrate()

    def _tick(self, _sig, _frame):
        self.calibrate()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def calibrate(self):
        t0 = time.perf_counter()
        n = 0
        while True:
            _unit()
            n += 1
            t1 = time.perf_counter()
            if t1 - t0 >= SAMPLE_S:
                break
        self.points.append(((t0 + t1) / 2, n / (t1 - t0)))
        self.pauses.append((t0, t1))
        self._cum = None

    def rates(self):
        """Sampled rates relative to REF_RATE."""
        return [r / REF_RATE for _t, r in self.points]

    def seconds(self, start, end):
        """Reference seconds in the wall interval [start, end]."""
        if self._cum is None:
            self._prepare()
        return (self._integral(end) - self._integral(start)) / REF_RATE

    def _rate(self, t):
        times, rates = self._times, self._rates
        k = bisect.bisect_right(times, t)
        if k == 0:
            return rates[0]
        if k == len(times):
            return rates[-1]
        ta, tb, ra, rb = times[k - 1], times[k], rates[k - 1], rates[k]
        return ra + (rb - ra) * (t - ta) / (tb - ta)

    def _paused(self, a, b):
        mid = (a + b) / 2
        k = bisect.bisect_right(self._starts, mid) - 1
        return k >= 0 and mid < self.pauses[k][1]

    def _segment(self, a, b):
        """Integral of the rate over [a, b], which holds no breakpoint."""
        if b <= a or self._paused(a, b):
            return 0.0
        return (b - a) * (self._rate(a) + self._rate(b)) / 2

    def _prepare(self):
        self._rates = [r for _t, r in self.points]
        self._times = [t for t, _r in self.points]
        self._starts = [a for a, _b in self.pauses]
        self._breaks = sorted(set(self._times) |
                              {x for p in self.pauses for x in p})
        self._cum = [0.0]
        for a, b in zip(self._breaks, self._breaks[1:]):
            self._cum.append(self._cum[-1] + self._segment(a, b))

    def _integral(self, t):
        breaks = self._breaks
        k = bisect.bisect_right(breaks, t) - 1
        if k < 0:
            return -self._segment(t, breaks[0])
        return self._cum[k] + self._segment(breaks[k], t)
