"""The machine's speed while code runs, from timing fixed reference work.

The benchmark runs on a shared VM whose speed drifts by up to 2x, in
stretches of a fraction of a second to minutes.  The process keeps its CPU
through these stretches (CPU time tracks wall time, and 50 us slices of a
fixed loop are uniformly slower, not cut by pauses): the same instructions
simply take longer.  So no clock leaves the drift out, and a fastest or
median pass only removes it when some pass of the run fell in a fast
stretch.

`SpeedSampler` therefore times a small, fixed piece of pure-Python work
(`reference_work`: standard library only, none of dpierce) every
`INTERVAL_S`, from a SIGALRM handler.  The handler runs between bytecodes of
the code being measured, in the same thread and process, so the samples
come from inside each measured call, also from inside a single call of
several seconds.  `normalise` turns a measured interval into seconds at the
machine's full speed: the interval, less the time the handler took inside
it, times the mean over nearby samples of `REFERENCE_S` / sample.

The work mixes what dpierce spends its time on: exact rational elimination
and scans over subsets of small sets.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from fractions import Fraction

# fastest time of `reference_work` on a 2 vCPU Intel Xeon at 2.1 GHz
# (shared VM), Python 3.11.7; a constant, so it is the same in every run
REFERENCE_S = 0.00026
INTERVAL_S = 0.02
# samples this close to an interval's ends also count for it
MARGIN_S = 2 * INTERVAL_S


def reference_work():
    n = 5
    a = [
        [Fraction(i + 2, j + 3) + Fraction(1, i + j + 1) + (i == j) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        pivot = a[k]
        for i in range(k + 1, n):
            f = a[i][k] / pivot[k]
            a[i] = [x - f * y for x, y in zip(a[i], pivot)]
    sets = [frozenset(range(i % 7, i % 7 + 3 + i % 3)) for i in range(12)]
    hits = sum(1 for x, y, z in itertools.combinations(sets, 3) if x & y & z)
    return a[n - 1][n - 1], hits


EXPECTED = reference_work()


class SpeedSampler:
    """Samples the time of `reference_work` every `INTERVAL_S` while active.

    Use as a context manager; on exit the timer is stopped and the previous
    SIGALRM handler put back.  Samples stay available for `normalise`.
    """

    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each sample ended
        self.times: list[float] = []  # seconds each sample took
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a sample slower than the interval: skip the next
            return
        self._busy = True
        t0 = time.perf_counter()
        result = reference_work()
        t1 = time.perf_counter()
        self._busy = False
        if result != EXPECTED:
            raise RuntimeError("reference work gave a different result")
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def normalise(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at full speed.

        Needs a sample taken after `end`; `run.py` normalises a pass only
        once the sampler has stopped.
        """
        inside = slice(bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end))
        spent = end - start - sum(self.times[inside])
        lo = bisect.bisect_left(self.ends, start - MARGIN_S)
        hi = bisect.bisect_right(self.ends, end + MARGIN_S)
        if lo == hi:  # none near: the closest sample on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        near = self.times[lo:hi]
        return spent * sum(REFERENCE_S / t for t in near) / len(near)
