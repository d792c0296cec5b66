"""Reference speed: a fixed kernel that measures how fast the machine runs now.

The benchmark runs on a few cores of a shared host, whose speed drifts
by 10-25 % over spells of tens of seconds (neighbours on the same cores
and caches); process CPU time drifts with it.  A fixed pure-Python kernel
of the same kind as the package's work (small objects, `Fraction`s,
tuple-keyed dicts, a sort) slows down in step: over ten-second windows
the ratio of a library operation's time to the kernel's time spreads
about 1 %, where either time alone spreads about 10 %.

So every timed figure is also reported at reference speed:

    t_ref = t * NOMINAL_S / k

where k is the kernel's time measured next to t.  NOMINAL_S is a fixed
constant, the kernel's median time on the machine named in README.md, so
figures there are close to plain wall-clock seconds.  The kernel never
uses the package, so a change to the package moves t and not k.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.004  # the kernel's median time, see README.md
EVERY_S = 0.02  # a speed sample before an operation once this much time has passed
NEAREST = 3  # samples in the median around an operation


class _Term:
    __slots__ = ("word", "coeff")

    def __init__(self, word, coeff):
        self.word = word
        self.coeff = coeff

    def __mul__(self, other):
        return _Term(self.word + other.word, self.coeff * other.coeff)


_rng = random.Random("refspeed")
_WORDS = [tuple(_rng.randint(1, 3) for _ in range(_rng.randint(0, 6))) for _ in range(4000)]


def kernel():
    """The fixed work: 600 term products into a dict, and a sort of 1500 words."""
    terms = [_Term(_WORDS[i], Fraction(i % 5 + 1, i % 3 + 1)) for i in range(0, 4000, 37)]
    acc = {}
    for a in terms[:30]:
        for b in terms[:20]:
            m = a * b
            acc[m.word] = acc.get(m.word, 0) + m.coeff
    sorted(_WORDS[:1500])
    return acc


def sample():
    """Seconds the kernel takes now, with the collector off so the program's heap costs nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median_sample(times=5):
    return statistics.median(sample() for _ in range(times))


class Speedometer:
    """Speed samples taken between operations, and each operation's time at reference speed."""

    def __init__(self):
        self.at = []  # when each sample was taken
        self.took = []  # how long the kernel took
        self.starts = []  # when each operation started
        self._last = None

    def tick(self):
        """Take a sample if EVERY_S has passed since the last one."""
        now = perf_counter()
        if self._last is None or now - self._last >= EVERY_S:
            self.at.append(now)
            self.took.append(sample())
            self._last = perf_counter()

    def local(self, t):
        """Median kernel time over the NEAREST samples around time t."""
        j = bisect.bisect(self.at, t)
        lo = max(0, min(j - NEAREST // 2, len(self.at) - NEAREST))
        return statistics.median(self.took[lo:lo + NEAREST])

    def normalize(self, lat):
        """Each operation's latency scaled to reference speed, by the samples taken around it."""
        return [dt * NOMINAL_S / self.local(t0) for t0, dt in zip(self.starts, lat, strict=True)]
