"""Reference-scaled time: measured seconds corrected for the machine's speed.

The speed of a shared machine can change by half within a few seconds and
stay changed for a few more, which makes raw pass times spread by tens of
percent from run to run. While timed work runs, `Speed` interrupts it every
SAMPLE_INTERVAL seconds (a SIGALRM interval timer; no thread or process)
to time one short reference job, `reference_work`, which is independent of
syzal. The garbage collector is off during a sample, so collections that
syzal's own garbage calls for run (and are timed) in syzal's code, and a
signal that arrives while a sample runs is ignored. `clock()` leaves out
the time spent in those samples, and `scales()`
gives the mean of REFERENCE_SECONDS / sample time over the samples since
the last `reset()`, overall and around each given interval: a clock time
multiplied by it is in seconds of a machine on which the reference job
takes REFERENCE_SECONDS.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_INTERVAL = 0.03
REFERENCE_SECONDS = 0.001

_TERMS = [((i * 7) % 5, (i * 3) % 4, i % 3, (i * 5) % 2) for i in range(60)]


def _cmp(a, b) -> int:
    """A graded reverse-lexicographic comparison, as a Python function."""
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x > y else 1
    return 0


def reference_work() -> int:
    """Work of the kinds syzal does (exact sparse polynomial arithmetic with
    tuple exponents, dict terms and Fraction coefficients; leading terms
    found through a comparison function), written without syzal so that no
    change to the engine changes its cost."""
    p = {(a, b): Fraction(a - b + 1, b + 1)
         for a in range(4) for b in range(4 - a)}
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in p.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    acc: dict = {}
    for i in range(150):
        key = (i % 97, (i * 7) % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)
    for _ in range(24):
        best = None
        for t in _TERMS:
            if best is None or _cmp(t, best) > 0:
                best = t
    return len(out) + len(acc) + sum(best)


class Speed:
    """Speed samples taken while installed as a context manager."""

    def __init__(self):
        self.paused = 0.0      # seconds spent in samples, left out of clock()
        self.samples: list = []
        self.all_samples: list = []
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            took = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.samples.append((t0 - self.paused, took))
        self.paused += took

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def reset(self) -> None:
        self.samples = []

    def scales(self, intervals=()):
        """The factor from clock seconds to reference seconds over all
        samples since the last reset (one is taken now if there are none),
        and one factor per (start, end) clock interval from the samples
        within half a sampling interval of it (the overall factor if none)."""
        if not self.samples:
            self._sample()
        samples, self.samples = self.samples, []
        self.all_samples.extend(took for _at, took in samples)
        speeds = [(at, REFERENCE_SECONDS / took) for at, took in samples]
        overall = statistics.fmean(v for _at, v in speeds)
        margin = SAMPLE_INTERVAL / 2
        each = []
        for start, end in intervals:
            near = [v for at, v in speeds
                    if start - margin <= at <= end + margin]
            each.append(statistics.fmean(near) if near else overall)
        return overall, each

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
