"""Machine-speed calibration for the benchmark.

On a shared host the speed of this process drifts by up to 1.6x, and a slow
spell can outlast a whole run, so no statistic over raw times of one run is
steady.  Every raw time is therefore divided by the speed factor measured
next to it: the time of a fixed pure-Python loop that never touches naenum,
divided by ``REFERENCE_S``.  A reported time is the time the call would take
on an interpreter that runs the loop in ``REFERENCE_S`` seconds.

The loop is sampled on a timer signal, so a call that runs for seconds gets
samples from inside it, not only from its two ends.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.001      # a fixed scale: about the loop's time on a 2-core Xeon VM
INTERVAL_S = 0.1         # one sample per 100 ms
WINDOW_S = 1.0


def _loop() -> int:
    """Fixed interpreter work shaped like the package's own: small tuples,
    a sorted set, a dict of lists and frozenset intersections.  Its time
    tracks the host's slow spells about one for one on the engine's calls;
    a tight arithmetic loop slows down almost twice as much."""
    items = [((i * 37) % 101, (i * 11) % 7, i % 5) for i in range(1500)]
    groups: dict = {}
    for t in sorted(set(items)):
        groups.setdefault(t[0], []).append(t)
    sets = [frozenset(v) for v in groups.values()]
    return sum(len(a & b) for a, b in zip(sets, sets[1:]))


def sample() -> float:
    """Speed factor now: best of three timings of the loop ÷ REFERENCE_S.
    Noise only ever adds time, so the best of three drops a hiccup."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S


class Speed:
    """Timeline of speed factors, sampled every INTERVAL_S by SIGALRM while
    the context is open, also in the middle of a long call.  Time spent
    sampling is left out of :meth:`clock`, the clock every call is timed with,
    and sample times are on that clock too.  A call's factor is the median of
    the samples taken during it or within WINDOW_S of it, which smooths the
    loop's own jitter; the host's slow spells last seconds."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self._spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """Seconds on ``perf_counter`` minus the seconds spent sampling."""
        return time.perf_counter() - self._spent

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.times.append(start - self._spent)
        self.factors.append(sample())
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def around(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.factors[lo:hi] or [self.factors[min(lo, len(self.factors) - 1)]]
        return statistics.median(near)
