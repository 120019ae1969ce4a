"""A fixed reference computation that measures how fast the host runs right now.

The machine this benchmark was written on runs the same pure-Python code at
speeds that differ by up to 1.8x from one second to the next, and by as
much between 20-second runs.  CPU time tracks wall time and steal time stays
near zero, so the cause is contention for the host's cores and caches, not
scheduling.  Timing more work per run does not remove it.

So while the worker times its passes, a SIGALRM handler runs this
computation every INTERVAL_S, in the measuring thread itself.  Each sample
records how long the fixed computation took at that moment.  An operation's
time is then scaled by the samples taken around it:

    scaled = (measured - time spent in samples) * NOMINAL_S / mean(samples)

where the samples are those that start within WINDOW_S of the operation.
A scaled time reads as seconds on a host where one sample takes NOMINAL_S.
Samples land inside long operations as well as between short ones, so the
scale follows the host through a four-second `count_avoiders` call.

The pacer never calls the library, and it must never change: it is the
yardstick for comparing one commit of the library with another.  It does
the kind of work the library does: tuple slicing, set insertion and a
recursive pattern search.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time

NOMINAL_S = 0.005
INTERVAL_S = 0.1
WINDOW_S = 0.3
_BASIS = ((1, 2, 3), (3, 2, 1, 4), (2, 1, 4, 3), (1, 5, 4, 3, 2))
_LENGTH = 5
_EXPECTED = 28  # avoiders of _BASIS of length 5


def _search(pat: tuple, below: list, above: list, host: tuple, at: list,
            j: int, start: int) -> bool:
    k = len(pat)
    if j == k:
        return True
    lo, hi = below[j], above[j]
    for i in range(start, len(host) - k + j + 1):
        v = host[i]
        if lo is not None and v <= host[at[lo]]:
            continue
        if hi is not None and v >= host[at[hi]]:
            continue
        at[j] = i
        if _search(pat, below, above, host, at, j + 1, i + 1):
            return True
    return False


def _occurs(pat: tuple, host: tuple) -> bool:
    k = len(pat)
    below = [max((i for i in range(j) if pat[i] < pat[j]), key=pat.__getitem__, default=None)
             for j in range(k)]
    above = [min((i for i in range(j) if pat[i] > pat[j]), key=pat.__getitem__, default=None)
             for j in range(k)]
    return _search(pat, below, above, host, [0] * k, 0, 0)


def _work() -> int:
    level = {()}
    for m in range(1, _LENGTH + 1):
        level = {
            child
            for p in level
            for pos in range(m)
            for child in (p[:pos] + (m,) + p[pos:],)
            if not any(_occurs(b, child) for b in _BASIS)
        }
    return len(level)


def sample() -> float:
    """Seconds the fixed computation takes now.

    The collector is off meanwhile: a collection here would scan the
    workload's heap, and the yardstick must not depend on the workload.  The
    computation makes no reference cycles, so it leaves nothing for it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_factor(samples: list[float]) -> float:
    """Multiplier from seconds measured now to seconds on the nominal host."""
    return NOMINAL_S * len(samples) / sum(samples)


class Pacer:
    """Context manager: samples the host's speed every INTERVAL_S while open."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        t0 = time.perf_counter()
        if _work() != _EXPECTED:
            raise RuntimeError("pacer computation gave a wrong count")
        self.check_s = time.perf_counter() - t0  # the self-check's own time
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a slow sample overran the interval
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.durations.append(sample())
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, a: float, b: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        return self.durations[lo:hi]

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end, less the samples taken in between."""
        return end - start - sum(self._between(start, end))

    def factor(self, start: float, end: float) -> float:
        """Scale factor for an operation that ran from start to end."""
        return scale_factor(self._between(start - WINDOW_S, end + WINDOW_S)
                            or self.durations)
