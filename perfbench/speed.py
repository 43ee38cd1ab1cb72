"""Scaling measured times to a fixed reference speed.

On the 2-vCPU Intel Xeon VM (2.1 GHz nominal) where the baseline was
measured, the CPU runs the same Python code at two speeds that alternate
every few seconds to tens of seconds (a 150 s trace of one `classify` op
read 80 ms and 140 ms in turns), so raw times of whole runs differ by up
to 1.7x.  A short calibration loop of the same kind of work (small
objects, method calls, int arithmetic, dict stores) slows down in step.
While a `SpeedLog` is open, a timer signal runs that loop every
CAL_EVERY_S, also in the middle of a timed call, and every timed interval
is reported at the reference speed: each stretch between two calibrations
counts as its raw seconds * CAL_REF_S / (the mean of the two calibrations),
and the time spent calibrating is left out
(unless the work ran in another process).  With a calibration every 50 ms,
ten runs of a 1.6 s `classify` op had a spread (q3 - q1) / median of 0.04,
against 0.21 when the op was scaled by calibrations taken only before and
after it; every 10 ms, a 0.4 s op had 0.03 against 0.07 at 50 ms.
The calibration code is the benchmark's own, so a change to quadrings
cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time

CAL_REF_S = 0.0003   # one calibration loop at the reference speed
CAL_EVERY_S = 0.01   # timer interval of a SpeedLog


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other, n):
        return _Pair((self.a * other.a + self.b * other.b) % n,
                     (self.a * other.b + self.b * other.a) % n)


def _loop() -> int:
    x, y, seen = _Pair(3, 5), _Pair(7, 11), {}
    for i in range(500):
        x = x.mul(y, 1000003)
        seen[(x.a & 255, i & 7)] = x
    return len(seen)


def calibrate() -> float:
    """Seconds one calibration loop takes right now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class SpeedLog:
    """Calibrations taken every CAL_EVERY_S while the `with` block runs.

    Intervals measured with time.perf_counter() inside the block are
    converted by `scale`.  Uses SIGALRM, so only one can be open at a time,
    in the main thread; blocking calls in the block are resumed after each
    calibration (PEP 475).
    """

    def __init__(self):
        self.starts: list[float] = []   # perf_counter() at each calibration's start
        self.ends: list[float] = []     # ... and at its end
        self.cals: list[float] = []     # the calibration, seconds per loop
        self._busy = False

    def _mark(self, *_):
        if self._busy:      # a signal that arrived during a calibration
            return
        self._busy = True
        t0 = time.perf_counter()
        cal = calibrate()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.cals.append(cal)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        self._mark()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        return False

    def scale(self, t0: float, t1: float, elsewhere=False) -> tuple[float, float]:
        """(seconds at the reference speed, raw seconds) of [t0, t1].

        The calibrations inside it are left out, unless the work ran
        `elsewhere`, in a process that went on while this one calibrated.
        """
        begins = self.starts if elsewhere else self.ends
        scaled = raw = 0.0
        i = max(0, bisect.bisect_right(self.starts, t0) - 1)
        for i in range(i, len(self.starts) - 1):
            lo, hi = max(t0, begins[i]), min(t1, self.starts[i + 1])
            if hi > lo:
                raw += hi - lo
                scaled += (hi - lo) * CAL_REF_S * 2 / (self.cals[i] + self.cals[i + 1])
            if self.starts[i + 1] >= t1:
                break
        return scaled, raw
