"""How fast the host runs Python, sampled all through a measurement.

On a shared host the speed of one CPU drifts by tens of percent, in spells
that last from under a second to minutes, while the process is never
descheduled (process time equals wall time). A fixed pure-Python kernel
slows down by the same factor as ppda does, provided the two are measured
over the same moments. So while a measurement runs, a timer signal
interrupts it every ``INTERVAL_S`` and runs the kernel once; ``clock()``
is a clock that leaves those interruptions out, and ``factor(mark)`` is
the mean kernel speed since ``mark()`` relative to ``REFERENCE_RATE``.
The benchmark scales each round it measured to a host that runs the
kernel at ``REFERENCE_RATE`` calls per second:

    calibrated = round time by clock() * factor(mark taken at its start)

Both sides of a comparison are scaled by the same constant, so ratios
between commits are unchanged; only the host's drift is divided out. The
kernel uses the standard library alone and must never change, or the
calibrated figures of different commits stop being comparable.
"""
from __future__ import annotations

import signal
import time
from array import array
from fractions import Fraction

# Kernel calls per second on the host the bounds were set on, in its fast
# spells (Intel Xeon at 2.0 GHz, 2 vCPUs, Python 3.11.7).
REFERENCE_RATE = 900.0

# One kernel call (1-2 ms) every 20 ms: under a tenth of the run.
INTERVAL_S = 0.02
MIN_SAMPLES = 10


def kernel() -> int:
    """Fixed work of the kinds ppda does: rationals, big integers, strings, dicts, tuples."""
    table: dict = {}
    total = Fraction(0)
    big = 1
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, 2 ** (i % 13 + 1))
        big = big * 3 + i
        key = " ".join(("P(A,B)", str(i % 50), "Z'"))
        table[key] = table.get(key, 0) + 1
        parts = tuple(key.split())
        table[parts] = len(parts)
    return total.numerator ^ (big % 1009) ^ len(table)


class Sampler:
    """Context manager: run the kernel from a timer signal while active."""

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.rates = array("d")

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        kernel()
        took = time.perf_counter() - began
        self.kernel_s += took
        self.rates.append(1 / took)

    def __enter__(self) -> "Sampler":
        # One call up front, so that even a measurement shorter than the
        # interval has a sample.
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds, not counting the time spent in the kernel."""
        while True:
            spent = self.kernel_s
            now = time.perf_counter()
            # A tick between the two reads would be counted in one only.
            if spent == self.kernel_s:
                return now - spent

    def mark(self) -> int:
        return len(self.rates)

    def factor(self, mark: int) -> float:
        """Mean kernel speed since ``mark``, relative to the reference host.

        The samples are evenly spaced in time, so the mean of their rates
        is the time average of the host's speed. A stretch shorter than
        ``MIN_SAMPLES`` intervals takes the latest ``MIN_SAMPLES`` samples.
        """
        window = self.rates[max(0, min(mark, len(self.rates) - MIN_SAMPLES)):]
        return sum(window) / len(window) / REFERENCE_RATE
