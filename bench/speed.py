"""Timing of calls, with the machine's speed divided out.

A shared virtual machine does not run at one speed.  On the 2-vCPU host
this benchmark was written on (Python 3.11), a fixed Fraction loop ran at
one of two speeds about 1.7-1.9x apart, switching every few milliseconds,
and the share of time spent at the slow speed drifted from about 10 % to
100 % over seconds to minutes.  Process CPU time followed wall-clock time,
so the host was not stealing time; the CPU itself ran slower.  Raw op times
followed it: ten runs of the same code spread by up to 30 %, and runs half
an hour apart differed by up to 45 %.

So ``measure`` reads the machine's speed while the call runs.  An interval
timer interrupts the call every ``INTERVAL_S``, and the signal handler times
one run of a small reference loop.  The loop's time in the host's fast mode
is ``REFERENCE_US``, so each sample gives the machine's current speed as a
share of that mode's speed.  The call's scaled time is its wall-clock time,
less the time the handler took, times the mean of those speed samples: the
work the call would have taken at the reference speed.  The mean is over
speeds, not loop times, because the samples are evenly spaced in time and
work is speed integrated over time.

The loop is the benchmark's own standard-library code, so no change to the
program changes it; a program that gets faster or slower moves its scaled
times in full.  It does what the program does most, arithmetic on
``fractions.Fraction``, and is short next to the machine's slow spells.  The
handler costs about 3 % of a call; that time is taken out of both the raw
and the scaled time.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

#: Time of one reference loop in the fast mode of the host named above.
REFERENCE_US = 31.0

#: How often a call is interrupted to read the machine's speed.
INTERVAL_S = 0.002

_TERMS = tuple(Fraction(i, i + 1) for i in range(1, 9))


def reference_loop() -> Fraction:
    """A fixed sum of Fraction products; returns it."""
    total = Fraction(0)
    for term in _TERMS:
        total += term * term
    return total


# The first runs in a process are several times slower than the rest.
for _ in range(100):
    reference_loop()


def _speed_sample() -> float:
    """Speed now, as a share of the reference speed."""
    start = perf_counter()
    reference_loop()
    return REFERENCE_US / (1e6 * (perf_counter() - start))


def measure(call: Callable[[], Any],
            sampled: bool = True) -> tuple[float, float | None, Any]:
    """Run ``call()``; returns its raw seconds, scaled seconds and result.

    Without sampling, the call runs uninterrupted and the scaled time is
    None.  A call that raises leaves the timer stopped and the previous
    handler in place.
    """
    if not sampled:
        start = perf_counter()
        result = call()
        return perf_counter() - start, None, result
    speeds: list[float] = []
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        start = perf_counter()
        speeds.append(_speed_sample())
        spent += perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not speeds:
        speeds.append(_speed_sample())
    raw = elapsed - spent
    return raw, raw * sum(speeds) / len(speeds), result
