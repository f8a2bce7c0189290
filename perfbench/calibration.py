"""Timing in reference seconds, corrected for the host's speed drift.

The host's speed drifts by tens of percent over seconds to minutes, and the
process CPU time drifts with it, so a 30-second run cannot average the drift
away.  Every timed piece is therefore scaled by the speed of a fixed
pure-Python stack sort that calls no pss code, sampled just before it, just
after it and, when it runs in this process, every TICK_S in between: times
are reported in reference seconds, at the speed at which one calibration
sample takes CAL_REF_S.

On a 2-core KVM guest, sampling only before and after a 12-second
registry-sweep operation left the medians of three operations spread by
0.17 (interquartile range over median); sampling every second as well cut
that to 0.04 on the same operations.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

CAL_INPUTS = [tuple(random.Random(i).sample(range(40), 40)) for i in range(50)]
CAL_REF_S = 0.010
CAL_SAMPLES = 5
TICK_S = 1.0


def _sample() -> float:
    """Time of one pass of the calibration stack sort."""
    start = time.perf_counter()
    for _ in range(20):
        for p in CAL_INPUTS:
            stack, out = [], []
            for v in p:
                while stack and stack[-1] < v:
                    out.append(stack.pop())
                stack.append(v)
            out.extend(reversed(stack))
    return time.perf_counter() - start


def calibration_s() -> float:
    """Median time of CAL_SAMPLES passes of the calibration stack sort."""
    return statistics.median(_sample() for _ in range(CAL_SAMPLES))


def scaled(fn, *args, ticks: bool, **kwargs):
    """Run ``fn``; return its result, its wall time and that time in
    reference seconds.

    With ``ticks``, a SIGALRM handler takes one calibration sample every
    TICK_S while ``fn`` runs; its own time is left out of both times.  Each
    stretch of ``fn`` between two samples is scaled by the mean of those
    two.  Ask for ticks only when ``fn`` does its work in this process, from
    the main thread (Python runs signal handlers there): a sample taken while
    other processes do the work competes with them for the cores, and so
    measures their load rather than the host's speed.
    """
    speeds = [calibration_s()]
    stretches = []
    mark = time.perf_counter()

    def tick(signum, frame):
        nonlocal mark
        stretches.append(time.perf_counter() - mark)
        speeds.append(_sample())
        mark = time.perf_counter()

    if ticks:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        result = fn(*args, **kwargs)
    finally:
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        stretches.append(time.perf_counter() - mark)
    speeds.append(calibration_s())
    ref = sum(s * 2 * CAL_REF_S / (a + b) for s, a, b in zip(stretches, speeds, speeds[1:]))
    return result, sum(stretches), ref
