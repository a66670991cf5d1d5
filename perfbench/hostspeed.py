"""Host-speed calibration: measured times expressed in reference seconds.

The benchmark's host is a few cores of a shared machine whose speed
drifts by 10-30% over minutes while the load average stays flat: the
same deterministic op mix runs that much faster or slower from one run
to the next.  No statistic taken inside one run can remove a drift that
covers the whole run, so each timed stretch is paired with a short
sample of a fixed pure-Python loop that shares no code with the program
under test, taken right before and right after the stretch.  A stretch
of ``d`` host seconds during which the loop ran at ``r`` iterations per
second counts as ``d * r / REFERENCE_RATE`` reference seconds: the time
it would have taken on a host where the loop runs at exactly
``REFERENCE_RATE``.  A change to the program moves its reference times
in full; a change in the host's speed moves the loop too and cancels.

Samples are taken only while the workload is idle (between ops, with
no served job in flight), so the program's own work never slows the
loop and a program that used more cores could not make itself look
faster.
"""

from __future__ import annotations

import os
import time
from typing import Callable

#: Loop iterations per second that define one reference second (about
#: the loop's median rate on the 2-core shared host the bounds were set
#: on, so reference seconds there are close to host seconds).
REFERENCE_RATE = 1.4e7

#: Shortest sample, and a sample's length as a share of the stretch it
#: closes (so long stretches get proportionally longer samples).
MIN_SAMPLE_S = 0.01
SAMPLE_SHARE = 0.04

#: Iterations per call of the loop; one call takes ~0.07 ms.
_CHUNK = 1000


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def sample(seconds: float = MIN_SAMPLE_S,
           clock: Callable[[], float] = time.perf_counter) -> float:
    """Run the loop for at least ``seconds``; its rate in iterations/s."""
    start = clock()
    iterations = 0
    while True:
        _spin(_CHUNK)
        iterations += _CHUNK
        elapsed = clock() - start
        if elapsed >= seconds:
            return iterations / elapsed


def sample_after(stretch_s: float,
                 clock: Callable[[], float] = time.perf_counter,
                 every_cpu: bool = False) -> float:
    """The sample that closes a stretch of ``stretch_s`` host seconds.

    With ``every_cpu`` the sample is split evenly over the CPUs this
    process may run on, pinned to each in turn, and their rates are
    averaged: the speed of the whole host rather than of the CPU this
    process happens to be on, for work done by other processes.
    """
    seconds = max(MIN_SAMPLE_S, SAMPLE_SHARE * stretch_s)
    if not every_cpu:
        return sample(seconds, clock)
    cpus = sorted(os.sched_getaffinity(0))
    rates = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            rates.append(sample(seconds / len(cpus), clock))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(rates) / len(rates)


def speed(rate_before: float, rate_after: float) -> float:
    """Reference seconds per host second over a stretch bracketed by two
    samples."""
    return (rate_before + rate_after) / 2.0 / REFERENCE_RATE
