"""Host-speed reference for every time the benchmark reports.

On a shared host the speed of a core drifts with what its neighbours run:
on the 2-core host this benchmark was written on, a fixed pure-Python loop
took 8.1 ms (median of 2 s windows) for 36 s and then 5.8 ms for the next
30 s, in process time as well as wall time, so best-of-N timing does not
remove it. A benchmark run lasts about as long as one such phase, so raw
times of identical runs differ by up to 40%.

A short reference kernel (a pure-Python loop, a numpy sort that fits in L2
and a numpy pass over 16 MB that does not; no lst code) is therefore timed
between timed steps, and every time a run reports is

    scaled = measured * REFERENCE_MS / kernel_ms

where ``kernel_ms`` is the mean of the kernel's best-of-``REPEATS`` time just
before and just after the step: the time the step would take on a core where
the kernel takes ``REFERENCE_MS``. lst never runs the kernel, so a change to lst
moves the measured time and not the scale. Raw times are kept next to the
scaled ones in the run record.

The benchmark's processes are pinned to one core (``pin``) so that a step and
the kernel around it run on the same core.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Kernel time, in ms, that scaled times refer to (about its time on the
#: 2-core Xeon host the benchmark was written on, in a quiet phase).
REFERENCE_MS = 2.0
#: The kernel starts up to twice as slow after a long task or a pause and
#: reaches its steady time within about eight repeats.
REPEATS = 8

_DATA = np.random.default_rng(0).random(20_000)
_BIG = np.ones(1_000_000)
_OUT = np.empty_like(_BIG)


def _kernel() -> float:
    s = 0
    for i in range(10_000):
        s += i * i
    y = np.sort(_DATA)
    np.multiply(_BIG, 1.0000001, out=_OUT)
    return s + float(np.cumsum(y)[-1]) + float(_OUT.sum())


def kernel_ms() -> float:
    """Best-of-REPEATS time of the reference kernel, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def factor(before_ms: float, after_ms: float) -> float:
    """Factor that turns a time measured between two kernel timings into a scaled time."""
    return REFERENCE_MS / (0.5 * (before_ms + after_ms))


def pin() -> int | None:
    """Pin this process, and so every process it starts, to its last allowed core."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
