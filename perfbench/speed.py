"""Machine-speed reference for the benchmark's times.

The shared hosts this benchmark runs on drift in speed by tens of
percent over seconds to minutes, which a median within one run cannot
remove, and the drift hits interpreter loops, allocation and memory
traffic unequally.  So a fixed kernel that uses no qfm code is timed
between the operations of every pass, in four parts that match the
kinds of work the workloads do: a Python float loop, float repr
formatting and joining, numpy over a cache-resident array and numpy
over a 2 MB array.  A pass's slowness is the geometric mean over the
parts of median part time / reference part time, and the pass's times
are divided by it, so they read as milliseconds at the speed where each
part takes its reference time.  No change to qfm can move the kernel,
so a change moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# part times in ms at the reference speed
REFERENCE_MS = (1.5, 2.0, 1.3, 1.9)

_SMALL = np.arange(40_000.0)
_LARGE = np.arange(250_000.0)


def _interpreter():
    x = 0.0
    for i in range(20_000):
        x += math.sqrt(i) * 0.5
    return x


def _formatting():
    return len(",".join([repr(i * 0.1) for i in range(5_000)]))


def _cached_numpy():
    return sum(float(np.exp(-_SMALL * 1e-5).sum()) for _ in range(15))


def _memory_numpy():
    return float(np.exp(-_LARGE * 1e-6).sum())


_PARTS = (_interpreter, _formatting, _cached_numpy, _memory_numpy)


def sample() -> tuple:
    """Wall time in ms of each part of the kernel, run once."""
    times = []
    for part in _PARTS:
        start = time.perf_counter()
        part()
        times.append((time.perf_counter() - start) * 1e3)
    return tuple(times)


def factor(samples) -> float:
    """Scale from raw to reference-speed times for these kernel samples:
    the inverse of the geometric-mean slowness of the parts."""
    logs = [
        math.log(statistics.median(s[j] for s in samples) / ref)
        for j, ref in enumerate(REFERENCE_MS)
    ]
    return math.exp(-sum(logs) / len(logs))
