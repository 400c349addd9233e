"""The host clock, the speed probe and order statistics shared by the
benchmark and its tests."""

from __future__ import annotations

import functools
import statistics
import time
from typing import Sequence, Tuple

import numpy as np

#: Every host time the benchmark reports is CPU time of its one process.
#: The program is single-threaded and never sleeps, so on an idle core
#: this equals wall time; unlike wall time it leaves out the time the
#: process waits for a core that other processes, or the host of a
#: virtual machine (steal time), hold.  A slower program still shows in
#: full: its extra work is CPU time too.
clock = time.process_time

#: CPU seconds :func:`speed_probe` takes on the reference machine (two
#: cores of a shared x86-64 host with a 2 MB L2 per core, CPython 3.11).
#: Host times reported "at reference speed" are scaled to it.
PROBE_REF_S = 0.060


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


@functools.cache
def probe_arrays() -> Tuple[np.ndarray, np.ndarray]:
    """The probe's arrays, made on first use and held for the run: 4 MB,
    more than a core's L2, and 64 MB, streamed from the shared cache or
    memory."""
    rng = np.random.default_rng(0)
    return (rng.standard_normal(1 << 20, dtype=np.float32),
            rng.standard_normal(1 << 24, dtype=np.float32))


def speed_probe() -> float:
    """CPU seconds of a fixed piece of work that never touches the program.

    A shared host's core runs the same work at speeds up to 1.6x apart,
    in phases of seconds (other tenants' load on the shared core, caches
    and memory bandwidth), and CPU time does not remove that.  The benchmark runs this probe just before and just after
    every timed op and divides the op's CPU time by their mean
    (:attr:`bench.Outcome.ref_s`), so a phase slows op and probe alike
    and cancels.  The probe mixes the kinds of host work the workloads
    do: interpreter work (objects, attributes, dicts, lists, as in the
    packet engine), passes over an array larger than L2, and a read of
    an array far larger (as in the flow engines and tensor math, whose
    inputs are hundreds of MB).  A slower program still shows in full:
    the probe does not run its code.
    """
    small, large = probe_arrays()
    start = clock()
    table = {}
    keys = []
    total = 0
    for i in range(40000):
        record = _Record(i, total)
        table[i & 1023] = record
        keys.append(record.key)
        total += record.value % 7
    for _ in range(2):
        doubled = small * 2.0
        np.cumsum(doubled)
        np.flatnonzero(doubled != 0)
    np.count_nonzero(large)
    large.sum()
    return clock() - start


#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one outlier cannot set it.
TAIL_MARGIN = 10
#: Fewest samples whose qualifying tail percentile is at or above the
#: median.
TAIL_MIN_SAMPLES = 2 * TAIL_MARGIN + 1


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with at
    least :data:`TAIL_MARGIN` samples beyond it.

    Below :data:`TAIL_MIN_SAMPLES` that percentile would fall under the
    median, so the maximum (percentile 100) is reported instead, with its
    count.  Timed ops always reach the minimum; the modelled times of one
    pass (which repeat exactly) may not.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < TAIL_MIN_SAMPLES:
        return float(ordered[-1]), 100.0, n
    rank = n - TAIL_MARGIN - 1
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n
