"""Correction of measured times for the speed of a shared machine.

On a small shared machine the interpreter's speed drifts by tens of percent
over seconds to minutes, with the same program and inputs.  A side thread
runs a fixed calibration loop every INTERVAL_S and records the CPU time it
took (thread CPU time, so waiting for the interpreter lock or for a core is
not counted).  A time measured on the main thread, or in a child process
that the main thread waits for, is then scaled to the reference speed:

    corrected = wall * mean(REFERENCE_S / calibration) over the samples taken
                while it ran (plus the one just before and just after).

REFERENCE_S is a fixed constant, so corrected times read as seconds on a
machine where one calibration loop takes exactly REFERENCE_S.
"""
from __future__ import annotations

import bisect
import os
import threading
from fractions import Fraction
from random import Random
from time import perf_counter, thread_time

REFERENCE_S = 0.003
INTERVAL_S = 0.1


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: tuple[int, int], value: int):
        self.key = key
        self.value = value


def _mix(x: int, width: int) -> int:
    return (x ^ (x >> 7)) & ((1 << width) - 1)


def calibration() -> int:
    """Fixed work in the mix the workloads use: calls, small objects, tuples,
    dicts, bit operations, a seeded generator and Fractions."""
    rng = Random(12345)
    table: dict[tuple[int, int], _Cell] = {}
    acc = Fraction(0)
    total = 0
    for i in range(1000):
        key = (i % 97, i & 15)
        cell = table.get(key)
        if cell is None:
            table[key] = cell = _Cell(key, 0)
        cell.value ^= _mix(i * 2654435761, 12)
        total += cell.value.bit_count() + rng.randrange(1, 64)
        if i & 7 == 0:
            acc += Fraction(i % 11 + 1, i % 7 + 1)
        if i & 31 == 0:
            total += sum(sorted(c.value & 255 for c in list(table.values())[:8]))
    return len(table) + acc.denominator + total


def pin_to_one_cpu() -> None:
    """Keep this process, its probe thread and its children on one CPU, so
    that the probe measures the speed of the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples the calibration loop on a side thread until stopped."""

    def __init__(self):
        self.times: list[float] = []   # wall clock at the end of each sample
        self.factors: list[float] = []  # REFERENCE_S / calibration CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        t0 = thread_time()
        calibration()
        self.factors.append(REFERENCE_S / (thread_time() - t0))
        self.times.append(perf_counter())

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def correct(self, start: float, end: float) -> float:
        """The wall interval [start, end] scaled to the reference speed."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        factors = self.factors[lo:hi]
        return (end - start) * sum(factors) / len(factors)
