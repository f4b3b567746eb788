"""The host's current speed, from a fixed piece of pure-Python work.

The machine the benchmark runs on changes speed by up to 1.7x within
seconds, for reasons outside the program (other tenants of a shared host).
Each worker therefore times `reference()` right before and after its job,
and the benchmark reports a job's time scaled to a host on which the
reference takes NOMINAL_S:

    normalized = measured * NOMINAL_S / reference time

The reference is plain interpreter work of the kind the library does
(tuples as dictionary keys, big-integer and Fraction arithmetic) and never
touches the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.005  # about its time on the recorded host at its usual speed
REPEATS = 3


def reference() -> tuple:
    acc: dict[tuple[int, int, int], int] = {}
    x = 1
    for i in range(8000):
        key = (i % 97, i % 89, (i * 7) % 83)
        acc[key] = acc.get(key, 0) + i
        x = (x * 31 + i) % (1 << 127)
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i % 7 + 1, i)
    return len(acc), x, f


def measure() -> list[float]:
    """REPEATS timings of the reference, after one untimed warm-up call."""
    reference()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return times


def normalize(seconds: float, ref_times: list[float]) -> float:
    return seconds * NOMINAL_S / statistics.median(ref_times)
