"""A fixed slice of interpreter work that measures the CPU's current speed.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within a second and between runs.  So every timing is
reported in reference-speed seconds: measured seconds times REFERENCE_S over
the median time of the calibration slices taken around them.  The slice
does dict, frozenset, tuple and sorting work, the same kind of work as most
of an `ordeq` op, and it is independent of the package.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 1e-3  # the slice's time at reference speed
# Slices on each side of an op that set its speed.  One slice is noisy next
# to an op of a few ms, and the speed drifts over tenths of a second.
WINDOW = 3


def slice_seconds() -> float:
    """Seconds one calibration slice takes now."""
    start = time.perf_counter()
    table = {}
    for i in range(1000):
        table[(i, i & 7)] = frozenset((i, i + 1, i & 3))
    ordered = sorted(table, key=lambda k: (-k[1], k[0]))
    sum(1 for k in ordered if (k[0] + 1, (k[0] + 1) & 7) in table)
    return time.perf_counter() - start


def scaled(seconds: float, around) -> float:
    """`seconds` in reference-speed seconds, given the slice times around it."""
    return seconds * REFERENCE_S / statistics.median(around)


def scaled_ops(ops, slices: list) -> list:
    """Reference-speed seconds of each op (seconds, j) that ran between slices j and j + 1."""
    return [scaled(seconds, slices[max(0, j + 1 - WINDOW):j + 1 + WINDOW])
            for seconds, j in ops]
