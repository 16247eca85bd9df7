"""Float sums in one fixed order, whatever the Python or numpy version."""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable

import numpy as np

# Columns per block of `fold_cycle`, so its memory does not grow with the
# number of columns folded.
FOLD_BLOCK = 1024


def fold_sum(values: Iterable[float], start: float = 0) -> float:
    """`start + v0 + v1 + ...`, added left to right with each step rounded.

    With the default int 0 start this is `sum()` of floats up to Python
    3.11, bit for bit, and an empty input still gives 0.  From 3.12
    `sum()` compensates its rounding errors (gh-100425), so its last bits
    can differ, and so would every report file that prints a sum.
    """
    return reduce(add, values, start)


def fold_cycle(start: np.ndarray, cycle: np.ndarray, first: int, count: int) -> np.ndarray:
    """`fold_sum` of every row of a rows-by-n `cycle` at once: row i of the
    result is `fold_sum([cycle[i, (first + j) % n] for j in range(count)],
    start[i])`, the row's columns from `first` on, repeated.

    `np.add.accumulate` rounds each step left to right, as `fold_sum` does
    (a pairwise `np.sum` does not).  The cycle rolled to `first` is tiled
    into a block of whole cycles, at most about FOLD_BLOCK columns, folded
    as often as needed, each time from the running value the last left.
    """
    rows, n = cycle.shape
    reps = max(1, min(-(-count // n), FOLD_BLOCK // n))
    width = n * reps
    block = np.empty((rows, width + 1))
    # a (rows, reps, n) view of the block's columns after the first
    block[:, 1:].reshape(rows, reps, n)[:] = np.concatenate(
        (cycle[:, first % n:], cycle[:, :first % n]), axis=1)[:, None]
    total = np.asarray(start, dtype=float)
    while count > 0:
        take = min(width, count)
        block[:, 0] = total
        total = np.add.accumulate(block[:, :take + 1], axis=1)[:, -1]
        count -= take
    return total
