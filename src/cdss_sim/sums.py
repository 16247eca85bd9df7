"""Float sums in one fixed order, whatever the Python version."""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def fold_sum(values: Iterable[float], start: float = 0) -> float:
    """`start + v0 + v1 + ...`, added left to right with each step rounded.

    With the default int 0 start this is `sum()` of floats up to Python
    3.11, bit for bit, and an empty input still gives 0.  From 3.12
    `sum()` compensates its rounding errors (gh-100425), so its last bits
    can differ, and so would every report file that prints a sum.
    """
    return reduce(add, values, start)
