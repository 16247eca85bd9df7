"""The vectorized fold against `fold_sum`, and the numpy rounding it relies on."""

import random
from itertools import accumulate

import numpy as np

from cdss_sim.sums import FOLD_BLOCK, fold_cycle, fold_sum


def folded_rows(start, cycle, first, count):
    """`fold_cycle` by `fold_sum`, one row at a time."""
    n = len(cycle[0])
    return [fold_sum([row[(first + j) % n] for j in range(count)], s)
            for s, row in zip(start, cycle)]


def test_numpy_accumulate_rounds_left_to_right():
    # `fold_cycle` gives `fold_sum`'s bits only because np.add.accumulate
    # rounds each step in order, along a row of a 2-D block as in one
    # dimension.  1e16 + 1.0 rounds back to 1e16, so an in-order fold of
    # these never moves, while a pairwise or compensated sum adds the ones
    # up first.  A numpy that reorders the steps fails here, before it can
    # change a report file.
    values = [1e16] + [1.0] * 99
    assert np.add.accumulate(np.array(values)).tolist() == list(accumulate(values))
    assert np.add.accumulate(np.array(values))[-1] == 1e16
    rng = random.Random(71)
    rows = [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 16) for _ in range(3000)]
            for _ in range(5)]
    block = np.zeros((5, 3200))[:, 100:3100]        # a strided view, as in fold_cycle
    block[:] = rows
    assert np.add.accumulate(block, axis=1).tolist() == [list(accumulate(r)) for r in rows]


def test_fold_cycle_equals_fold_sum():
    # Bit for bit, `==` on floats: the tiled [1e16, 1.0, -1e16], whose
    # in-order fold and exact sum differ; random magnitudes from 1e-8 to
    # 1e16; every start position; and counts below, at and above a whole
    # cycle and a whole block, so that the running value crosses blocks.
    rng = random.Random(72)
    cycles = [[[1e16, 1.0, -1e16]]]
    for n in (1, 2, 7, FOLD_BLOCK + 3):
        cycles.append([[rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-8, 16) for _ in range(n)]
                       for _ in range(4)])
    checked = 0
    for cycle in cycles:
        n = len(cycle[0])
        start = [rng.choice([0.0, 1e16, rng.uniform(0.0, 1e6)]) for _ in cycle]
        counts = {1, n - 1, n, n + 1, 5 * n + 2, FOLD_BLOCK - 1, FOLD_BLOCK + 1,
                  3 * FOLD_BLOCK + 5}
        for first in sorted({0, 1 % n, n // 2, n - 1}):
            for count in sorted(c for c in counts if c > 0):
                got = fold_cycle(np.array(start), np.array(cycle), first, count).tolist()
                assert got == folded_rows(start, cycle, first, count), (n, first, count)
                checked += 1
    assert checked > 100
    # the in-order fold of [1e16, 1.0, -1e16] loses the 1.0 each time
    assert fold_cycle(np.zeros(1), np.array([[1e16, 1.0, -1e16]]), 0, 3 * 500).tolist() == [0.0]
