"""np.sum of short lists of Python floats or their squares, bit for bit."""

from __future__ import annotations

import numpy as np


def pairwise_sum(values: list[float]) -> float:
    """float(np.sum(values)), bit for bit: from 0.0, up to 7 terms left to
    right, up to 128 into 8 accumulators (term i into accumulator i mod 8)
    added pairwise and then the n mod 8 last terms; longer ones np.sum."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        return float(np.sum(values))
    acc = values[:8]
    end = n - n % 8
    for i in range(8, end):
        acc[i % 8] += values[i]
    total = 0.0 + (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                   + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
    for value in values[end:]:
        total += value
    return total


def sum_of_squares(values: list[float], centre: float) -> float:
    """float(np.sum((np.array(values) - centre) ** 2)), bit for bit: squares
    d * d, fewer than 8 added as they are made, in `pairwise_sum`'s order."""
    if len(values) < 8:
        total = 0.0
        for value in values:
            total += (d := value - centre) * d
        return total
    return pairwise_sum([(d := value - centre) * d for value in values])
