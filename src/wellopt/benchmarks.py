"""Synthetic objective functions for exercising the optimizers."""

from __future__ import annotations

import numpy as np


def sphere(x: np.ndarray, center: float | np.ndarray = 0.0) -> float:
    """Sum of squared deviations from `center`; global minimum 0."""
    x = np.asarray(x, dtype=float)
    return float(((x - center) ** 2).sum())


def rosenbrock(x: np.ndarray) -> float:
    """Classic banana valley; global minimum 0 at (1, ..., 1)."""
    x = np.asarray(x, dtype=float)
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2
                  + (1.0 - x[:-1]) ** 2).sum())


DEFAULT_BOUNDS = {
    "sphere": (-5.0, 5.0),
    "rosenbrock": (-2.0, 2.0),
}
