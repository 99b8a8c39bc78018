"""Forms the library no longer defines, kept verbatim for the tests.

A run builds its first search distribution and the approximate ranking
reads a local model's value at its centre, `beta[-1]`, so `src/` needs
no full-basis prediction, no unit-covariance constructor and no archive
reader. The tests still check fits against full quadratics, start
distributions at C = I and read dumped archives back, with these.
"""

import numpy as np

from wellopt.cma import SearchDistribution
from wellopt.metamodel import (LocalQuadraticModel, TrainingArchive,
                               _cross_indices)


def quadratic_basis(z: np.ndarray) -> np.ndarray:
    """Basis (z1^2..zn^2, z1z2..z_{n-1}z_n, z1..zn, 1), cross terms i<j."""
    z = np.asarray(z, dtype=float)
    i_idx, j_idx = _cross_indices(z.shape[0])
    return np.concatenate([z * z, z[i_idx] * z[j_idx], z, [1.0]])


def predict(model: LocalQuadraticModel, z: np.ndarray) -> float:
    u = (np.asarray(z, dtype=float) - model.center) / model.scale
    return float(model.beta @ quadratic_basis(u))


def initial_distribution(mean: np.ndarray,
                         step_size: float) -> SearchDistribution:
    """A distribution at `mean` with C = I and zero evolution paths."""
    mean = np.asarray(mean, dtype=float)
    n = mean.shape[0]
    return SearchDistribution(mean=mean, step_size=step_size,
                              covariance=np.eye(n), path_sigma=np.zeros(n),
                              path_c=np.zeros(n), generation=0)


def load_archive_csv(path) -> TrainingArchive:
    """Read back what `TrainingArchive.save_csv` wrote."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    dim = len(rows[0]) - 1
    archive = TrainingArchive(dim)
    for row in rows[1:]:
        archive.add(np.array([float(v) for v in row[:dim]]), float(row[dim]))
    return archive
