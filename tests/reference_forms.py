"""Forms the library no longer defines, kept verbatim for the tests.

A run builds its first search distribution and the approximate ranking
reads a local model's value at its centre, `beta[-1]`, so `src/` needs
no full-basis prediction, no unit-covariance constructor and no archive
reader. The tests still check fits against full quadratics, start
distributions at C = I and read dumped archives back, with these.

The second part holds the earlier forms of bodies that now run on Python
floats or keep less, and the last the local fit's solve as it made two
LAPACK calls; the library's forms must give the same bits.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from wellopt.cma import SearchDistribution, StrategyParams
from wellopt.constraints import (MAX_RESAMPLES, PenaltyState, SumConstraint,
                                 is_feasible)
from wellopt.harness import fmt
from wellopt.metamodel import (RIDGE_SCALE, LocalQuadraticModel,
                               SurrogateUnavailable, TrainingArchive,
                               _cross_indices)
from wellopt.wells.geometry import WellGeometry


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
    """Read back an `archive_<seed>.csv` that a run wrote."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    dim = len(rows[0]) - 1
    archive = TrainingArchive(dim)
    for row in rows[1:]:
        archive.add(np.array([float(v) for v in row[:dim]]).tobytes(),
                    float(row[dim]))
    return archive


def archive_csv(archive: TrainingArchive) -> str:
    """The text `TrainingArchive.save_csv` wrote: one LF-terminated row per
    regression entry, read from the archive's stored keys and values."""
    lines = [",".join([f"x{i}" for i in range(archive.dim)] + ["objective"])]
    lines.extend(",".join(map(fmt, [*np.frombuffer(key), value]))
                 for key, value in zip(archive._keys, archive._values))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Per-candidate and per-constraint bodies before they ran on Python
# floats, for the bit tests in `test_candidate_bits.py`.

def sphere(x: np.ndarray, center: float | np.ndarray = 0.0) -> float:
    """Sum of squared deviations from `center`; global minimum 0."""
    x = np.asarray(x, dtype=float)
    return float(((x - center) ** 2).sum())


def geometry_sum(values: list[float]) -> float:
    """np.sum of the values, with its bits: np.sum adds fewer than 8 terms
    left to right from 0.0; longer sums go to np.sum (pairwise order)."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


class ArchiveWithCopies(TrainingArchive):
    """`TrainingArchive` as it kept a copy of each regression genome."""

    def __init__(self, dim: int):
        self.dim = dim
        self._genomes: list[np.ndarray] = []
        self._values: list[float] = []
        self._index: dict[bytes, float] = {}
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._genomes)

    def add(self, genome: np.ndarray, value: float,
            key: bytes | None = None) -> bool:
        """Record one evaluation; returns True when it became regression
        data (False for duplicates and non-finite values). `key` is the
        float array `genome`'s `tobytes()` when the caller has it."""
        if key is None:
            genome = np.asarray(genome, dtype=float)
            key = genome.tobytes()
        if key in self._index:
            return False
        value = float(value)
        self._index[key] = value
        if not math.isfinite(value):
            return False
        self._genomes.append(genome.copy())
        self._values.append(value)
        self._matrix = None
        return True

    def newest(self) -> tuple[np.ndarray, float]:
        """The regression entry added last (the highest index)."""
        return self._genomes[-1], self._values[-1]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._matrix is None:
            self._matrix = np.array(self._genomes, dtype=float).reshape(
                len(self._genomes), self.dim)
        return self._matrix, np.asarray(self._values, dtype=float)


class Evaluator:
    """`harness.Evaluator` as it ran on `ArchiveWithCopies`."""

    def __init__(self, fn, archive: TrainingArchive):
        self._fn = fn
        self.archive = archive
        self.count = 0
        self.nonfinite = 0

    def __call__(self, genome: np.ndarray) -> float:
        genome = np.asarray(genome, dtype=float)
        key = genome.tobytes()
        value = self.archive.lookup(key)
        if value is None:
            value = float(self._fn(genome))
            self.count += 1
            if not math.isfinite(value):
                self.nonfinite += 1
            self.archive.add(genome, value, key)
        return value


def mean_1d(values: np.ndarray) -> float:
    """np.mean of a non-empty 1-D float array, bit for bit, at less cost."""
    return values.sum().item() / len(values)


@dataclass
class FlaggedPenaltyState(PenaltyState):
    """`PenaltyState` as `maybe_set_gammas` below kept it: the weights an
    ndarray changed in place, and a flag that they are set."""

    gammas_initialized: bool = field(init=False, default=False)

    def __post_init__(self, n_constraints: int, dim: int, lam: int):
        super().__post_init__(n_constraints, dim, lam)
        self.gammas = np.zeros(n_constraints)


def maybe_set_gammas(state: FlaggedPenaltyState, dist: SearchDistribution,
                     constraints: list[SumConstraint]) -> None:
    """One-time gamma initialization, from the second generation onward.

    If the distribution mean is unfeasible for any constraint and the
    weights are not set yet, every gamma becomes
    2 * delta_fit / (sigma^2 * mean(diag(C))), where delta_fit is the
    median of the stored per-generation objective IQRs. A value that is
    not finite and positive carries no scale (a plateau gives 0), so gamma
    stays 0 and uninitialized until a generation yields one; until then
    `maybe_increase_gammas` would only ever multiply 0.
    """
    if (dist.generation < 1 or state.gammas_initialized or not constraints
            or not state.fitness_history):
        return
    if is_feasible(dist.mean, constraints):
        return
    delta_fit = state.median_iqr()
    mean_diag = mean_1d(dist.covariance.diagonal())
    value = 2.0 * delta_fit / (dist.step_size ** 2 * mean_diag)
    if math.isfinite(value) and value > 0.0:
        state.gammas[:] = value
        state.gammas_initialized = True


def increase_trigger_threshold(dist: SearchDistribution, params: StrategyParams,
                               constraint: SumConstraint) -> float:
    """Distance from the feasible interval beyond which gamma grows."""
    n = dist.dim
    diag = dist.covariance.diagonal()
    spread = math.sqrt(mean_1d(diag[constraint.index_array]))
    return dist.step_size * spread * max(1.0, math.sqrt(n) / params.mu_eff)


def xi_factors(dist: SearchDistribution,
               constraints: list[SumConstraint]) -> np.ndarray:
    """Per-constraint scale xi_j comparing the sampling log-variance over
    the constraint's coordinate subset with the overall log-variance."""
    log_diag = np.log(dist.covariance.diagonal())
    overall = mean_1d(log_diag)
    return np.array([
        math.exp(0.9 * (mean_1d(log_diag[c.index_array]) - overall))
        for c in constraints])


def _block_sums(X: np.ndarray, constraint: SumConstraint) -> np.ndarray:
    """q of every row of X, with the bits `constraint_violation` gives
    each row.

    `take` keeps each row's terms contiguous, so the row-wise sum adds
    them in the pairwise order of a 1-D sum. (`X[:, idx]` is laid out
    column-major and is summed left to right, which differs from 8 terms
    on.)
    """
    if len(constraint.indices) == 1:
        return X[:, constraint.indices[0]] + 0.0
    return X.take(constraint.index_array, axis=1).sum(axis=1)


def sample_with_rejection(draw, count: int, constraints: list[SumConstraint],
                          rejection_fraction: float
                          ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Draw `count` candidates, redrawing each while any constraint rejects it.

    `draw(m)` returns m genomes as the rows of an (m, n) array, with the
    values and generator state of m successive single draws. Draws go to
    candidates in stream order: a candidate takes draws until one is
    accepted, or until it has been redrawn MAX_RESAMPLES times, when it
    keeps its last draw. Each round draws exactly as many genomes as
    candidates are still missing, so the stream ends where drawing one
    genome at a time would leave it.

    Returns `(genomes, sums, resamples, exhaustions)`: the (count, n)
    candidates; `sums[j]`, one contiguous row of constraint j's sums q_j
    over the candidates; the number of rejected draws; and the number of
    candidates kept at the cap with a draw the rule rejects. With no
    constraints the first block is returned untouched.
    """
    if not rejection_fraction > 0:
        raise ValueError("rejection_fraction must be positive")
    if not constraints:
        return draw(count), np.empty((0, count)), 0, 0
    lower = np.array([[c.lower] for c in constraints])
    upper = np.array([[c.upper] for c in constraints])
    kept_genomes, kept_sums = [], []
    drawn = missing = count
    tries = exhaustions = 0   # redraws of the candidate being filled
    while True:
        X = draw(missing)
        Q = np.array([_block_sums(X, c) for c in constraints])
        # A draw is rejected when some distance |q_feas - q| exceeds
        # rejection_fraction * |q| (at q == 0 any violation rejects). Out of
        # the interval the larger difference is that distance, with its
        # bits; inside it is <= 0 and never rejects, as 0 does.
        rejected = (np.maximum(lower - Q, Q - upper)
                    > rejection_fraction * np.abs(Q)).any(axis=0)
        rows = []
        for row, bad in enumerate(rejected.tolist()):
            if bad and tries < MAX_RESAMPLES:
                tries += 1
                continue
            exhaustions += bad
            tries = 0
            rows.append(row)
        if len(rows) < len(X):
            X, Q = X[rows], Q.take(rows, axis=1)
        kept_genomes.append(X)
        kept_sums.append(Q)
        missing -= len(rows)
        if not missing:
            break
        drawn += missing
    if len(kept_genomes) > 1:
        X, Q = np.concatenate(kept_genomes), np.concatenate(kept_sums, axis=1)
    return X, Q, drawn - count, exhaustions


def midpoint(well: WellGeometry) -> np.ndarray:
    """`proxy._midpoint` as numpy arithmetic."""
    return 0.5 * (np.array(well.heel) + np.array(well.toe))


# ---------------------------------------------------------------------------
# The local fit's solve as two LAPACK calls, factor then solve, for the
# bit tests in `test_solve_bits.py`.

@lru_cache(maxsize=None)
def _lapack():
    """LAPACK's (dpotrf, dpotrs), imported once, on the first fit."""
    from scipy.linalg.lapack import dpotrf, dpotrs
    return dpotrf, dpotrs


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with A x = b by LAPACK potrf/potrs; None unless A is SPD, x finite."""
    dpotrf, dpotrs = _lapack()
    factor, info = dpotrf(A, lower=1, clean=0)
    if info == 0:
        x, info = dpotrs(factor, b, lower=1)
        if info == 0 and np.isfinite(x).all():
            return x
    return None


def _solve_normal_equations(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    beta = _cholesky_solve(A, b)
    if beta is None:
        ridge = RIDGE_SCALE * max(np.trace(A), np.finfo(float).tiny) / p
        beta = _cholesky_solve(A + ridge * np.diag([1.0] * (p - 1) + [0.0]), b)
    if beta is None:
        raise SurrogateUnavailable("degenerate local design matrix")
    return beta
