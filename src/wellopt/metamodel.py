"""Locally weighted full-quadratic surrogate and its approximate-ranking loop.

Every true objective evaluation lands in a training archive. Once the
archive is large enough, each generation is ranked mostly from local
quadratic fits: for a query point, the k nearest archive entries under
the Mahalanobis distance of the current search covariance are
kernel-weighted and a full quadratic is fit by weighted least squares.
True evaluations are spent one at a time until the surrogate-induced
ranking of the elite stabilizes, so a generation costs 1 + n_ic true
evaluations instead of lambda.

A generation arrives as the (lambda, n) genome block the sampler draws,
with one penalty amount per candidate, and leaves as per-candidate lists
of raw objectives, ranking values and true-evaluation flags, ordered by
`cma.rank_population`. One cycle loop ranks it. Cycle 0 scans the archive
once per candidate, fits every candidate and evaluates the predicted best.
Each true evaluation that grows the archive is folded into the held
neighbour sets in place (`admit_newest`), and the candidates whose set it
joined become stale: only those are refitted and re-valued.

Each fit solves its normal equations with one call of LAPACK's Cholesky
solver from scipy. scipy is imported on the first fit, not with this
module, so runs that never fit a local model (plain CMA-ES, the GA,
evaluating a genome) start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cma import SearchDistribution, StrategyParams, rank_population
from .constraints import penalized

RIDGE_SCALE = 1e-8
# lmm-CMA's lambda/4: below lam * MAX_CYCLE_FRACTION true evaluations a
# change of the mu-best set, not only of the best, keeps the ranking going.
MAX_CYCLE_FRACTION = 0.25


@lru_cache(maxsize=None)
def _cross_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


class SurrogateUnavailable(RuntimeError):
    """Raised when no usable local model can be built."""


def basis_size(dim: int) -> int:
    """Number of full-quadratic coefficients, n(n+3)/2 + 1."""
    return dim * (dim + 3) // 2 + 1


def kernel(zeta: float | np.ndarray) -> float | np.ndarray:
    """Biquadratic weighting kernel K(zeta) = (1 - zeta^2)^2."""
    return (1.0 - zeta ** 2) ** 2


class TrainingArchive:
    """Append-only store of (genome, true objective) pairs, each genome
    kept as its key: the bytes of its float64 array (`tobytes()`).

    The archive is also the memo of true evaluations: `lookup` answers
    for every key ever added, finite or not, and `evaluations` counts
    those keys. Only finite pairs become regression data (`len`,
    `as_arrays`), and exact-duplicate genomes are skipped, so the
    regression data stay clean. The store is unbounded.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._keys: list[bytes] = []
        self._values: list[float] = []
        self._index: dict[bytes, float] = {}
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def evaluations(self) -> int:
        """Keys in the memo: every genome added, finite or not."""
        return len(self._index)

    def add(self, key: bytes, value: float) -> bool:
        """Record one evaluation; returns True when it became regression
        data (False for duplicates and non-finite values)."""
        if key in self._index:
            return False
        self._index[key] = value
        if not math.isfinite(value):
            return False
        self._keys.append(key)
        self._values.append(value)
        self._arrays = None
        return True

    def newest(self) -> tuple[np.ndarray, float]:
        """The regression entry added last (the highest index). The ranking
        step folds it, not the candidate it evaluated, into the held
        neighbour sets: an evaluation may archive another genome (a
        projected one) or none, and the sets must match the archive."""
        return np.frombuffer(self._keys[-1]), self._values[-1]

    def lookup(self, key: bytes) -> float | None:
        """The recorded value of a genome's key, or None if it was never
        added."""
        return self._index.get(key)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Regression genomes (rows) and objectives, built once per growth."""
        if self._arrays is None:
            values = np.asarray(self._values, dtype=float)
            values.flags.writeable = False
            self._arrays = (np.frombuffer(b"".join(self._keys)).reshape(
                len(self._keys), self.dim), values)
        return self._arrays


@dataclass(frozen=True)
class SurrogateSettings:
    """Neighbor count and the archive size that activates the surrogate."""

    k: int
    min_archive_size: int

    def validate(self, dim: int):
        if self.k < basis_size(dim):
            raise ValueError(
                f"surrogate.k={self.k} too small: a full quadratic in {dim} "
                f"dimensions needs at least {basis_size(dim)} neighbors")
        if self.min_archive_size < self.k:
            raise ValueError("surrogate.min_archive_size must be >= k")


def default_surrogate_settings(dim: int) -> SurrogateSettings:
    k = basis_size(dim) + 9
    return SurrogateSettings(k=k, min_archive_size=math.ceil(1.6 * k))


@dataclass
class LocalQuadraticModel:
    """Fitted quadratic in the centred, scaled u = (z - center) / scale,
    beta over the basis (u1^2..un^2, u1u2..u_{n-1}un with i < j in row
    order, u1..un, 1): beta[-1] is the value at the centre."""

    beta: np.ndarray
    center: np.ndarray
    bandwidth: float
    scale: float


class MahalanobisMetric:
    """Distances d(z, q) = sqrt((z-q)^T C^{-1} (z-q)) for a fixed SPD C."""

    def __init__(self, covariance: np.ndarray):
        chol = np.linalg.cholesky(0.5 * (covariance + covariance.T))
        # inv(L) applied by matmul beats a triangular solve per query at
        # these sizes; C is floored SPD upstream so L is well-conditioned.
        self._inv_chol_t = np.linalg.inv(chol).T

    def distances_to(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        v = (points - q) @ self._inv_chol_t
        return np.sqrt(np.sum(v * v, axis=1))


def select_neighbors(archive: TrainingArchive, q: np.ndarray,
                     metric: MahalanobisMetric, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k entries nearest to q of an archive that holds at least k;
    ties keep insertion order.

    Returns (genomes, objectives, distances), sorted by distance.
    """
    points, values = archive.as_arrays()
    distances = metric.distances_to(points, q)
    chosen = np.argsort(distances, kind="stable")[:k]
    return points[chosen], values[chosen], distances[chosen]


def admit_newest(archive: TrainingArchive, metric: MahalanobisMetric,
                 queries: np.ndarray,
                 neighbor_sets: dict[int, tuple[np.ndarray, np.ndarray,
                                                np.ndarray]]) -> list[int]:
    """Fold the archive's newest entry into held k-NN sets, in place.

    `neighbor_sets[j]` is the (genomes, objectives, distances) triple that
    `select_neighbors` returned for `queries[j]` on the archive without
    that entry. The entry joins a set only when it lies strictly inside
    the set's k-th distance. It then displaces the farthest member and
    goes after every member at a distance <= its own: the place a stable
    sort of the grown archive gives it, since it has the highest index.
    Each updated set equals a fresh `select_neighbors` scan, bit for bit.
    Returns the indices of the sets it joined.
    """
    genome, objective = archive.newest()
    # Subtracting the queries from the entry runs in the scan's direction,
    # and the product has all the queries' rows: one row would go through
    # gemv, whose rounding differs from the scan's gemm.
    distances = metric.distances_to(genome, queries)
    joined = []
    for j, (genomes, objectives, held) in neighbor_sets.items():
        distance = distances[j]
        if not distance < held[-1]:
            continue
        pos = int(np.searchsorted(held[:-1], distance, side="right"))
        for column, value in ((genomes, genome), (objectives, objective),
                              (held, distance)):
            column[pos + 1:] = column[pos:-1]
            column[pos] = value
        joined.append(j)
    return joined


def fit_local_model(neighbor_genomes: np.ndarray, neighbor_values: np.ndarray,
                    neighbor_distances: np.ndarray, q: np.ndarray
                    ) -> LocalQuadraticModel:
    """Kernel-weighted least-squares fit of a full quadratic around q.

    The bandwidth is the distance of the k-th (farthest) neighbor, which
    therefore receives weight exactly zero. The model lives in centred,
    scaled coordinates u = (z - q) / s (s the RMS neighbor offset). The
    design is written basis-row-major with y as its last row, so one
    product gives the weighted normal equations A beta = b, solved by
    Cholesky with a trace-scaled ridge (intercept excluded) as fallback.
    """
    X, d = neighbor_genomes, neighbor_distances
    k, n = X.shape
    p = basis_size(n)
    h = float(d[-1])
    if not h > 0:
        raise SurrogateUnavailable("zero bandwidth: neighbors coincide with q")
    weights = kernel(d / h)

    center = np.array(q, dtype=float)
    i_idx, j_idx = _cross_indices(n)
    cross = n + len(i_idx)
    rows = np.empty((p + 1, k))
    U = rows[cross:p - 1]
    np.subtract(X.T, center[:, None], out=U)
    scale = math.sqrt(float((U * U).sum()) / U.size)
    if not scale > 0:
        scale = 1.0
    U /= scale
    np.multiply(U, U, out=rows[:n])
    np.multiply(U[i_idx], U[j_idx], out=rows[n:cross])
    rows[p - 1] = 1.0
    rows[p] = neighbor_values

    normal = (rows[:p] * weights) @ rows.T
    beta = _solve_normal_equations(normal[:, :p], normal[:, p], p)
    return LocalQuadraticModel(beta=beta, center=center, bandwidth=h,
                               scale=scale)


@lru_cache(maxsize=None)
def _lapack():
    """LAPACK's dposv, imported once, on the first fit."""
    from scipy.linalg.lapack import dposv
    return dposv


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with A x = b by one LAPACK posv call, which factors A = L L^T and
    solves; None unless A is SPD and x finite."""
    _, x, info = _lapack()(A, b, lower=1)
    return x if info == 0 and np.isfinite(x).all() else None


def _solve_normal_equations(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    beta = _cholesky_solve(A, b)
    if beta is None:
        ridge = RIDGE_SCALE * max(np.trace(A), np.finfo(float).tiny) / p
        beta = _cholesky_solve(A + ridge * np.diag([1.0] * (p - 1) + [0.0]), b)
    if beta is None:
        raise SurrogateUnavailable("degenerate local design matrix")
    return beta


def ranking_continues(cycle: int, lam: int, set_changed: bool,
                      elt_changed: bool) -> bool:
    """Acceptance check of one approximate-ranking cycle.

    Cycles 0 and 1 always continue: until a ranking made after the first
    true evaluation is compared, stability cannot be observed. While fewer
    than `lam * MAX_CYCLE_FRACTION` individuals are truly evaluated (cycle
    + 1 after this cycle's evaluation), any change of the mu-best set or
    of the best keeps the procedure going; past that only the best matters.
    """
    if cycle <= 1:
        return True
    if (cycle + 1) < lam * MAX_CYCLE_FRACTION:
        return set_changed or elt_changed
    return elt_changed


def approximate_ranking_step(genomes: np.ndarray,
                             archive: TrainingArchive,
                             dist: SearchDistribution,
                             params: StrategyParams,
                             settings: SurrogateSettings,
                             true_eval, amounts: list[float]
                             ) -> tuple[list[int], int, list[float],
                                        list[float], list[bool]]:
    """Rank one generation, spending true evaluations only until stable.

    The archive holds at least `settings.min_archive_size` (>= k) entries.
    Each cycle refits the stale candidates (the rows of `genomes`; in
    cycle 0 all of them), ranks the generation and, while
    `ranking_continues` on the changes of the mu-best set and the best,
    truly evaluates the best unevaluated candidate.

    `true_eval(genome) -> raw objective` must insert into `archive` as a
    side effect, at most one entry per call (the shared evaluation wrapper
    adds the genome unless it is known or its value is not finite); the
    step reads the new entry from the archive. `amounts[i]` is candidate
    i's penalty amount, computed once per generation by the caller; each
    prediction and true evaluation is ranked by `penalized(raw[i],
    amounts[i])`.

    Returns (ranking, n_ic, raw, values, evaluated): per candidate, its
    raw objective (true or predicted), its ranking value, and whether it
    was truly evaluated. `sum(evaluated)` is 1 + n_ic. If model fitting
    degenerates mid-step, the whole generation falls back to true
    evaluation, and n_ic is then lam - 1.
    """
    lam = len(genomes)
    metric = MahalanobisMetric(dist.covariance)

    raw = [math.nan] * lam
    values = [math.nan] * lam
    evaluated = [False] * lam
    # Per unevaluated candidate: its k-NN set, scanned once in cycle 0 and
    # then kept current by `admit_newest`. A candidate is stale until it is
    # fitted on its current set; refitting an unchanged set would give the
    # same bits, so `raw[i]` is the prediction cache.
    neighbor_sets: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    stale = set(range(lam))

    def evaluate(i: int):
        size = len(archive)
        raw[i] = true_eval(genomes[i])
        values[i] = penalized(raw[i], amounts[i])
        evaluated[i] = True
        neighbor_sets.pop(i, None)
        # A duplicate or non-finite value leaves the archive, and so every
        # set and prediction, as it was.
        if neighbor_sets and len(archive) > size:
            stale.update(admit_newest(archive, metric, genomes, neighbor_sets))

    n_ic = 0
    set_prev = elt_prev = None
    try:
        for cycle in range(lam):
            for i in sorted(stale):
                genome = genomes[i]
                if i not in neighbor_sets:
                    neighbor_sets[i] = select_neighbors(
                        archive, genome, metric, settings.k)
                model = fit_local_model(*neighbor_sets[i], genome)
                raw[i] = float(model.beta[-1])
                values[i] = penalized(raw[i], amounts[i])
            stale.clear()
            order = rank_population(values)
            set_cur = frozenset(order[:params.mu])
            elt_cur = order[0]
            if not ranking_continues(cycle, lam, set_cur != set_prev,
                                     elt_cur != elt_prev):
                break
            evaluate(next(i for i in order if not evaluated[i]))
            n_ic = cycle
            set_prev, elt_prev = set_cur, elt_cur
    except SurrogateUnavailable:
        # no prediction is read again: the held sets go, and every
        # candidate left is evaluated
        neighbor_sets.clear()
        for i in range(lam):
            if not evaluated[i]:
                evaluate(i)
        n_ic = lam - 1
    return rank_population(values), n_ic, raw, values, evaluated
