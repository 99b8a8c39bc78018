"""Locally weighted full-quadratic surrogate and its approximate-ranking loop.

Every true objective evaluation lands in a training archive. Once the
archive is large enough, each generation is ranked mostly from local
quadratic fits: for a query point, the k nearest archive entries under
the Mahalanobis distance of the current search covariance are
kernel-weighted and a full quadratic is fit by weighted least squares.
True evaluations are spent one at a time until the surrogate-induced
ranking of the elite stabilizes, so a generation costs 1 + n_ic true
evaluations instead of lambda.

A generation scans the archive once per candidate, in its first
prediction pass. After that, each true evaluation that grows the archive
is folded into the held neighbour sets in place (`admit_newest`), and
only the candidates whose set it joined are refitted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .cma import (EvaluationSource, Individual, SearchDistribution,
                  StrategyParams, ranking_key)

RIDGE_SCALE = 1e-8


@lru_cache(maxsize=None)
def _cross_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


class SurrogateUnavailable(RuntimeError):
    """Raised when no usable local model can be built."""


def basis_size(dim: int) -> int:
    """Number of full-quadratic coefficients, n(n+3)/2 + 1."""
    return dim * (dim + 3) // 2 + 1


def quadratic_basis(z: np.ndarray) -> np.ndarray:
    """Basis (z1^2..zn^2, z1z2..z_{n-1}z_n, z1..zn, 1), cross terms i<j."""
    z = np.asarray(z, dtype=float)
    i_idx, j_idx = _cross_indices(z.shape[0])
    return np.concatenate([z * z, z[i_idx] * z[j_idx], z, [1.0]])


def kernel(zeta: float | np.ndarray) -> float | np.ndarray:
    """Biquadratic weighting kernel K(zeta) = (1 - zeta^2)^2."""
    return (1.0 - zeta ** 2) ** 2


class TrainingArchive:
    """Append-only store of (genome, true objective) pairs.

    The archive is also the memo of true evaluations: `lookup` answers
    for every genome ever added, finite or not. Only finite pairs become
    regression data (`len`, `as_arrays`), and exact-duplicate genomes are
    skipped, so the regression data stay clean. The store is unbounded.
    `select_neighbors` scans it; the ranking step does so once per
    candidate and generation and then follows growth through `newest`.
    """

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
        data (False for duplicates and non-finite values). `key` is
        `genome.tobytes()` when the caller already has it."""
        genome = np.asarray(genome, dtype=float)
        if key is None:
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

    def lookup(self, genome: np.ndarray,
               key: bytes | None = None) -> float | None:
        """The recorded value of `genome`, or None if it was never added.
        `key` is `genome.tobytes()` when the caller already has it."""
        if key is None:
            key = np.asarray(genome, dtype=float).tobytes()
        return self._index.get(key)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._matrix is None:
            self._matrix = np.array(self._genomes, dtype=float).reshape(
                len(self._genomes), self.dim)
        return self._matrix, np.asarray(self._values, dtype=float)

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(self.dim)] + ["objective"])
            for genome, value in zip(self._genomes, self._values):
                writer.writerow([repr(float(v)) for v in genome]
                                + [repr(float(value))])

    @classmethod
    def load_csv(cls, path) -> "TrainingArchive":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        dim = len(rows[0]) - 1
        archive = cls(dim)
        for row in rows[1:]:
            archive.add(np.array([float(v) for v in row[:dim]]), float(row[dim]))
        return archive


@dataclass(frozen=True)
class SurrogateSettings:
    """Neighbor count, activation threshold and the elite-check fraction."""

    k: int
    min_archive_size: int
    max_cycle_fraction: float = 0.25

    def validate(self, dim: int):
        if self.k < basis_size(dim):
            raise ValueError(
                f"k={self.k} too small: a full quadratic in {dim} dimensions "
                f"needs at least {basis_size(dim)} neighbors")
        if self.min_archive_size < self.k:
            raise ValueError("min_archive_size must be >= k")


def default_surrogate_settings(dim: int) -> SurrogateSettings:
    k = basis_size(dim) + 9
    return SurrogateSettings(k=k, min_archive_size=math.ceil(1.6 * k))


@dataclass
class LocalQuadraticModel:
    """Fitted quadratic, beta in `quadratic_basis` ordering over the centred,
    scaled u = (z - center) / scale: beta[-1] is the value at the centre."""

    beta: np.ndarray
    center: np.ndarray
    bandwidth: float
    neighbors_used: int
    scale: float = 1.0


class MahalanobisMetric:
    """Distances d(z, q) = sqrt((z-q)^T C^{-1} (z-q)) for a fixed SPD C."""

    def __init__(self, covariance: np.ndarray):
        C = np.asarray(covariance, dtype=float)
        chol = np.linalg.cholesky(0.5 * (C + C.T))
        # inv(L) applied by matmul beats a triangular solve per query at
        # these sizes; C is floored SPD upstream so L is well-conditioned.
        self._inv_chol_t = np.linalg.inv(chol).T

    def distances_to(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - np.asarray(q, dtype=float)
        v = diff @ self._inv_chol_t
        return np.sqrt(np.sum(v * v, axis=1))


def select_neighbors(archive: TrainingArchive, q: np.ndarray,
                     metric: MahalanobisMetric, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k archive entries nearest to q; ties keep insertion order.

    Returns (genomes, objectives, distances), sorted by distance.
    """
    if len(archive) < k:
        raise SurrogateUnavailable(
            f"archive holds {len(archive)} points, need {k}")
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
    X = np.asarray(neighbor_genomes, dtype=float)
    d = np.asarray(neighbor_distances, dtype=float)
    k, n = X.shape
    p = basis_size(n)
    h = float(d[-1])
    if not h > 0:
        raise SurrogateUnavailable("zero bandwidth: neighbors coincide with q")
    weights = kernel(np.minimum(d / h, 1.0))

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
                               neighbors_used=k, scale=scale)


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with A x = b by LAPACK potrf/potrs; None unless A is SPD, x finite."""
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


def predict(model: LocalQuadraticModel, z: np.ndarray) -> float:
    u = (np.asarray(z, dtype=float) - model.center) / model.scale
    return float(model.beta @ quadratic_basis(u))


def ranking_continues(cycle: int, lam: int, max_cycle_fraction: float,
                      set_changed: bool, elt_changed: bool) -> bool:
    """Acceptance check of one approximate-ranking cycle.

    The first cycle always continues: its comparison baseline predates
    the initial true evaluation, so stability cannot be observed yet.
    While fewer than `lam * max_cycle_fraction` individuals are truly
    evaluated (the count after this cycle's evaluation would be
    cycle + 1), any change of the mu-best set or of the best individual
    keeps the procedure going; past that fraction only the best matters.
    """
    if cycle == 1:
        return True
    if (cycle + 1) < lam * max_cycle_fraction:
        return set_changed or elt_changed
    return elt_changed


def approximate_ranking_step(population: list[Individual],
                             archive: TrainingArchive,
                             dist: SearchDistribution,
                             params: StrategyParams,
                             settings: SurrogateSettings,
                             true_eval,
                             penalize_fn=None) -> tuple[list[int], int, int]:
    """Rank one generation, spending true evaluations only until stable.

    Procedure: predict all lambda candidates, record the mu-best set and
    the best candidate, and truly evaluate the predicted best. Then cycle:
    re-predict every still-unevaluated candidate against the grown
    archive, recompute set/best, and check acceptance. The first cycle
    always evaluates (there is no like-for-like baseline before the
    initial evaluation has fed back through the models); afterwards,
    while fewer than a quarter of the population is truly evaluated the
    procedure continues only if the mu-best set or the best changed, and
    beyond a quarter only if the best changed. Each continuing cycle
    truly evaluates the best not-yet-evaluated candidate.

    `true_eval(genome) -> raw objective` must insert into `archive` as a
    side effect, at most one entry per call (the shared evaluation wrapper
    adds the genome unless it is known or its value is not finite); the
    step reads the new entry from the archive. `penalize_fn(genome,
    raw) -> value` maps raw objectives (true or predicted) to the ranking
    objective; default is the identity.

    Returns (ranking, n_ic, true evaluations spent); the true-evaluation
    count is 1 + n_ic. If model fitting degenerates mid-step, the whole
    generation falls back to true evaluation.
    """
    if penalize_fn is None:
        penalize_fn = lambda genome, raw: raw
    lam = len(population)
    if len(archive) < settings.min_archive_size:
        raise ValueError("archive below min_archive_size; evaluate truly")
    metric = MahalanobisMetric(dist.covariance)

    queries = np.array([ind.genome for ind in population], dtype=float)
    values = np.full(lam, np.nan)
    evaluated = [False] * lam
    n_true = 0
    # Per unevaluated individual: its k-NN set, scanned once in the first
    # prediction pass and then kept current by `admit_newest`, and its
    # prediction, dropped when a new archive point joins the set. Refitting
    # on an unchanged set would give the same bits.
    neighbor_sets: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    predictions: dict[int, float] = {}

    def eval_true(i: int):
        nonlocal n_true
        size = len(archive)
        raw = true_eval(population[i].genome)
        population[i].raw_objective = raw
        population[i].penalized_objective = penalize_fn(population[i].genome, raw)
        population[i].evaluated_by = EvaluationSource.TRUE_FUNCTION
        values[i] = population[i].penalized_objective
        evaluated[i] = True
        neighbor_sets.pop(i, None)
        predictions.pop(i, None)
        n_true += 1
        # A duplicate or non-finite value leaves the archive, and so every
        # set and prediction, as it was.
        if neighbor_sets and len(archive) > size:
            for j in admit_newest(archive, metric, queries, neighbor_sets):
                predictions.pop(j, None)

    def predict_unevaluated():
        for i, ind in enumerate(population):
            if evaluated[i]:
                continue
            if i not in predictions:
                if i not in neighbor_sets:
                    neighbor_sets[i] = select_neighbors(
                        archive, ind.genome, metric, settings.k)
                model = fit_local_model(*neighbor_sets[i], ind.genome)
                predictions[i] = float(model.beta[-1])
            raw_hat = predictions[i]
            ind.raw_objective = raw_hat
            ind.penalized_objective = penalize_fn(ind.genome, raw_hat)
            ind.evaluated_by = EvaluationSource.SURROGATE
            values[i] = ind.penalized_objective

    def current_order() -> list[int]:
        return sorted(range(lam), key=ranking_key(values))

    n_ic = 0
    try:
        predict_unevaluated()
        order = current_order()
        set_prev = frozenset(order[:params.mu])
        elt_prev = order[0]
        eval_true(elt_prev)

        for cycle in range(1, lam):
            predict_unevaluated()
            order = current_order()
            set_cur = frozenset(order[:params.mu])
            elt_cur = order[0]
            if not ranking_continues(cycle, lam, settings.max_cycle_fraction,
                                     set_cur != set_prev,
                                     elt_cur != elt_prev):
                break
            target = next((i for i in order if not evaluated[i]), None)
            if target is None:
                break
            eval_true(target)
            n_ic = cycle
            set_prev, elt_prev = set_cur, elt_cur
    except SurrogateUnavailable:
        for i in range(lam):
            if not evaluated[i]:
                eval_true(i)
    return current_order(), n_ic, n_true
