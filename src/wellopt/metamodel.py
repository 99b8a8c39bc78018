"""Locally weighted full-quadratic surrogate and its approximate-ranking loop.

Every true objective evaluation lands in a training archive. Once the
archive is large enough, each generation is ranked mostly from local
quadratic fits: for a query point, the k nearest archive entries under
the Mahalanobis distance of the current search covariance are
kernel-weighted and a full quadratic is fit by weighted least squares.
True evaluations are spent one at a time until the surrogate-induced
ranking of the elite stabilizes, so a generation costs 1 + n_ic true
evaluations instead of lambda.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .cma import EvaluationSource, Individual, SearchDistribution, StrategyParams

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


def quadratic_basis_matrix(points: np.ndarray) -> np.ndarray:
    """Row-wise `quadratic_basis` for a (k, n) matrix of points."""
    points = np.asarray(points, dtype=float)
    k, n = points.shape
    i_idx, j_idx = _cross_indices(n)
    return np.concatenate([points * points,
                           points[:, i_idx] * points[:, j_idx],
                           points, np.ones((k, 1))], axis=1)


def kernel(zeta: float | np.ndarray) -> float | np.ndarray:
    """Biquadratic weighting kernel K(zeta) = (1 - zeta^2)^2."""
    return (1.0 - zeta ** 2) ** 2


class TrainingArchive:
    """Append-only store of (genome, true objective) pairs.

    The archive is also the memo of true evaluations: `lookup` answers
    for every genome ever added, finite or not. Only finite pairs become
    regression data (`len`, `as_arrays`), and exact-duplicate genomes are
    skipped, so the regression data stay clean. The store is unbounded;
    nearest-neighbor queries are linear scans.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._genomes: list[np.ndarray] = []
        self._values: list[float] = []
        self._index: dict[bytes, float] = {}
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._genomes)

    def add(self, genome: np.ndarray, value: float) -> bool:
        """Record one evaluation; returns True when it became regression
        data (False for duplicates and non-finite values)."""
        genome = np.asarray(genome, dtype=float)
        key = genome.tobytes()
        if key in self._index:
            return False
        self._index[key] = float(value)
        if not np.isfinite(value):
            return False
        self._genomes.append(genome.copy())
        self._values.append(float(value))
        self._matrix = None
        return True

    def lookup(self, genome: np.ndarray) -> float | None:
        """The recorded value of `genome`, or None if it was never added."""
        return self._index.get(np.asarray(genome, dtype=float).tobytes())

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
    """Fitted quadratic; beta is in the raw `quadratic_basis` ordering."""

    beta: np.ndarray
    center: np.ndarray
    bandwidth: float
    neighbors_used: int


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


def _unshift_coefficients(quad: np.ndarray, lin: np.ndarray, const: float,
                          q: np.ndarray, scale: float) -> np.ndarray:
    """Convert a fit in u = (z - q)/s coordinates to raw-basis beta."""
    n = q.shape[0]
    Q = quad / scale ** 2
    c = lin / scale
    i_idx, j_idx = _cross_indices(n)
    squares = np.diag(Q)
    cross = 2.0 * Q[i_idx, j_idx]
    linear = -2.0 * (Q @ q) + c
    constant = float(q @ Q @ q - c @ q + const)
    return np.concatenate([squares, cross, linear, [constant]])


def fit_local_model(neighbor_genomes: np.ndarray, neighbor_values: np.ndarray,
                    neighbor_distances: np.ndarray, q: np.ndarray
                    ) -> LocalQuadraticModel:
    """Kernel-weighted least-squares fit of a full quadratic around q.

    The bandwidth is the distance of the k-th (farthest) neighbor, which
    therefore receives weight exactly zero. The system is solved via the
    weighted normal equations; a trace-scaled ridge term (intercept
    excluded) is added if the design is rank-deficient. Coordinates are
    centered and scaled internally for conditioning; the returned beta is
    expressed in the raw basis.
    """
    X = np.asarray(neighbor_genomes, dtype=float)
    y = np.asarray(neighbor_values, dtype=float)
    d = np.asarray(neighbor_distances, dtype=float)
    k, n = X.shape
    p = basis_size(n)
    h = float(d[-1])
    if not h > 0:
        raise SurrogateUnavailable("zero bandwidth: neighbors coincide with q")
    weights = kernel(np.minimum(d / h, 1.0))

    diff = X - q
    scale = math.sqrt(float(np.mean(diff ** 2)))
    if not scale > 0:
        scale = 1.0
    U = diff / scale
    design = quadratic_basis_matrix(U)

    A = design.T @ (weights[:, None] * design)
    b = design.T @ (weights * y)
    beta_u = _solve_normal_equations(A, b, p)

    quad = np.zeros((n, n))
    i_idx, j_idx = _cross_indices(n)
    np.fill_diagonal(quad, beta_u[:n])
    quad[i_idx, j_idx] = beta_u[n:n + len(i_idx)] / 2.0
    quad[j_idx, i_idx] = quad[i_idx, j_idx]
    lin = beta_u[n + len(i_idx):p - 1]
    const = float(beta_u[p - 1])
    beta = _unshift_coefficients(quad, lin, const, np.asarray(q, float), scale)
    return LocalQuadraticModel(beta=beta, center=np.asarray(q, float).copy(),
                               bandwidth=h, neighbors_used=k)


def _solve_normal_equations(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    try:
        beta = cho_solve(cho_factor(A, lower=True, check_finite=False), b,
                         check_finite=False)
        if np.all(np.isfinite(beta)):
            return beta
    except np.linalg.LinAlgError:
        pass
    ridge = RIDGE_SCALE * max(np.trace(A), np.finfo(float).tiny) / p
    damped = A + ridge * np.diag([1.0] * (p - 1) + [0.0])
    try:
        beta = cho_solve(cho_factor(damped, lower=True, check_finite=False), b,
                         check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SurrogateUnavailable("degenerate local design matrix") from exc
    if not np.all(np.isfinite(beta)):
        raise SurrogateUnavailable("degenerate local design matrix")
    return beta


def predict(model: LocalQuadraticModel, z: np.ndarray) -> float:
    return float(model.beta @ quadratic_basis(z))


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
    side effect (the shared evaluation wrapper does). `penalize_fn(genome,
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

    values = np.full(lam, np.nan)
    evaluated = [False] * lam
    n_true = 0
    # Memoized (prediction, k-th neighbor distance) per individual. A new
    # archive point changes a local model only when it lands strictly
    # inside that individual's current k-NN radius, so anything farther
    # keeps its cached fit (bit-identical to recomputing).
    cached: dict[int, tuple[float, float]] = {}

    def eval_true(i: int):
        nonlocal n_true
        raw = true_eval(population[i].genome)
        population[i].raw_objective = raw
        population[i].penalized_objective = penalize_fn(population[i].genome, raw)
        population[i].evaluated_by = EvaluationSource.TRUE_FUNCTION
        values[i] = population[i].penalized_objective
        evaluated[i] = True
        cached.pop(i, None)
        n_true += 1
        if cached:
            held = list(cached)
            distances = metric.distances_to(
                [population[j].genome for j in held], population[i].genome)
            for j, distance in zip(held, distances):
                if distance < cached[j][1]:
                    del cached[j]

    def predict_unevaluated():
        for i, ind in enumerate(population):
            if evaluated[i]:
                continue
            if i in cached:
                raw_hat = cached[i][0]
            else:
                genomes, objectives, distances = select_neighbors(
                    archive, ind.genome, metric, settings.k)
                model = fit_local_model(genomes, objectives, distances,
                                        ind.genome)
                raw_hat = predict(model, ind.genome)
                cached[i] = (raw_hat, model.bandwidth)
            ind.raw_objective = raw_hat
            ind.penalized_objective = penalize_fn(ind.genome, raw_hat)
            ind.evaluated_by = EvaluationSource.SURROGATE
            values[i] = ind.penalized_objective

    def current_order() -> list[int]:
        return sorted(range(lam), key=lambda i: (values[i], i))

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
