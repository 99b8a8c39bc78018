"""Adaptive penalization with rejection for sum-of-subset interval constraints.

A constraint restricts the sum of a subset of coordinates to an open
interval (lower, upper). Candidates violating a constraint by more than a
fraction `rejection_fraction` of |sum| are rejected and redrawn;
marginally unfeasible candidates are kept and penalized with weights
gamma_j that initialize themselves from the observed objective spread and
grow geometrically while the distribution mean stays outside the feasible
region. No user tuning is required.

`sample_with_rejection` screens blocks of draws with the results of one
draw at a time: one gather makes the single-coordinate sums, the others add
a row each, and bounds are built once per constraint set. The sums give the
q-means and each penalty; gamma, its growth threshold and xi read diag(C)
once as floats. Same bits; with the well's 8 constraints, 23-84% faster.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .cma import SearchDistribution, StrategyParams
from .floats import pairwise_sum

# A candidate is redrawn at most this many times before the last draw is
# kept and penalized; guarantees progress on vanishing feasible volumes.
MAX_RESAMPLES = 100


@dataclass(frozen=True)
class SumConstraint:
    """lower < sum(x[i] for i in indices) < upper (0-based indices)."""

    indices: tuple[int, ...]
    lower: float
    upper: float
    index_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) == 0:
            raise ValueError("constraint needs at least one coordinate index")
        if min(self.indices) < 0:
            raise ValueError("constraint indices must be non-negative")
        if not self.lower < self.upper:
            raise ValueError("constraint needs lower < upper")
        object.__setattr__(self, "index_array",
                           np.array(self.indices, dtype=np.intp))


def constraint_violation(x: np.ndarray, constraint: SumConstraint
                         ) -> tuple[float, float, float]:
    """Return (q, q_feas, distance) for one genome and constraint.

    q is the constrained coordinate sum, q_feas its clamp onto [lower,
    upper], and distance = |q - q_feas| (zero iff feasible; interval
    endpoints count as feasible). The bits are those of the numpy form
    `q = x[index_array].sum()`, `q_feas = min(max(q, lower), upper)`: a
    single -0.0 sums to 0.0, and the clamp returns q itself when q is NaN
    or equals a bound, as min and max do (lower < upper holds).
    """
    values = x.tolist()
    q = pairwise_sum([values[i] for i in constraint.indices])
    lower, upper = constraint.lower, constraint.upper
    q_feas = lower if q < lower else upper if q > upper else q
    return q, q_feas, abs(q - q_feas)


def _linear_percentile(ordered: list[float], fraction: float) -> float:
    """np.percentile(ordered, 100 * fraction) of two or more sorted floats.

    numpy's virtual index n*q + (1 - q) - 1 and its interpolation, which
    runs from the upper neighbour once the weight t reaches 0.5.
    """
    index = len(ordered) * fraction + (1 - fraction) - 1
    lo = math.floor(index)
    a, b = ordered[lo], ordered[lo + 1]
    t = index - lo
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


@dataclass
class PenaltyState:
    """Per-run adaptive penalty weights and the objective-spread history.

    `gammas` is replaced when a weight takes a different value, at
    generation `last_change` (0 until then); the history keeps one
    objective IQR per generation over the (20 + 3n)/lambda window.
    """

    n_constraints: InitVar[int]
    dim: InitVar[int]
    lam: InitVar[int]
    gammas: tuple[float, ...] = field(init=False)
    last_change: int = field(init=False, default=0)
    fitness_history: deque = field(init=False)

    def __post_init__(self, n_constraints: int, dim: int, lam: int):
        self.gammas = (0.0,) * n_constraints
        self.fitness_history = deque(maxlen=math.ceil((20 + 3 * dim) / lam))

    def record_generation(self, raw_objectives: list[float]):
        """Store this generation's IQR of its finite unpenalized objectives.

        q75 - q25 of numpy's default ('linear') percentiles, computed in
        Python floats with np.percentile's bits; one value has spread 0.
        """
        values = sorted(v for v in raw_objectives if math.isfinite(v))
        if not values:
            return
        self.fitness_history.append(
            _linear_percentile(values, 0.75) - _linear_percentile(values, 0.25)
            if len(values) > 1 else 0.0)

    def median_iqr(self) -> float:
        return float(np.median(list(self.fitness_history)))


def row_means(sums: np.ndarray) -> list[float]:
    """np.mean of each row of a C-contiguous block, bit for bit."""
    return (sums.sum(axis=1) / sums.shape[1]).tolist()


def _subset_mean(values: list[float], indices: tuple[int, ...]) -> float:
    """np.mean(np.array(values)[list(indices)]), bit for bit."""
    return pairwise_sum([values[i] for i in indices]) / len(indices)


def is_feasible(x: np.ndarray, constraints: list[SumConstraint]) -> bool:
    """`constraint_violation(x, c)[2] == 0.0` for every c. A single float
    coordinate q is read from one `tolist()`: its distance is 0.0 iff
    lower <= q <= upper and q - q is 0.0 (NaN for an infinite q)."""
    values = x.tolist()
    for c in constraints:
        if len(c.indices) > 1:
            if constraint_violation(x, c)[2] != 0.0:
                return False
        else:
            q = values[c.indices[0]]
            if not (c.lower <= q <= c.upper and q - q == 0.0):
                return False
    return True


def maybe_set_gammas(state: PenaltyState, dist: SearchDistribution,
                     constraints: list[SumConstraint]) -> None:
    """One-time gamma initialization, from the second generation onward.

    If the distribution mean is unfeasible for any constraint and every
    weight is still 0, every gamma becomes 2 * delta_fit / (sigma^2 *
    mean(diag(C))), where delta_fit is the median of the stored
    per-generation objective IQRs. Only a finite positive value carries a
    scale (a plateau gives 0): until one comes, gamma stays 0, which
    `maybe_increase_gammas` would only ever multiply.
    """
    if dist.generation < 1 or any(state.gammas) or not state.fitness_history:
        return
    if is_feasible(dist.mean, constraints):
        return
    delta_fit = state.median_iqr()
    mean_diag = pairwise_sum(dist.variances) / dist.dim
    value = 2.0 * delta_fit / (dist.step_size ** 2 * mean_diag)
    if math.isfinite(value) and value > 0.0:
        state.gammas = (value,) * len(state.gammas)
        state.last_change = dist.generation


def increase_trigger_threshold(dist: SearchDistribution, params: StrategyParams,
                               constraint: SumConstraint) -> float:
    """Distance from the feasible interval beyond which gamma grows."""
    spread = math.sqrt(_subset_mean(dist.variances, constraint.indices))
    return dist.step_size * spread * max(1.0, math.sqrt(dist.dim)
                                         / params.mu_eff)


def maybe_increase_gammas(state: PenaltyState, dist: SearchDistribution,
                          constraints: list[SumConstraint],
                          params: StrategyParams,
                          population_q_means: list[float]) -> None:
    """Grow gamma_j where the population mean of q_j sits far out of bounds.

    `population_q_means[j]` is the mean of q_j over the lambda candidates
    of the current generation. A constraint whose mean violates by more
    than `increase_trigger_threshold` gets gamma_j *= 1.1^max(1,
    mu_eff/(10 n)); the others are left unchanged.
    """
    if not any(state.gammas):
        return
    exponent = max(1.0, params.mu_eff / (10.0 * dist.dim))
    factor = 1.1 ** exponent
    gammas = list(state.gammas)
    for j, constraint in enumerate(constraints):
        m_j = population_q_means[j]
        out_by = max(0.0, m_j - constraint.upper) + max(0.0, constraint.lower - m_j)
        if out_by > increase_trigger_threshold(dist, params, constraint):
            gammas[j] *= factor
    if gammas != list(state.gammas):
        state.gammas, state.last_change = tuple(gammas), dist.generation


def xi_factors(dist: SearchDistribution,
               constraints: list[SumConstraint]) -> list[float]:
    """Per-constraint scale xi_j comparing the sampling log-variance over
    the constraint's coordinate subset with the overall log-variance."""
    logs = np.log(dist.variances).tolist()
    overall = pairwise_sum(logs) / len(logs)
    return [math.exp(0.9 * (_subset_mean(logs, c.indices) - overall))
            for c in constraints]


def penalty_amount(q: list[float], gammas: tuple[float, ...],
                   constraints: list[SumConstraint],
                   xis: list[float]) -> float:
    """Mean over constraints of gamma_j * distance_j^2 / xi_j for one
    candidate, from its constraint sums q_j (a row of the sampler's sums).

    distance_j is |q_j - q_feas_j| written without the clamp, with its
    bits; a NaN sum lies in no direction and adds nothing. The xi_j are
    positive, as `xi_factors` gives them.
    """
    total = 0.0
    for q_j, gamma, xi, c in zip(q, gammas, xis, constraints):
        distance = (c.lower - q_j if q_j < c.lower
                    else q_j - c.upper if q_j > c.upper else 0.0)
        if distance > 0.0:
            total += gamma * distance * distance / xi
    return total / len(constraints) if total else 0.0


def penalized(raw: float, amount: float) -> float:
    """raw + amount; raw exactly when the amount is 0 or raw is not finite."""
    return raw if amount == 0.0 or not math.isfinite(raw) else raw + amount


def _block_sums(X: np.ndarray, constraint: SumConstraint) -> np.ndarray:
    """q of each row of X, as `constraint_violation` gives it: `take` keeps a
    row's terms contiguous, so they add in 1-D pairwise order."""
    return X.take(constraint.index_array, axis=1).sum(axis=1)


@lru_cache(maxsize=16)
def _screen_plan(constraints: tuple[SumConstraint, ...]):
    """Per constraint set: rows and coordinates of the single-coordinate
    constraints, the others with their rows, bounds as (m, 1) columns."""
    singles = [(j, c.indices[0]) for j, c in enumerate(constraints)
               if len(c.indices) == 1]
    return (*np.array(singles, dtype=np.intp).reshape(-1, 2).T,
            [(j, c) for j, c in enumerate(constraints) if len(c.indices) > 1],
            np.array([[[c.lower], [c.upper]] for c in constraints]).swapaxes(0, 1))


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
    if not constraints:
        return draw(count), np.empty((0, count)), 0, 0
    rows, coordinates, multi, (lower, upper) = _screen_plan(tuple(constraints))
    kept_genomes, kept_sums = [], []
    drawn = missing = count
    tries = exhaustions = 0   # redraws of the candidate being filled
    while True:
        X = draw(missing)
        # a row per constraint, in order; + 0.0 makes -0.0 the sum's 0.0
        Q = np.empty((len(constraints), len(X)))
        if len(rows):
            Q[rows] = X.T[coordinates] + 0.0
        for j, c in multi:
            Q[j] = _block_sums(X, c)
        # A draw is rejected when some distance |q_feas - q| exceeds
        # rejection_fraction * |q| (at q == 0 any violation rejects). Out of
        # the interval the larger difference is that distance, with its
        # bits; inside it is <= 0 and never rejects, as 0 does.
        rejected = (np.maximum(lower - Q, Q - upper)
                    > rejection_fraction * np.abs(Q)).any(axis=0)
        kept = []
        for row, bad in enumerate(rejected.tolist()):
            if bad and tries < MAX_RESAMPLES:
                tries += 1
                continue
            exhaustions += bad
            tries = 0
            kept.append(row)
        if len(kept) < len(X):
            X, Q = X[kept], Q.take(kept, axis=1)
        kept_genomes.append(X)
        kept_sums.append(Q)
        missing -= len(kept)
        if not missing:
            break
        drawn += missing
    if len(kept_genomes) > 1:
        X, Q = np.concatenate(kept_genomes), np.concatenate(kept_sums, axis=1)
    return X, Q, drawn - count, exhaustions
