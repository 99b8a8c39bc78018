"""Adaptive penalization with rejection for sum-of-subset interval constraints.

A constraint restricts the sum of a subset of coordinates to an open
interval (lower, upper). Candidates violating a constraint by more than a
fraction `rejection_fraction` of |sum| are rejected and redrawn;
marginally unfeasible candidates are kept and penalized with weights
gamma_j that initialize themselves from the observed objective spread and
grow geometrically while the distribution mean stays outside the feasible
region. No user tuning is required.

A generation is sampled in blocks from one stream: `sample_with_rejection`
screens a whole block of draws at once, reads every constraint sum once
per draw, and hands the kept candidates' sums on for the gamma update.
The candidates, redraw counts and generator state are those of drawing
and screening one genome at a time. The same sums give each candidate's
penalty amount, once per generation while gamma and xi are frozen.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cma import SearchDistribution, StrategyParams

# A candidate is redrawn at most this many times before the last draw is
# kept and penalized; guarantees progress on vanishing feasible volumes.
MAX_RESAMPLES = 100


@dataclass(frozen=True)
class SumConstraint:
    """lower < sum(x[i] for i in indices) < upper (0-based indices)."""

    indices: tuple[int, ...]
    lower: float
    upper: float

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

    q is the constrained coordinate sum, q_feas its clamp onto
    [lower, upper], and distance = |q - q_feas| (zero iff feasible;
    interval endpoints count as feasible). The bits are those of the numpy
    form `q = x[index_array].sum()`, `q_feas = min(max(q, lower), upper)`:
    a single coordinate is read directly, and adding 0.0 turns -0.0 into
    0.0 as the sum's zero start does; the clamp returns q itself when q is
    NaN or equals a bound, as min and max do (lower < upper holds).
    """
    x = np.asarray(x, dtype=float)
    if len(constraint.indices) == 1:
        q = x.item(constraint.indices[0]) + 0.0
    else:
        q = float(x[constraint.index_array].sum())
    lower, upper = constraint.lower, constraint.upper
    q_feas = lower if q < lower else upper if q > upper else q
    return q, q_feas, abs(q - q_feas)


def should_reject(q: float, q_feas: float, rejection_fraction: float) -> bool:
    """True when the violation exceeds the fraction of |q| that we tolerate.

    At q == 0 any violation rejects, since the tolerance p*|q| is zero.
    """
    if not rejection_fraction > 0:
        raise ValueError("rejection_fraction must be positive")
    return abs(q_feas - q) > rejection_fraction * abs(q)


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

    `history_capacity` follows the (20 + 3n)/lambda generation window;
    one interquartile range of the unpenalized objectives is stored per
    generation.
    """

    n_constraints: int
    dim: int
    lam: int
    gammas: np.ndarray = field(init=False)
    gammas_initialized: bool = field(init=False, default=False)
    history_capacity: int = field(init=False)
    fitness_history: deque = field(init=False)

    def __post_init__(self):
        if self.n_constraints < 0:
            raise ValueError("n_constraints must be non-negative")
        self.gammas = np.zeros(self.n_constraints)
        self.history_capacity = max(1, math.ceil((20 + 3 * self.dim) / self.lam))
        self.fitness_history = deque(maxlen=self.history_capacity)

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
        if not self.fitness_history:
            raise ValueError("no objective-spread history recorded yet")
        return float(np.median(list(self.fitness_history)))


def mean_1d(values: np.ndarray) -> float:
    """np.mean of a non-empty 1-D float array, bit for bit, at less cost."""
    return values.sum().item() / len(values)


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


def maybe_increase_gammas(state: PenaltyState, dist: SearchDistribution,
                          constraints: list[SumConstraint],
                          params: StrategyParams,
                          population_q_means: np.ndarray) -> None:
    """Grow gamma_j where the population mean of q_j sits far out of bounds.

    `population_q_means[j]` is the mean of q_j over the lambda candidates
    of the current generation. A constraint whose mean violates by more
    than `increase_trigger_threshold` gets gamma_j *= 1.1^max(1,
    mu_eff/(10 n)); the others are left unchanged.
    """
    if not state.gammas_initialized:
        return
    exponent = max(1.0, params.mu_eff / (10.0 * dist.dim))
    factor = 1.1 ** exponent
    for j, constraint in enumerate(constraints):
        m_j = float(population_q_means[j])
        out_by = max(0.0, m_j - constraint.upper) + max(0.0, constraint.lower - m_j)
        if out_by > increase_trigger_threshold(dist, params, constraint):
            state.gammas[j] *= factor


def xi_factors(dist: SearchDistribution,
               constraints: list[SumConstraint]) -> np.ndarray:
    """Per-constraint scale xi_j comparing the sampling log-variance over
    the constraint's coordinate subset with the overall log-variance."""
    log_diag = np.log(dist.covariance.diagonal())
    overall = mean_1d(log_diag)
    return np.array([
        math.exp(0.9 * (mean_1d(log_diag[c.index_array]) - overall))
        for c in constraints])


def penalty_amount(q: list[float], gammas: list[float],
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
        # should_reject's rule on every constraint and draw at once. Out of
        # the interval the larger difference is the distance |q_feas - q|,
        # with its bits; inside it is <= 0 and never rejects, as 0 does.
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
