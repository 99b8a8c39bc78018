"""Adaptive penalization with rejection for sum-of-subset interval constraints.

A constraint restricts the sum of a subset of coordinates to an open
interval (lower, upper). Candidates violating a constraint by more than a
fraction `rejection_fraction` of |sum| are rejected and resampled by the
caller; marginally unfeasible candidates are kept and penalized with
weights gamma_j that initialize themselves from the observed objective
spread and grow geometrically while the distribution mean stays outside
the feasible region. No user tuning is required.
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
    interval endpoints count as feasible).
    """
    q = float(np.asarray(x, dtype=float)[constraint.index_array].sum())
    q_feas = min(max(q, constraint.lower), constraint.upper)
    return q, q_feas, abs(q - q_feas)


def should_reject(q: float, q_feas: float, rejection_fraction: float) -> bool:
    """True when the violation exceeds the fraction of |q| that we tolerate.

    At q == 0 any violation rejects, since the tolerance p*|q| is zero.
    """
    if not rejection_fraction > 0:
        raise ValueError("rejection_fraction must be positive")
    return abs(q_feas - q) > rejection_fraction * abs(q)


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
    rejection_fraction: float = 0.2
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

    def record_generation(self, raw_objectives: np.ndarray):
        """Store this generation's IQR of unpenalized objective values."""
        values = np.asarray(raw_objectives, dtype=float)
        values = values[np.isfinite(values)]
        if values.size == 0:
            return
        q75, q25 = np.percentile(values, [75, 25])
        self.fitness_history.append(float(q75 - q25))

    def median_iqr(self) -> float:
        if not self.fitness_history:
            raise ValueError("no objective-spread history recorded yet")
        return float(np.median(list(self.fitness_history)))


def mean_is_feasible(mean: np.ndarray, constraints: list[SumConstraint]) -> bool:
    return all(constraint_violation(mean, c)[2] == 0.0 for c in constraints)


def maybe_set_gammas(state: PenaltyState, dist: SearchDistribution,
                     constraints: list[SumConstraint]) -> None:
    """One-time gamma initialization, from the second generation onward.

    If the distribution mean is unfeasible for any constraint and the
    weights are not set yet, every gamma becomes
    2 * delta_fit / (sigma^2 * mean(diag(C))), where delta_fit is the
    median of the stored per-generation objective IQRs.
    """
    if dist.generation < 1 or state.gammas_initialized or not constraints:
        return
    if mean_is_feasible(dist.mean, constraints):
        return
    delta_fit = state.median_iqr()
    mean_diag = float(np.mean(np.diag(dist.covariance)))
    value = 2.0 * delta_fit / (dist.step_size ** 2 * mean_diag)
    state.gammas[:] = value
    state.gammas_initialized = True


def increase_trigger_threshold(dist: SearchDistribution, params: StrategyParams,
                               constraint: SumConstraint) -> float:
    """Distance from the feasible interval beyond which gamma grows."""
    n = dist.dim
    diag = np.diag(dist.covariance)
    spread = math.sqrt(float(np.mean(diag[list(constraint.indices)])))
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
    log_diag = np.log(np.diag(dist.covariance))
    overall = float(np.mean(log_diag))
    return np.array([
        math.exp(0.9 * (float(np.mean(log_diag[c.index_array])) - overall))
        for c in constraints])


def penalty_amount(x: np.ndarray, gammas: np.ndarray,
                   constraints: list[SumConstraint],
                   xis: np.ndarray) -> float:
    """Mean over constraints of gamma_j * distance_j^2 / xi_j; a
    single-coordinate sum is read exactly from one `x.tolist()`."""
    coords = x.tolist()
    total = 0.0
    for j, constraint in enumerate(constraints):
        q = (coords[constraint.indices[0]] if len(constraint.indices) == 1
             else float(x[constraint.index_array].sum()))
        q_feas = min(max(q, constraint.lower), constraint.upper)
        distance = abs(q - q_feas)
        if distance > 0.0:
            total += gammas[j] * distance * distance / xis[j]
    return total / len(constraints) if total else 0.0


def sample_with_rejection(draw, constraints: list[SumConstraint],
                          rejection_fraction: float) -> tuple[np.ndarray, int]:
    """Draw a genome, redrawing while any constraint rejects it.

    `draw` is a zero-argument callable producing one genome. Returns the
    accepted (or last, after MAX_RESAMPLES redraws) genome together with
    the number of rejected draws. With no constraints the first draw is
    returned untouched, so the RNG stream matches unconstrained sampling.
    """
    x = draw()
    if not constraints:
        return x, 0
    resamples = 0
    while resamples < MAX_RESAMPLES:
        rejected = False
        for constraint in constraints:
            q, q_feas, _ = constraint_violation(x, constraint)
            if should_reject(q, q_feas, rejection_fraction):
                rejected = True
                break
        if not rejected:
            break
        x = draw()
        resamples += 1
    return x, resamples
