"""(mu/mu_w, lambda)-CMA-ES core: sampling, ranking, distribution updates.

The search distribution is a multivariate normal N(m, sigma^2 C). Each
generation draws lambda candidates, ranks them by (penalized) objective,
recombines the mu best into a new mean, and adapts sigma and C through
cumulative step-size adaptation plus rank-one / rank-mu covariance updates.
A generation is plain data: the (lambda, n) block of genomes, one
candidate per row, and a list of values per candidate. `rank_population`
orders the values and the updates index the block by that order.
C is eigendecomposed once per distribution (eigenvalues floored to keep
it SPD); termination, sampling and the update read that one eigensystem.
A distribution counts its floorings in `repairs` and the update carries
the count on, so a run's last distribution holds its covariance repairs.
Everything is written against a minimization convention; maximization
problems are negated at the problem boundary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Relative floor applied to covariance eigenvalues, times trace(C)/n.
EIGENVALUE_FLOOR = 1e-20
# Stop when the covariance condition number exceeds this.
CONDITION_CAP = 1e14
# Stop after this many generations without meaningful best-so-far progress.
STAGNATION_WINDOW = 30
STAGNATION_RTOL = 1e-12
TINY = float(np.finfo(float).tiny)   # the smallest positive normal float
EXP_LIMIT = math.log(np.finfo(float).max)   # np.exp(x) is finite up to it


@dataclass
class StrategyParams:
    """Static strategy constants of a run.

    Use `default_strategy_params` rather than filling these in by hand;
    it derives every learning rate from (dimension, lambda) using the
    conventional defaults, and nothing checks a hand-filled set.
    """

    lam: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float
    max_generations: int


def default_strategy_params(dim: int, lam: int,
                            max_generations: int) -> StrategyParams:
    """Standard CMA-ES constants for an n-dimensional problem.

    Weights are log-linear over the mu = floor(lambda/2) best,
    w_i proportional to ln(mu + 1) - ln(i), normalized to sum 1.
    """
    n = int(dim)
    mu = lam // 2
    raw = np.log(mu + 1) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    # Python floats: the same IEEE arithmetic without numpy's scalar dispatch
    mu_eff = 1.0 / (weights ** 2).sum().item()

    c_sigma = (mu_eff + 2) / (n + mu_eff + 5)
    d_sigma = 1 + 2 * max(0.0, math.sqrt((mu_eff - 1) / (n + 1)) - 1) + c_sigma
    c_c = (4 + mu_eff / n) / (n + 4 + 2 * mu_eff / n)
    c_1 = 2 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1 - c_1,
               2 * (mu_eff - 2 + 1 / mu_eff) / ((n + 2) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n ** 2))
    return StrategyParams(lam=lam, mu=mu, weights=weights, mu_eff=mu_eff,
                          c_sigma=c_sigma, d_sigma=d_sigma, c_c=c_c,
                          c_1=c_1, c_mu=c_mu, chi_n=chi_n,
                          max_generations=max_generations)


@dataclass
class SearchDistribution:
    """Mutable state of the sampling distribution N(mean, sigma^2 C)."""

    mean: np.ndarray
    step_size: float
    covariance: np.ndarray
    path_sigma: np.ndarray
    path_c: np.ndarray
    generation: int = 0
    repairs: int = 0   # floorings of this C and of the Cs it came from
    _eigen: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def variances(self) -> list[float]:
        """diag(C) as floats, read once for a generation's penalty terms."""
        return self.covariance.diagonal().tolist()

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Floored eigenvalues and eigenvectors of C, decomposed once.

        Termination, sampling and the strategy update of one generation
        all read this one decomposition, so a flooring is counted once,
        whichever of them asks first. C is never changed after
        construction: the update returns a fresh distribution.
        """
        if self._eigen is None:
            values, vectors, repaired = _floored_eigh(self.covariance)
            self._eigen = values, vectors
            self.repairs += repaired
        return self._eigen


def _floored_eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eigendecompose a symmetrized C, flooring eigenvalues to keep it SPD;
    the flag says whether any eigenvalue was floored."""
    C = 0.5 * (C + C.T)
    values, vectors = np.linalg.eigh(C)
    floor = EIGENVALUE_FLOOR * max(C.diagonal().sum().item(), TINY) / C.shape[0]
    repaired = bool((values < floor).any())
    if repaired:
        values = np.maximum(values, floor)
    return values, vectors, repaired


def sampling_transform(dist: SearchDistribution) -> np.ndarray:
    """Matrix A with A A^T = C (after eigenvalue flooring)."""
    values, vectors = dist.eigensystem()
    return vectors * np.sqrt(values)


def sample_individual(dist: SearchDistribution, transform: np.ndarray,
                      rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` draws m + sigma * A z with z ~ N(0, I), one per row.

    One (count, n) block of normals has the values, and leaves `rng` in
    the state, of `count` successive n-vector draws. The stacked product
    applies A to each z as a matrix-vector product, with the bits of
    `A @ z`; the matrix product `Z @ A.T` rounds differently.
    """
    z = rng.standard_normal((count, dist.dim))
    y = np.matmul(transform, z[:, :, None])[:, :, 0]
    return dist.mean + dist.step_size * y


def rank_population(values: Sequence[float]) -> list[int]:
    """Indices into `values`: ascending value, ties by index (the sort is
    stable), then every non-finite value (NaN, +-inf) in index order. The
    one ranking of the CMA loop, the approximate-ranking step and the GA."""
    finite = [i for i, v in enumerate(values) if math.isfinite(v)]
    finite.sort(key=values.__getitem__)
    return finite + [i for i, v in enumerate(values) if not math.isfinite(v)]


def update_mean(params: StrategyParams, genomes: np.ndarray,
                order: list[int]) -> np.ndarray:
    """Weighted recombination of the mu best rows of `genomes`."""
    return params.weights @ genomes[order[:params.mu]]


def update_strategy_state(dist: SearchDistribution, params: StrategyParams,
                          genomes: np.ndarray, order: list[int],
                          old_mean: np.ndarray) -> SearchDistribution:
    """CSA step-size update plus rank-one / rank-mu covariance adaptation.

    `dist.mean` must already hold the recombined mean; `old_mean` is the
    mean that generated `genomes`, one candidate per row. Returns a fresh
    distribution with the generation counter incremented and the repair
    count carried forward, plus one if the new C was floored.
    """
    n = dist.dim
    sigma = dist.step_size
    values, vectors = dist.eigensystem()
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.T

    y_w = (dist.mean - old_mean) / sigma
    p_sigma = ((1 - params.c_sigma) * dist.path_sigma
               + math.sqrt(params.c_sigma * (2 - params.c_sigma) * params.mu_eff)
               * (inv_sqrt @ y_w))

    gen = dist.generation + 1
    norm_p = math.sqrt(p_sigma.dot(p_sigma))   # np.linalg.norm's 1-D form
    expected = math.sqrt(1 - (1 - params.c_sigma) ** (2 * gen)) * params.chi_n
    h_sigma = 1.0 if norm_p / expected < 1.4 + 2 / (n + 1) else 0.0

    p_c = ((1 - params.c_c) * dist.path_c
           + h_sigma * math.sqrt(params.c_c * (2 - params.c_c) * params.mu_eff)
           * y_w)

    steps = (genomes[order[:params.mu]] - old_mean) / sigma
    rank_mu = (steps.T * params.weights) @ steps
    rank_one = p_c[:, None] * p_c
    old_factor = (1 - params.c_1 - params.c_mu
                  + (1 - h_sigma) * params.c_1 * params.c_c * (2 - params.c_c))
    C = old_factor * dist.covariance + params.c_1 * rank_one + params.c_mu * rank_mu

    values, vectors, repaired = _floored_eigh(C)
    C = (vectors * values) @ vectors.T
    C = 0.5 * (C + C.T)

    # inf without numpy's overflow warnings: Python floats overflow silently
    exponent = (params.c_sigma / params.d_sigma) * (norm_p / params.chi_n - 1)
    growth = math.inf if exponent > EXP_LIMIT else np.exp(exponent).item()
    sigma_new = sigma * growth
    return SearchDistribution(mean=dist.mean, step_size=sigma_new,
                              covariance=C, path_sigma=p_sigma, path_c=p_c,
                              generation=gen,
                              repairs=dist.repairs + repaired)


def check_termination(dist: SearchDistribution, params: StrategyParams,
                      best_history: list[float],
                      objective_stationary: bool) -> str:
    """Why to stop ("max_generations", "non-finite", "ill-conditioned" or
    "stagnation"), or "" to go on.

    A step size or mean that is not finite (an overflowing step-size
    update) stops the run before it samples inf genomes. `best_history`
    is the per-generation best-so-far objective, oldest first.
    Stagnation means the best-so-far improved by less than
    STAGNATION_RTOL (relatively) over the last STAGNATION_WINDOW
    generations; it is only trusted while `objective_stationary` is true
    (adaptive penalty weights change the effective objective, so callers
    clear the flag while those are moving). The condition number comes
    from the floored eigensystem of C, decomposed only after the
    generation cap has been checked.
    """
    if dist.generation >= params.max_generations:
        return "max_generations"
    if not (math.isfinite(dist.step_size) and np.isfinite(dist.mean).all()):
        return "non-finite"
    values, _ = dist.eigensystem()
    smallest = max(values.item(0), TINY)
    if values.item(-1) / smallest > CONDITION_CAP:
        return "ill-conditioned"
    if objective_stationary and len(best_history) > STAGNATION_WINDOW:
        old, new = best_history[-STAGNATION_WINDOW - 1], best_history[-1]
        scale = max(abs(old), abs(new), TINY)
        if (old - new) < STAGNATION_RTOL * scale:
            return "stagnation"
    return ""
