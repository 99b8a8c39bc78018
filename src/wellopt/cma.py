"""(mu/mu_w, lambda)-CMA-ES core: sampling, ranking, distribution updates.

The search distribution is a multivariate normal N(m, sigma^2 C). Each
generation draws lambda candidates, ranks them by (penalized) objective,
recombines the mu best into a new mean, and adapts sigma and C through
cumulative step-size adaptation plus rank-one / rank-mu covariance updates.
C is eigendecomposed once per distribution (eigenvalues floored to keep
it SPD); termination, sampling and the update read that one
eigensystem. Everything is written against a minimization convention;
maximization problems are negated at the problem boundary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Relative floor applied to covariance eigenvalues, times trace(C)/n.
EIGENVALUE_FLOOR = 1e-20
# Stop when the covariance condition number exceeds this.
CONDITION_CAP = 1e14
# Stop after this many generations without meaningful best-so-far progress.
STAGNATION_WINDOW = 30
STAGNATION_RTOL = 1e-12


class EvaluationSource(Enum):
    UNSET = "unset"
    TRUE_FUNCTION = "true_function"
    SURROGATE = "surrogate"


@dataclass
class Individual:
    """One sampled candidate with its (optionally penalized) objective."""

    genome: np.ndarray
    raw_objective: float | None = None
    penalized_objective: float | None = None
    evaluated_by: EvaluationSource = EvaluationSource.UNSET


@dataclass
class StrategyParams:
    """Static strategy constants of a run.

    Use `default_strategy_params` rather than filling these in by hand;
    it derives every learning rate from (dimension, lambda) using the
    conventional defaults.
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

    def __post_init__(self):
        if self.lam < 2:
            raise ValueError("population size lambda must be >= 2")
        if not 1 <= self.mu <= self.lam:
            raise ValueError("mu must lie in [1, lambda]")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.mu,):
            raise ValueError("need exactly mu weights")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        if not np.isclose(self.weights.sum(), 1.0, rtol=0, atol=1e-12):
            raise ValueError("weights must sum to 1")
        if np.any(np.diff(self.weights) > 0):
            raise ValueError("weights must be non-increasing")


def default_strategy_params(dim: int, lam: int | None = None,
                            max_generations: int = 100) -> StrategyParams:
    """Standard CMA-ES constants for an n-dimensional problem.

    Weights are log-linear over the mu = floor(lambda/2) best,
    w_i proportional to ln(mu + 1) - ln(i), normalized to sum 1.
    """
    n = int(dim)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if lam is None:
        lam = 4 + int(3 * np.log(n))
    mu = lam // 2
    raw = np.log(mu + 1) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights ** 2)

    c_sigma = (mu_eff + 2) / (n + mu_eff + 5)
    d_sigma = 1 + 2 * max(0.0, np.sqrt((mu_eff - 1) / (n + 1)) - 1) + c_sigma
    c_c = (4 + mu_eff / n) / (n + 4 + 2 * mu_eff / n)
    c_1 = 2 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1 - c_1,
               2 * (mu_eff - 2 + 1 / mu_eff) / ((n + 2) ** 2 + mu_eff))
    chi_n = np.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n ** 2))
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
    _eigen: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        self.path_sigma = np.asarray(self.path_sigma, dtype=float)
        self.path_c = np.asarray(self.path_c, dtype=float)
        n = self.mean.shape[0]
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape must match mean dimension")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def initial(cls, mean: np.ndarray, step_size: float) -> "SearchDistribution":
        mean = np.asarray(mean, dtype=float)
        n = mean.shape[0]
        return cls(mean=mean, step_size=step_size, covariance=np.eye(n),
                   path_sigma=np.zeros(n), path_c=np.zeros(n), generation=0)

    def eigensystem(self, diagnostics: Diagnostics | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored eigenvalues and eigenvectors of C, decomposed once.

        Termination, sampling and the strategy update of one generation
        all read this one decomposition, and a repair is counted once,
        when it is made. C is never changed after construction: the
        update returns a fresh distribution.
        """
        if self._eigen is None:
            self._eigen = _floored_eigh(self.covariance, diagnostics)
        return self._eigen


@dataclass
class Diagnostics:
    """Counters of a run's silent numerical repairs and of the candidates
    kept at the redraw cap while still rejected."""

    covariance_repairs: int = 0
    rejection_exhaustions: int = 0


def _floored_eigh(C: np.ndarray, diagnostics: Diagnostics | None = None):
    """Eigendecompose a symmetrized C, flooring eigenvalues to keep it SPD."""
    C = 0.5 * (C + C.T)
    values, vectors = np.linalg.eigh(C)
    floor = EIGENVALUE_FLOOR * max(np.trace(C), np.finfo(float).tiny) / C.shape[0]
    if np.any(values < floor):
        values = np.maximum(values, floor)
        if diagnostics is not None:
            diagnostics.covariance_repairs += 1
    return values, vectors


def sampling_transform(dist: SearchDistribution,
                       diagnostics: Diagnostics | None = None) -> np.ndarray:
    """Matrix A with A A^T = C (after eigenvalue flooring)."""
    values, vectors = dist.eigensystem(diagnostics)
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


def ranking_key(values: Sequence[float]):
    """Sort key over indices into `values`: ascending value, ties by index,
    and every non-finite value (NaN, +-inf) after all finite ones."""
    return lambda i: ((0, values[i], i) if math.isfinite(values[i])
                      else (1, 0.0, i))


def rank_population(population: list[Individual]) -> list[int]:
    """Indices ordered by `ranking_key` of the penalized objectives."""
    values = [ind.penalized_objective for ind in population]
    if None in values:
        raise ValueError("cannot rank: unset penalized objective")
    return sorted(range(len(values)), key=ranking_key(values))


def update_mean(dist: SearchDistribution, params: StrategyParams,
                population: list[Individual], order: list[int]) -> np.ndarray:
    """Weighted recombination of the mu best genomes."""
    if params.mu > len(population):
        raise ValueError("mu exceeds population size")
    best = np.array([population[order[i]].genome for i in range(params.mu)])
    return params.weights @ best


def update_strategy_state(dist: SearchDistribution, params: StrategyParams,
                          population: list[Individual], order: list[int],
                          old_mean: np.ndarray,
                          diagnostics: Diagnostics | None = None
                          ) -> SearchDistribution:
    """CSA step-size update plus rank-one / rank-mu covariance adaptation.

    `dist.mean` must already hold the recombined mean; `old_mean` is the
    mean that generated the population. Returns a fresh distribution with
    the generation counter incremented.
    """
    n = dist.dim
    sigma = dist.step_size
    values, vectors = dist.eigensystem(diagnostics)
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.T

    y_w = (dist.mean - old_mean) / sigma
    p_sigma = ((1 - params.c_sigma) * dist.path_sigma
               + np.sqrt(params.c_sigma * (2 - params.c_sigma) * params.mu_eff)
               * (inv_sqrt @ y_w))

    gen = dist.generation + 1
    norm_p = np.linalg.norm(p_sigma)
    expected = np.sqrt(1 - (1 - params.c_sigma) ** (2 * gen)) * params.chi_n
    h_sigma = 1.0 if norm_p / expected < 1.4 + 2 / (n + 1) else 0.0

    p_c = ((1 - params.c_c) * dist.path_c
           + h_sigma * np.sqrt(params.c_c * (2 - params.c_c) * params.mu_eff)
           * y_w)

    steps = np.array([(population[order[i]].genome - old_mean) / sigma
                      for i in range(params.mu)])
    rank_mu = (steps.T * params.weights) @ steps
    rank_one = np.outer(p_c, p_c)
    old_factor = (1 - params.c_1 - params.c_mu
                  + (1 - h_sigma) * params.c_1 * params.c_c * (2 - params.c_c))
    C = old_factor * dist.covariance + params.c_1 * rank_one + params.c_mu * rank_mu

    values, vectors = _floored_eigh(C, diagnostics)
    C = (vectors * values) @ vectors.T
    C = 0.5 * (C + C.T)

    sigma_new = sigma * np.exp((params.c_sigma / params.d_sigma)
                               * (norm_p / params.chi_n - 1))
    return SearchDistribution(mean=dist.mean, step_size=sigma_new,
                              covariance=C, path_sigma=p_sigma, path_c=p_c,
                              generation=gen)


@dataclass
class TerminationDecision:
    stop: bool
    reason: str = ""


def check_termination(dist: SearchDistribution, params: StrategyParams,
                      best_history: list[float],
                      objective_stationary: bool = True,
                      diagnostics: Diagnostics | None = None
                      ) -> TerminationDecision:
    """Stop on the generation cap, stagnation, or an ill-conditioned C.

    `best_history` is the per-generation best-so-far objective, oldest
    first. Stagnation means the best-so-far improved by less than
    STAGNATION_RTOL (relatively) over the last STAGNATION_WINDOW
    generations; it is only trusted while `objective_stationary` is true
    (adaptive penalty weights change the effective objective, so callers
    clear the flag while those are moving). The condition number comes
    from the floored eigensystem of C, decomposed only after the
    generation cap has been checked.
    """
    if dist.generation >= params.max_generations:
        return TerminationDecision(True, "max_generations")
    values, _ = dist.eigensystem(diagnostics)
    smallest = max(values[0], np.finfo(float).tiny)
    if values[-1] / smallest > CONDITION_CAP:
        return TerminationDecision(True, "ill-conditioned")
    if objective_stationary and len(best_history) > STAGNATION_WINDOW:
        old = best_history[-STAGNATION_WINDOW - 1]
        new = best_history[-1]
        scale = max(abs(old), abs(new), np.finfo(float).tiny)
        if (old - new) < STAGNATION_RTOL * scale:
            return TerminationDecision(True, "stagnation")
    return TerminationDecision(False)
