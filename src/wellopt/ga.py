"""Real-coded genetic algorithm baseline with repair-based constraints.

Generational GA with elitism: rank-biased parent selection, single-index
arithmetic blend crossover, single-index uniform-reset mutation, and a
repair step that pulls constraint-violating children back into the
feasible region by bisecting toward the best feasible solution found so
far (a deliberately simple stand-in for library-grade co-evolutionary
repair schemes).

Parents are drawn by bisection on cached cumulative weights and fitnesses
ranked as Python floats, with the bits and draws of the numpy forms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

import numpy as np

from .cma import rank_population
from .constraints import SumConstraint, is_feasible
# Unused here; the benchmark's tracing wraps the name in this namespace.
from .constraints import constraint_violation  # noqa: F401

BISECTION_STEPS = 30
FEASIBLE_SEARCH_TRIES = 1000
# The best individual is copied into the next generation unchanged.
ELITISM_COUNT = 1


class NoFeasiblePointError(RuntimeError):
    """Raised when repair cannot locate any feasible point."""


@dataclass
class GaParams:
    population_size: int
    bounds: np.ndarray
    crossprob: float = 0.7
    mutprob: float = 0.1

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError("bounds must be an (n, 2) array")
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ValueError("every coordinate needs min < max")
        for name in ("crossprob", "mutprob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")


@cache
def _rank_cumulative_weights(n: int) -> tuple[float, ...]:
    """Cumulative sum of the rank weights N, N-1, ..., 1, as Python floats."""
    return tuple(np.cumsum(np.arange(n, 0, -1, dtype=float)).tolist())


def select_parent(order: list[int], rng: np.random.Generator) -> int:
    """Linear rank-biased pick: rank r gets weight N - r + 1 (best = N).

    A population of two selects the better individual with probability
    2/3. Returns the population index of the chosen parent.
    """
    n = len(order)
    cumulative = _rank_cumulative_weights(n)
    u = rng.uniform(0.0, cumulative[-1])
    return order[min(bisect_right(cumulative, u), n - 1)]


def crossover(parent1: np.ndarray, parent2: np.ndarray, crossprob: float,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blend one uniformly drawn coordinate with a shared random factor.

    child1[i] = c*p1[i] + (1-c)*p2[i] and symmetrically for child2, which
    conserves the coordinate sum. All other coordinates are copied.
    """
    child1, child2 = parent1.copy(), parent2.copy()
    if rng.uniform() < crossprob:
        i = int(rng.integers(0, len(parent1)))
        c = rng.uniform()
        child1[i] = c * parent1[i] + (1 - c) * parent2[i]
        child2[i] = c * parent2[i] + (1 - c) * parent1[i]
    return child1, child2


def mutate(individual: np.ndarray, mutprob: float, bounds: np.ndarray,
           rng: np.random.Generator) -> np.ndarray:
    """Reset one uniformly drawn coordinate uniformly within its bounds.

    The input is never written; it is returned when nothing is reset. The
    caller keeps the elite individual out of this operator.
    """
    if not rng.uniform() < mutprob:
        return individual
    i = int(rng.integers(0, len(individual)))
    out = individual.copy()
    out[i] = bounds[i, 0] + rng.uniform() * (bounds[i, 1] - bounds[i, 0])
    return out


def repair(individual: np.ndarray, constraints: list[SumConstraint],
           bounds: np.ndarray, rng: np.random.Generator,
           reference: np.ndarray | None) -> np.ndarray:
    """Move an unfeasible individual to feasibility.

    Bisects along the segment toward a feasible reference individual
    (the best feasible solution known) for BISECTION_STEPS halvings and
    returns the feasible end. Without a usable reference, uniform points
    within the bounds are drawn until one is feasible. Feasible inputs
    are returned unchanged; the repaired genome always replaces the
    original.
    """
    if is_feasible(individual, constraints):
        return individual
    if reference is None or np.array_equal(reference, individual):
        for _ in range(FEASIBLE_SEARCH_TRIES):
            candidate = rng.uniform(bounds[:, 0], bounds[:, 1])
            if is_feasible(candidate, constraints):
                return candidate
        raise NoFeasiblePointError("no feasible point found")
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if is_feasible(individual + mid * (reference - individual), constraints):
            hi = mid
        else:
            lo = mid
    return individual + hi * (reference - individual)


def ga_generation(genomes: list[np.ndarray], fitnesses: np.ndarray,
                  params: GaParams, objective,
                  constraints: list[SumConstraint],
                  rng: np.random.Generator,
                  feasible_reference: np.ndarray | None
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """Produce the next generation's (genomes, fitnesses): elite copy plus
    bred children.

    Children go through select -> crossover -> mutate -> repair ->
    evaluate; the elite is copied verbatim (and is thereby exempt from
    mutation). Population size is preserved.
    """
    values = fitnesses.tolist()
    order = rank_population(values)
    elites = order[:ELITISM_COUNT]
    next_genomes = [genomes[i].copy() for i in elites]
    next_fitnesses = [values[i] for i in elites]
    while len(next_genomes) < params.population_size:
        p1 = genomes[select_parent(order, rng)]
        p2 = genomes[select_parent(order, rng)]
        for child in crossover(p1, p2, params.crossprob, rng):
            if len(next_genomes) >= params.population_size:
                break
            child = mutate(child, params.mutprob, params.bounds, rng)
            child = repair(child, constraints, params.bounds, rng,
                           feasible_reference)
            next_genomes.append(child)
            next_fitnesses.append(float(objective(child)))
    return next_genomes, np.array(next_fitnesses)


class GaOptimizer:
    """Drives the GA over an objective, tracking the best feasible point."""

    def __init__(self, params: GaParams, objective,
                 constraints: list[SumConstraint] | None,
                 rng: np.random.Generator):
        self.params = params
        self.objective = objective
        self.constraints = constraints or []
        self.rng = rng
        self.genomes: list[np.ndarray] = []
        self.fitnesses = np.empty(0)
        self.best_genome: np.ndarray | None = None
        self.best_fitness = np.inf

    def initialize(self):
        bounds = self.params.bounds
        self.genomes = []
        for _ in range(self.params.population_size):
            x = self.rng.uniform(bounds[:, 0], bounds[:, 1])
            x = repair(x, self.constraints, bounds, self.rng,
                       self.best_genome)
            self.genomes.append(x)
            self._note_feasible(x)
        self.fitnesses = np.array([float(self.objective(x))
                                   for x in self.genomes])
        self._track_best()

    def _note_feasible(self, x: np.ndarray):
        if self.best_genome is None and is_feasible(x, self.constraints):
            self.best_genome = x.copy()

    def _track_best(self):
        # non-finite values rank last and never become the best
        values = self.fitnesses.tolist()
        idx = rank_population(values)[0]
        value = values[idx]
        if math.isfinite(value) and value < self.best_fitness:
            self.best_fitness = value
            self.best_genome = self.genomes[idx].copy()

    def step(self):
        self.genomes, self.fitnesses = ga_generation(
            self.genomes, self.fitnesses, self.params, self.objective,
            self.constraints, self.rng, self.best_genome)
        self._track_best()
