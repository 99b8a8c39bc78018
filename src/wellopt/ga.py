"""Real-coded genetic algorithm baseline with repair-based constraints.

Generational GA with elitism: rank-biased parent selection, single-index
arithmetic blend crossover, single-index uniform-reset mutation, and a
repair step that pulls constraint-violating children back into the
feasible region by bisecting toward the elite, the population's
best-ranked genome (a deliberately simple stand-in for library-grade
co-evolutionary repair schemes).

Every scalar draw is `Generator.random()` (numpy's `uniform(lo, hi)` is
`lo + (hi - lo) * random()` of the same draw); parents are picked by
bisection on cached weights, and blends, resets and ranks use Python
floats, with the bits and draws of the numpy forms.
"""

from __future__ import annotations

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
    """`RunConfig`'s size and rates; the problem's (n, 2) bounds, lo < hi."""

    population_size: int
    bounds: np.ndarray
    crossprob: float
    mutprob: float


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
    u = cumulative[-1] * rng.random()
    return order[min(bisect_right(cumulative, u), n - 1)]


def crossover(parent1: np.ndarray, parent2: np.ndarray, crossprob: float,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blend one uniformly drawn coordinate with a shared random factor.

    child1[i] = c*p1[i] + (1-c)*p2[i] and symmetrically for child2, which
    conserves the coordinate sum. All other coordinates are copied.
    """
    child1, child2 = parent1.copy(), parent2.copy()
    if rng.random() < crossprob:
        i = int(rng.integers(0, len(parent1)))
        c = rng.random()
        a, b = parent1.item(i), parent2.item(i)
        child1[i], child2[i] = c * a + (1 - c) * b, c * b + (1 - c) * a
    return child1, child2


def mutate(individual: np.ndarray, mutprob: float, bounds: np.ndarray,
           rng: np.random.Generator) -> np.ndarray:
    """Reset one uniformly drawn coordinate uniformly within its bounds.

    The input is never written; it is returned when nothing is reset. The
    caller keeps the elite individual out of this operator.
    """
    if not rng.random() < mutprob:
        return individual
    i = int(rng.integers(0, len(individual)))
    out = individual.copy()
    lo, hi = bounds[i].tolist()
    out[i] = lo + rng.random() * (hi - lo)
    return out


def repair(individual: np.ndarray, constraints: list[SumConstraint],
           bounds: np.ndarray, rng: np.random.Generator,
           reference: np.ndarray | None) -> np.ndarray:
    """Move an unfeasible individual to feasibility.

    Bisects along the segment toward a reference individual (the elite,
    or genome 0 while the population is drawn) for BISECTION_STEPS
    halvings and returns the feasible end; if no midpoint is feasible,
    that end is the reference's, which is not shown to be feasible.
    Without a usable reference, uniform points within the bounds are
    drawn until one is feasible. Feasible inputs are returned unchanged;
    the repaired genome always replaces the original.
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


def ga_generation(genomes: list[np.ndarray], fitnesses: list[float],
                  order: list[int], params: GaParams, objective,
                  constraints: list[SumConstraint],
                  rng: np.random.Generator
                  ) -> tuple[list[np.ndarray], list[float]]:
    """Produce the next generation's (genomes, fitnesses): elite copy plus
    bred children. `order` is `rank_population(fitnesses)`.

    Children go through select -> crossover -> mutate -> repair toward
    the elite -> evaluate; the elite is copied verbatim (and is thereby
    exempt from mutation). Population size is preserved.
    """
    elites = order[:ELITISM_COUNT]
    next_genomes = [genomes[i].copy() for i in elites]
    next_fitnesses = [fitnesses[i] for i in elites]
    while len(next_genomes) < params.population_size:
        p1 = genomes[select_parent(order, rng)]
        p2 = genomes[select_parent(order, rng)]
        for child in crossover(p1, p2, params.crossprob, rng):
            if len(next_genomes) >= params.population_size:
                break
            child = mutate(child, params.mutprob, params.bounds, rng)
            child = repair(child, constraints, params.bounds, rng,
                           genomes[order[0]])
            next_genomes.append(child)
            next_fitnesses.append(objective(child))
    return next_genomes, next_fitnesses


class GaOptimizer:
    """Drives the GA. Its state is `genomes`, `fitnesses` and their ranking
    `order`; the elite `genomes[order[0]]` is repair's reference. The
    run's incumbent is the harness's."""

    def __init__(self, params: GaParams, objective,
                 constraints: list[SumConstraint], rng: np.random.Generator):
        self.params = params
        self.objective = objective
        self.constraints = constraints
        self.rng = rng
        self.genomes: list[np.ndarray] = []
        self.fitnesses: list[float] = []
        self.order: list[int] = []

    def initialize(self):
        bounds = self.params.bounds
        self.genomes = []
        for _ in range(self.params.population_size):
            x = self.rng.uniform(bounds[:, 0], bounds[:, 1])
            self.genomes.append(repair(
                x, self.constraints, bounds, self.rng,
                self.genomes[0] if self.genomes else None))
        self.fitnesses = [self.objective(x) for x in self.genomes]
        self.order = rank_population(self.fitnesses)

    def step(self):
        self.genomes, self.fitnesses = ga_generation(
            self.genomes, self.fitnesses, self.order, self.params,
            self.objective, self.constraints, self.rng)
        self.order = rank_population(self.fitnesses)
