import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellopt.ga as ga
from wellopt.cma import rank_population
from wellopt.constraints import SumConstraint, constraint_violation
from wellopt.ga import (ELITISM_COUNT, GaOptimizer, GaParams,
                        NoFeasiblePointError, crossover, ga_generation,
                        is_feasible, mutate, repair, select_parent)
from wellopt.harness import RunConfig, build_problem, run_ga

CONSTRAINED_SPHERE = (Path(__file__).resolve().parents[1] / "configs"
                      / "constrained_sphere.json")


class FakeRng:
    """Scripted generator for exercising operator formulas directly."""

    def __init__(self, uniforms=(), integers=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)

    def uniform(self, low=0.0, high=1.0, size=None):
        value = self._uniforms.pop(0)
        return low + value * (high - low)

    def integers(self, low, high):
        return self._integers.pop(0)


def bounds(n, lo=-5.0, hi=5.0):
    return np.tile([lo, hi], (n, 1))


class TestGaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaParams(population_size=1, bounds=bounds(2))
        with pytest.raises(ValueError):
            GaParams(population_size=4, bounds=np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            GaParams(population_size=4, bounds=bounds(2), crossprob=1.5)


class TestSelection:
    def test_single_individual_always_chosen(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert select_parent([0], rng) == 0

    def test_two_individuals_best_probability_two_thirds(self):
        # Monte-Carlo oracle: linear rank weights give the better of two
        # individuals weight 2 vs 1.
        rng = np.random.default_rng(1)
        order = rank_population(np.array([3.0, 1.0]))
        assert order == [1, 0]
        draws = 100_000
        hits = sum(select_parent(order, rng) == 1 for _ in range(draws))
        assert hits / draws == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_nan_fitness_ranks_last(self):
        order = rank_population(np.array([3.0, np.nan, 1.0, 2.0, 0.5]))
        assert order == [4, 2, 3, 0, 1]

    def test_equal_fitness_frequencies_follow_rank_after_tiebreak(self):
        rng = np.random.default_rng(2)
        n = 4
        order = rank_population(np.zeros(n))
        assert order == [0, 1, 2, 3]
        draws = 100_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[select_parent(order, rng)] += 1
        weights = np.array([4.0, 3.0, 2.0, 1.0])
        expected = weights / weights.sum()
        assert np.all(np.abs(counts / draws - expected) < 0.01)


def old_select_parent(order, rng):
    """select_parent before its cumulative weights were cached, verbatim."""
    n = len(order)
    weights = np.arange(n, 0, -1, dtype=float)
    cumulative = np.cumsum(weights)
    u = rng.uniform(0.0, cumulative[-1])
    position = int(np.searchsorted(cumulative, u, side="right"))
    return order[min(position, n - 1)]


class TestSelectParentMatchesOldVersion:
    @pytest.mark.parametrize("fraction, index", [
        (0.0, 0), (0.5, 1), (5 / 6, 2), (1.0, 2)])
    def test_draw_on_a_cumulative_weight(self, fraction, index):
        # weights 3, 2, 1 (cumulative 3, 5, 6): a draw equal to a
        # cumulative weight picks the next rank, as searchsorted's
        # side="right" does
        order = [7, 8, 9]
        assert (select_parent(order, FakeRng(uniforms=[fraction]))
                == old_select_parent(order, FakeRng(uniforms=[fraction]))
                == order[index])

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), picks=st.integers(1, 40))
    def test_same_picks_and_draws(self, sizes, seed, picks):
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        for n in sizes:
            order = list(np.random.default_rng(n).permutation(n))
            for _ in range(picks):
                assert (select_parent(order, new_rng)
                        == old_select_parent(order, old_rng))
        assert (new_rng.bit_generator.state
                == old_rng.bit_generator.state)


class TestCrossover:
    def test_blend_formula_with_scripted_rng(self):
        # coin 0.0 < crossprob, index 1, c = 0.5: both children get the
        # midpoint at coordinate 1 and copies elsewhere
        p1 = np.array([10.0, 2.0, -1.0])
        p2 = np.array([20.0, 4.0, -3.0])
        rng = FakeRng(uniforms=[0.0, 0.5], integers=[1])
        c1, c2 = crossover(p1, p2, crossprob=0.7, rng=rng)
        assert np.array_equal(c1, [10.0, 3.0, -1.0])
        assert np.array_equal(c2, [20.0, 3.0, -3.0])

    def test_blend_factor_one_copies_parents(self):
        p1 = np.array([1.0, 2.0])
        p2 = np.array([5.0, 6.0])
        rng = FakeRng(uniforms=[0.0, 1.0], integers=[0])
        c1, c2 = crossover(p1, p2, crossprob=1.0, rng=rng)
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)

    def test_zero_probability_copies(self):
        rng = np.random.default_rng(3)
        p1, p2 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        c1, c2 = crossover(p1, p2, 0.0, rng)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_coordinate_sum_conserved(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p1 = rng.standard_normal(5)
            p2 = rng.standard_normal(5)
            c1, c2 = crossover(p1, p2, 1.0, rng)
            assert np.allclose(c1 + c2, p1 + p2, rtol=1e-12)
            assert np.sum(c1 != p1) <= 1
            assert np.sum(c2 != p2) <= 1


class TestMutation:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(5)
        x = np.array([1.0, 2.0])
        assert mutate(x, 0.0, bounds(2), rng) is x
        assert np.array_equal(x, [1.0, 2.0])

    def test_reset_formula_with_scripted_rng(self):
        rng = FakeRng(uniforms=[0.0, 0.25], integers=[1])
        x = np.array([0.0, 0.0, 0.0])
        out = mutate(x, 1.0, bounds(3, -2.0, 6.0), rng)
        assert np.array_equal(out, [0.0, 0.0, 0.0]) or out[1] == 0.0
        # min + c * (max - min) = -2 + 0.25 * 8 = 0 -> craft a clearer case
        rng = FakeRng(uniforms=[0.0, 0.75], integers=[2])
        out = mutate(x, 1.0, bounds(3, -2.0, 6.0), rng)
        assert out[2] == pytest.approx(-2.0 + 0.75 * 8.0)
        assert np.array_equal(out[:2], x[:2])
        # the reset is written to a copy, never to the input
        assert np.array_equal(x, [0.0, 0.0, 0.0])

    def test_mutated_coordinate_within_bounds(self):
        rng = np.random.default_rng(6)
        b = np.array([[0.0, 1.0], [-3.0, -1.0]])
        for _ in range(500):
            out = mutate(np.array([0.5, -2.0]), 1.0, b, rng)
            assert 0.0 <= out[0] <= 1.0
            assert -3.0 <= out[1] <= -1.0

    def test_uniformity_kolmogorov_smirnov(self):
        # One-coordinate genome so every mutation hits index 0; the KS
        # statistic of 1e5 resets against U(lo, hi) must stay below the
        # 1% critical value 1.63 / sqrt(N).
        rng = np.random.default_rng(7)
        lo, hi = 2.0, 7.0
        b = np.array([[lo, hi]])
        n = 100_000
        samples = np.empty(n)
        for i in range(n):
            samples[i] = mutate(np.array([3.0]), 1.0, b, rng)[0]
        sorted_u = np.sort((samples - lo) / (hi - lo))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - sorted_u)),
                 np.max(np.abs(sorted_u - (grid - 1.0 / n))))
        assert ks < 1.63 / np.sqrt(n)


class TestRepair:
    def test_feasible_input_unchanged(self):
        c = SumConstraint(indices=(0,), lower=0.0, upper=5.0)
        rng = np.random.default_rng(8)
        x = np.array([3.0])
        out = repair(x, [c], bounds(1, 0.0, 10.0), rng, np.array([1.0]))
        assert out is x

    def test_bisection_lands_just_inside_boundary(self):
        # 1-D constraint x in (0, 5), infeasible x = 9, reference 4:
        # the crossing is at t = 0.8, so 30 halvings land within
        # 5 * 2^-30 of the boundary, on the feasible side.
        c = SumConstraint(indices=(0,), lower=0.0, upper=5.0)
        rng = np.random.default_rng(9)
        out = repair(np.array([9.0]), [c], bounds(1, 0.0, 10.0), rng,
                     np.array([4.0]))
        assert is_feasible(out, [c])
        assert 0.0 < out[0] <= 5.0
        assert abs(out[0] - 5.0) < 5.0 * 2 ** -29

    def test_degenerate_reference_falls_back_to_sampling(self):
        c = SumConstraint(indices=(0,), lower=0.0, upper=5.0)
        rng = np.random.default_rng(10)
        x = np.array([9.0])
        out = repair(x, [c], bounds(1, 0.0, 10.0), rng, x.copy())
        assert is_feasible(out, [c])

    def test_no_feasible_point_raises(self):
        c = SumConstraint(indices=(0,), lower=100.0, upper=101.0)
        rng = np.random.default_rng(11)
        with pytest.raises(NoFeasiblePointError):
            repair(np.array([9.0]), [c], bounds(1, 0.0, 10.0), rng, None)


def sphere(x):
    return float(np.sum(x ** 2))


class TestGaGeneration:
    def _params(self, n=3, pop=10, **kwargs):
        return GaParams(population_size=pop, bounds=bounds(n), **kwargs)

    def test_population_size_preserved(self):
        rng = np.random.default_rng(12)
        params = self._params()
        genomes = [rng.uniform(-5, 5, 3) for _ in range(10)]
        fitnesses = np.array([sphere(g) for g in genomes])
        for _ in range(5):
            genomes, fitnesses = ga_generation(genomes, fitnesses, params,
                                               sphere, [], rng, None)
            assert len(genomes) == 10

    def test_elitism_keeps_best(self):
        rng = np.random.default_rng(13)
        opt = GaOptimizer(self._params(), sphere, [], rng)
        opt.initialize()
        best = opt.best_fitness
        for _ in range(30):
            opt.step()
            assert opt.best_fitness <= best
            best = opt.best_fitness

    def test_no_operators_population_collapses_to_parents(self):
        rng = np.random.default_rng(14)
        params = self._params(crossprob=0.0, mutprob=0.0)
        genomes = [rng.uniform(-5, 5, 3) for _ in range(10)]
        initial = {tuple(g) for g in genomes}
        fitnesses = np.array([sphere(g) for g in genomes])
        for _ in range(20):
            genomes, fitnesses = ga_generation(genomes, fitnesses, params,
                                               sphere, [], rng, None)
        assert {tuple(g) for g in genomes} <= initial

    def test_all_evaluated_individuals_feasible(self):
        c = SumConstraint(indices=(0, 1, 2), lower=-1.0, upper=1.0)
        seen = []

        def recording_objective(x):
            seen.append(x.copy())
            return sphere(x)

        rng = np.random.default_rng(15)
        opt = GaOptimizer(self._params(), recording_objective, [c], rng)
        opt.initialize()
        for _ in range(10):
            opt.step()
        assert seen
        assert all(is_feasible(x, [c]) for x in seen)

    def test_determinism(self):
        finals = []
        for _ in range(2):
            rng = np.random.default_rng(16)
            opt = GaOptimizer(self._params(), sphere, [], rng)
            opt.initialize()
            for _ in range(15):
                opt.step()
            finals.append((opt.best_fitness, opt.best_genome.copy()))
        assert finals[0][0] == finals[1][0]
        assert np.array_equal(finals[0][1], finals[1][1])

    @pytest.mark.parametrize("spike", [float("nan"), float("-inf"),
                                       float("inf")])
    def test_nonfinite_fitness_never_tracked_as_best(self, spike):
        values = iter([spike, 3.0, 1.0, 2.0])

        def objective(x):
            return next(values, 5.0)

        opt = GaOptimizer(self._params(pop=4), objective, [],
                          np.random.default_rng(18))
        opt.initialize()
        assert opt.best_fitness == 1.0
        assert np.array_equal(opt.best_genome, opt.genomes[2])

    def test_no_finite_fitness_leaves_no_best(self):
        values = iter([float("-inf"), float("nan"), float("-inf"),
                       float("inf")])
        opt = GaOptimizer(self._params(pop=4), lambda x: next(values), [],
                          np.random.default_rng(18))
        opt.initialize()
        assert opt.best_fitness == np.inf

    def test_converges_on_sphere(self):
        rng = np.random.default_rng(17)
        opt = GaOptimizer(self._params(pop=30), sphere, [], rng)
        opt.initialize()
        start = opt.best_fitness
        for _ in range(60):
            opt.step()
        assert opt.best_fitness < 0.5 * start


def old_is_feasible(x, constraints):
    """is_feasible before its one-pass form, verbatim."""
    return all(constraint_violation(x, c)[2] == 0.0 for c in constraints)


special_values = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])


@st.composite
def feasibility_cases(draw):
    """A float genome (NaN, +-inf and -0.0 among its values) and single-
    and multi-coordinate constraints, sums of up to 12 coordinates, whose
    bounds are often a coordinate, a constraint sum or infinite."""
    n = draw(st.integers(1, 12))
    x = np.array([draw(st.one_of(st.floats(-10.0, 10.0), special_values,
                                 st.floats()))
                  for _ in range(n)])
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.sampled_from([1, 1, 2, n]))
        indices = tuple(draw(st.permutations(range(n)))[:size])
        anchors = [v for v in x.tolist() if not math.isnan(v)]
        with np.errstate(all="ignore"):   # an overflowing or inf - inf sum
            total = float(x[list(indices)].sum())
        anchors += [] if math.isnan(total) else [total]
        bound = st.one_of(st.sampled_from(anchors + [0.0, -0.0]),
                          st.floats(allow_nan=False),
                          st.sampled_from([-math.inf, math.inf]))
        lower, upper = sorted([draw(bound), draw(bound)])
        if lower == upper:
            lower, upper = ((lower, math.inf) if upper < math.inf
                            else (-math.inf, upper))
        constraints.append(SumConstraint(indices, lower, upper))
    return x, constraints


class TestIsFeasibleMatchesViolationDistance:
    @settings(max_examples=1000, deadline=None)
    @given(case=feasibility_cases())
    def test_one_pass_equals_zero_distance(self, case):
        x, constraints = case
        with np.errstate(all="ignore"):
            for c in constraints:
                assert (is_feasible(x, [c])
                        == (constraint_violation(x, c)[2] == 0.0))
            assert is_feasible(x, constraints) == old_is_feasible(
                x, constraints)

    @pytest.mark.parametrize("q, lower, upper, feasible", [
        (5.0, 0.0, 5.0, True), (0.0, 0.0, 5.0, True),
        (-0.0, 0.0, 5.0, True), (5.000000000000001, 0.0, 5.0, False),
        (math.nan, 0.0, 5.0, False), (math.inf, 0.0, math.inf, False),
        (-math.inf, -math.inf, 0.0, False), (1e308, 0.0, math.inf, True)])
    def test_single_coordinate_edges(self, q, lower, upper, feasible):
        c = SumConstraint((1,), lower, upper)
        x = np.array([0.0, q])
        assert is_feasible(x, [c]) is feasible
        assert old_is_feasible(x, [c]) is feasible


def old_ga_generation(genomes, fitnesses, params, objective, constraints,
                      rng, feasible_reference):
    """ga_generation before ranking on Python floats, verbatim but for
    the name of the parent selection."""
    order = rank_population(fitnesses)
    elites = order[:ELITISM_COUNT]
    next_genomes = [genomes[i].copy() for i in elites]
    next_fitnesses = [float(fitnesses[i]) for i in elites]
    while len(next_genomes) < params.population_size:
        p1 = genomes[old_select_parent(order, rng)]
        p2 = genomes[old_select_parent(order, rng)]
        for child in crossover(p1, p2, params.crossprob, rng):
            if len(next_genomes) >= params.population_size:
                break
            child = mutate(child, params.mutprob, params.bounds, rng)
            child = repair(child, constraints, params.bounds, rng,
                           feasible_reference)
            next_genomes.append(child)
            next_fitnesses.append(float(objective(child)))
    return next_genomes, np.array(next_fitnesses)


def old_track_best(self):
    """GaOptimizer._track_best before ranking on Python floats, verbatim."""
    idx = rank_population(self.fitnesses)[0]
    value = float(self.fitnesses[idx])
    if math.isfinite(value) and value < self.best_fitness:
        self.best_fitness = value
        self.best_genome = self.genomes[idx].copy()


class TestConstrainedRunKeepsTheOldBits:
    """On the constrained sphere run as `ga`, the optimum lies on the
    5-coordinate sum bound, so children leave the feasible region and
    `repair` bisects: the run's CSV must not change when feasibility,
    parent selection and ranking go back to their earlier forms."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_csv_bytes(self, seed, monkeypatch, tmp_path):
        config = replace(RunConfig.load(CONSTRAINED_SPHERE), optimizer="ga",
                         max_generations=30)
        moved = []
        shipped_repair = ga.repair

        def counting_repair(individual, *args):
            out = shipped_repair(individual, *args)
            moved.append(out is not individual)
            return out

        with monkeypatch.context() as m:
            m.setattr(ga, "repair", counting_repair)
            run_ga(build_problem(config), config, seed).write_csv(
                tmp_path / "shipped.csv")
        assert sum(moved) > 30

        calls = []

        def counted(function):
            def wrapper(*args):
                calls.append(function.__name__)
                return function(*args)
            return wrapper

        monkeypatch.setattr(ga, "is_feasible", counted(old_is_feasible))
        monkeypatch.setattr(ga, "ga_generation", counted(old_ga_generation))
        monkeypatch.setattr(GaOptimizer, "_track_best", old_track_best)
        run_ga(build_problem(config), config, seed).write_csv(
            tmp_path / "old.csv")
        assert calls.count("old_ga_generation") == 29
        assert calls.count("old_is_feasible") > 30
        assert ((tmp_path / "shipped.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())
