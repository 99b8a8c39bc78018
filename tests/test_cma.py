import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellopt.cma import (CONDITION_CAP, Diagnostics, EvaluationSource,
                         Individual, SearchDistribution, StrategyParams,
                         check_termination, default_strategy_params,
                         rank_population, ranking_key, sample_individual,
                         sampling_transform, update_mean,
                         update_strategy_state)


def draw_population(dist, params, rng, diagnostics=None):
    """lambda draws through the run loop's sampling path."""
    transform = sampling_transform(dist, diagnostics)
    return [Individual(genome=genome)
            for genome in sample_individual(dist, transform, rng, params.lam)]


def make_population(values):
    return [Individual(genome=np.array([float(v)]), raw_objective=float(v),
                       penalized_objective=float(v),
                       evaluated_by=EvaluationSource.TRUE_FUNCTION)
            for v in values]


class TestStrategyParams:
    def test_defaults_satisfy_invariants(self):
        for n, lam in [(2, 4), (5, 8), (10, 10), (12, 40)]:
            p = default_strategy_params(n, lam)
            assert p.mu == lam // 2
            assert np.isclose(p.weights.sum(), 1.0)
            assert np.all(p.weights > 0)
            assert np.all(np.diff(p.weights) <= 0)
            assert np.isclose(p.mu_eff, 1.0 / np.sum(p.weights ** 2))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            StrategyParams(lam=4, mu=2, weights=np.array([0.3, 0.3]),
                           mu_eff=1.0, c_sigma=0.1, d_sigma=1.0, c_c=0.1,
                           c_1=0.01, c_mu=0.01, chi_n=1.0, max_generations=10)
        with pytest.raises(ValueError):
            StrategyParams(lam=4, mu=2, weights=np.array([0.3, 0.7]),
                           mu_eff=1.0, c_sigma=0.1, d_sigma=1.0, c_c=0.1,
                           c_1=0.01, c_mu=0.01, chi_n=1.0, max_generations=10)


class TestSampling:
    def test_identity_case_shapes_and_mean(self):
        n = 3
        params = default_strategy_params(n, 2000, max_generations=10)
        dist = SearchDistribution.initial(np.zeros(n), 1.0)
        pop = draw_population(dist, params, np.random.default_rng(1))
        assert len(pop) == 2000
        assert all(ind.penalized_objective is None for ind in pop)
        assert all(ind.evaluated_by is EvaluationSource.UNSET for ind in pop)
        genomes = np.array([ind.genome for ind in pop])
        assert np.all(np.abs(genomes.mean(axis=0)) < 0.1)

    def test_zero_step_size_rejected(self):
        with pytest.raises(ValueError):
            SearchDistribution.initial(np.zeros(2), 0.0)

    def test_empirical_variance_matches_covariance(self):
        # Monte-Carlo oracle: per-coordinate variance of many draws must
        # match sigma^2 * diag(C) within 5%.
        sigma = 0.7
        dist = SearchDistribution(mean=np.zeros(2), step_size=sigma,
                                  covariance=np.diag([1.0, 4.0]),
                                  path_sigma=np.zeros(2), path_c=np.zeros(2))
        params = default_strategy_params(2, 100_000, max_generations=1)
        pop = draw_population(dist, params, np.random.default_rng(7))
        genomes = np.array([ind.genome for ind in pop])
        variances = genomes.var(axis=0)
        expected = sigma ** 2 * np.array([1.0, 4.0])
        assert np.all(np.abs(variances - expected) < 0.05 * expected)

    def test_singular_covariance_repaired_not_fatal(self):
        dist = SearchDistribution(mean=np.zeros(2), step_size=1.0,
                                  covariance=np.array([[1.0, 1.0],
                                                       [1.0, 1.0]]),
                                  path_sigma=np.zeros(2), path_c=np.zeros(2))
        params = default_strategy_params(2, 4)
        diagnostics = Diagnostics()
        pop = draw_population(dist, params, np.random.default_rng(0),
                              diagnostics)
        assert len(pop) == 4
        assert diagnostics.covariance_repairs == 1
        assert all(np.all(np.isfinite(ind.genome)) for ind in pop)

    def test_each_floored_matrix_counted_once(self):
        # The singular C is floored once although termination, sampling
        # and the update all read it; the updated C is floored again.
        dist = SearchDistribution(mean=np.zeros(2), step_size=1.0,
                                  covariance=np.array([[1.0, 1.0],
                                                       [1.0, 1.0]]),
                                  path_sigma=np.zeros(2), path_c=np.zeros(2))
        params = default_strategy_params(2, 4)
        diagnostics = Diagnostics()
        check_termination(dist, params, [], diagnostics=diagnostics)
        pop = draw_population(dist, params, np.random.default_rng(0),
                              diagnostics)
        assert diagnostics.covariance_repairs == 1
        for i, ind in enumerate(pop):
            ind.penalized_objective = float(i)
        order = rank_population(pop)
        old_mean = dist.mean
        dist.mean = update_mean(dist, params, pop, order)
        update_strategy_state(dist, params, pop, order, old_mean, diagnostics)
        assert diagnostics.covariance_repairs == 2


class TestRanking:
    def test_basic_order(self):
        assert rank_population(make_population([3, 1, 2])) == [1, 2, 0]

    def test_all_equal_ties_break_by_index(self):
        assert rank_population(make_population([5, 5, 5, 5])) == [0, 1, 2, 3]

    def test_matches_independent_sort_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(40).tolist()
        # insertion sort on (value, index) pairs, independent of sorted()
        pairs = list(enumerate(values))
        ordered = []
        for pair in pairs:
            pos = 0
            while pos < len(ordered) and (
                    (ordered[pos][1], ordered[pos][0]) < (pair[1], pair[0])):
                pos += 1
            ordered.insert(pos, pair)
        assert rank_population(make_population(values)) == [i for i, _ in ordered]

    def test_is_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            values = rng.standard_normal(17).tolist()
            order = rank_population(make_population(values))
            assert sorted(order) == list(range(17))

    def test_unset_objective_raises(self):
        pop = make_population([1, 2])
        pop[1].penalized_objective = None
        with pytest.raises(ValueError):
            rank_population(pop)

    def test_nan_ranks_last(self):
        values = [3.0, math.nan, 1.0, 2.0, 0.5]
        assert rank_population(make_population(values)) == [4, 2, 3, 0, 1]

    def test_infinities_rank_after_finite_values_by_index(self):
        values = [math.inf, 1.0, -math.inf, math.nan, 0.0]
        assert rank_population(make_population(values)) == [4, 1, 0, 2, 3]

    @settings(deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf])), max_size=30))
    def test_ranking_key_is_total_order_under_nonfinite(self, values):
        order = sorted(range(len(values)), key=ranking_key(values))
        assert sorted(order) == list(range(len(values)))
        finite = [i for i in order if math.isfinite(values[i])]
        nonfinite = [i for i in order if not math.isfinite(values[i])]
        assert order == finite + nonfinite
        assert nonfinite == sorted(nonfinite)
        ranked = [values[i] for i in finite]
        assert ranked == sorted(ranked)
        # equal finite values keep index order
        assert all(a < b for a, b in zip(finite, finite[1:])
                   if values[a] == values[b])


class TestMeanUpdate:
    def _dist(self, n):
        return SearchDistribution.initial(np.zeros(n), 1.0)

    def test_mu_one_returns_best(self):
        params = default_strategy_params(2, 2)
        assert params.mu == 1
        pop = [Individual(np.array([5.0, 5.0]), penalized_objective=2.0),
               Individual(np.array([1.0, 2.0]), penalized_objective=1.0)]
        order = rank_population(pop)
        mean = update_mean(self._dist(2), params, pop, order)
        assert np.array_equal(mean, np.array([1.0, 2.0]))

    def test_equal_weights_midpoint(self):
        params = default_strategy_params(2, 4)
        params = StrategyParams(lam=4, mu=2, weights=np.array([0.5, 0.5]),
                                mu_eff=2.0, c_sigma=params.c_sigma,
                                d_sigma=params.d_sigma, c_c=params.c_c,
                                c_1=params.c_1, c_mu=params.c_mu,
                                chi_n=params.chi_n, max_generations=100)
        pop = [Individual(np.array([0.0, 0.0]), penalized_objective=0.0),
               Individual(np.array([2.0, 2.0]), penalized_objective=1.0),
               Individual(np.array([9.0, 9.0]), penalized_objective=9.0),
               Individual(np.array([8.0, 8.0]), penalized_objective=8.0)]
        mean = update_mean(self._dist(2), params, pop, rank_population(pop))
        assert np.allclose(mean, [1.0, 1.0])

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(5)
        params = default_strategy_params(4, 12)
        pop = [Individual(rng.standard_normal(4),
                          penalized_objective=float(rng.standard_normal()))
               for _ in range(12)]
        order = rank_population(pop)
        mean = update_mean(self._dist(4), params, pop, order)
        expected = np.zeros(4)
        for i in range(params.mu):
            expected += params.weights[i] * pop[order[i]].genome
        assert np.allclose(mean, expected, rtol=1e-14)

    def test_mean_in_convex_hull_of_parents(self):
        rng = np.random.default_rng(9)
        params = default_strategy_params(3, 10)
        pop = [Individual(rng.standard_normal(3),
                          penalized_objective=float(rng.standard_normal()))
               for _ in range(10)]
        order = rank_population(pop)
        mean = update_mean(self._dist(3), params, pop, order)
        parents = np.array([pop[order[i]].genome for i in range(params.mu)])
        assert np.all(mean >= parents.min(axis=0) - 1e-12)
        assert np.all(mean <= parents.max(axis=0) + 1e-12)


def evolve_once(dist, params, rng, objective):
    pop = draw_population(dist, params, rng)
    for ind in pop:
        ind.raw_objective = objective(ind.genome)
        ind.penalized_objective = ind.raw_objective
        ind.evaluated_by = EvaluationSource.TRUE_FUNCTION
    order = rank_population(pop)
    old_mean = dist.mean
    dist.mean = update_mean(dist, params, pop, order)
    return update_strategy_state(dist, params, pop, order, old_mean), pop


class TestStrategyUpdate:
    def test_sphere_convergence_smoke(self):
        # The full criterion (n=10, tolerance 1e-9, 10 seeds) lives in the
        # acceptance suite; this is a single-seed sanity check.
        n, lam = 5, 8
        params = default_strategy_params(n, lam, max_generations=500)
        rng = np.random.default_rng(2)
        dist = SearchDistribution.initial(rng.uniform(-5, 5, n), 3.0)
        best = np.inf
        for _ in range(500):
            dist, pop = evolve_once(dist, params, rng,
                                    lambda x: float(np.sum(x ** 2)))
            best = min(best, min(ind.raw_objective for ind in pop))
            if best < 1e-9:
                break
        assert best < 1e-9

    def test_determinism_bit_identical(self):
        n, lam = 4, 6
        params = default_strategy_params(n, lam)
        results = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            dist = SearchDistribution.initial(np.full(n, 1.0), 0.5)
            for _ in range(20):
                dist, _ = evolve_once(dist, params, rng,
                                      lambda x: float(np.sum(x ** 4)))
            results.append(dist)
        a, b = results
        assert np.array_equal(a.mean, b.mean)
        assert a.step_size == b.step_size
        assert np.array_equal(a.covariance, b.covariance)
        assert np.array_equal(a.path_sigma, b.path_sigma)
        assert np.array_equal(a.path_c, b.path_c)

    def test_state_stays_valid_on_random_objective(self):
        n, lam = 3, 6
        params = default_strategy_params(n, lam, max_generations=2000)
        rng = np.random.default_rng(8)
        value_rng = np.random.default_rng(9)
        dist = SearchDistribution.initial(np.zeros(n), 1.0)
        floor_scale = 1e-20
        for _ in range(1000):
            dist, _ = evolve_once(dist, params, rng,
                                  lambda x: float(value_rng.standard_normal()))
            assert dist.step_size > 0
            C = dist.covariance
            assert np.allclose(C, C.T, rtol=1e-12, atol=1e-300)
            values = np.linalg.eigvalsh(C)
            assert values[0] >= floor_scale * np.trace(C) / n * (1 - 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), lam=st.integers(4, 16),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_covariance_stays_spd_under_arbitrary_rankings(self, n, lam,
                                                            seed, data):
        """C stays symmetric positive definite whatever order the update
        is told, here random permutations of the population."""
        params = default_strategy_params(n, lam)
        rng = np.random.default_rng(seed)
        dist = SearchDistribution.initial(rng.uniform(-5, 5, n),
                                          data.draw(st.floats(1e-3, 10.0)))
        for _ in range(data.draw(st.integers(1, 12))):
            population = draw_population(dist, params, rng)
            order = data.draw(st.permutations(range(lam)))
            old_mean = dist.mean
            dist.mean = update_mean(dist, params, population, order)
            dist = update_strategy_state(dist, params, population, order,
                                         old_mean)
            C = dist.covariance
            assert np.array_equal(C, C.T)
            assert np.all(np.isfinite(C))
            np.linalg.cholesky(C)          # raises unless positive definite
            assert np.linalg.eigvalsh(C)[0] > 0.0
            assert dist.step_size > 0.0

    def test_generation_increments(self):
        params = default_strategy_params(2, 4)
        rng = np.random.default_rng(0)
        dist = SearchDistribution.initial(np.zeros(2), 1.0)
        dist, _ = evolve_once(dist, params, rng, lambda x: float(x @ x))
        assert dist.generation == 1


class TestTermination:
    def _dist(self, generation=0, covariance=None):
        C = np.eye(2) if covariance is None else covariance
        return SearchDistribution(mean=np.zeros(2), step_size=1.0,
                                  covariance=C, path_sigma=np.zeros(2),
                                  path_c=np.zeros(2), generation=generation)

    def test_generation_cap(self):
        params = default_strategy_params(2, 4, max_generations=100)
        decision = check_termination(self._dist(generation=100), params, [])
        assert decision.stop and decision.reason == "max_generations"

    def test_fresh_run_continues(self):
        params = default_strategy_params(2, 4, max_generations=100)
        assert not check_termination(self._dist(), params, []).stop

    def test_ill_conditioned_covariance(self):
        params = default_strategy_params(2, 4, max_generations=100)
        C = np.diag([1.0, 2.0 * CONDITION_CAP])
        decision = check_termination(self._dist(covariance=C), params, [1.0])
        assert decision.stop and decision.reason == "ill-conditioned"

    def test_stagnation(self):
        params = default_strategy_params(2, 4, max_generations=1000)
        history = [5.0] * 40
        decision = check_termination(self._dist(generation=40), params,
                                     history)
        assert decision.stop and decision.reason == "stagnation"

    def test_stagnation_suppressed_while_objective_moves(self):
        params = default_strategy_params(2, 4, max_generations=1000)
        history = [5.0] * 40
        decision = check_termination(self._dist(generation=40), params,
                                     history, objective_stationary=False)
        assert not decision.stop

    def test_improving_history_continues(self):
        params = default_strategy_params(2, 4, max_generations=1000)
        history = list(np.linspace(10.0, 1.0, 60))
        assert not check_termination(self._dist(generation=60), params,
                                     history).stop
