import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellopt.cma import (CONDITION_CAP, EXP_LIMIT, SearchDistribution,
                         StrategyParams, _floored_eigh, check_termination,
                         default_strategy_params, rank_population,
                         sample_individual, sampling_transform,
                         update_mean, update_strategy_state)
from reference_forms import initial_distribution


def ranking_key(values):
    """The sort key `rank_population` used to sort by, kept as the
    reference order: ascending value, ties by index, and every non-finite
    value (NaN, +-inf) after all finite ones."""
    return lambda i: ((0, values[i], i) if math.isfinite(values[i])
                      else (1, 0.0, i))


def draw_genomes(dist, params, rng):
    """lambda draws through the run loop's sampling path, one per row."""
    transform = sampling_transform(dist)
    return sample_individual(dist, transform, rng, params.lam)


def singular_distribution():
    return SearchDistribution(mean=np.zeros(2), step_size=1.0,
                              covariance=np.array([[1.0, 1.0], [1.0, 1.0]]),
                              path_sigma=np.zeros(2), path_c=np.zeros(2))


def draw_and_update(dist, params):
    """One draw of `dist` and the strategy update, ranked in draw order."""
    genomes = draw_genomes(dist, params, np.random.default_rng(0))
    order = rank_population([float(i) for i in range(len(genomes))])
    old_mean = dist.mean
    dist.mean = update_mean(params, genomes, order)
    return update_strategy_state(dist, params, genomes, order, old_mean)


class TestStrategyParams:
    def test_defaults_satisfy_invariants(self):
        for n, lam in [(2, 4), (5, 8), (10, 10), (12, 40)]:
            p = default_strategy_params(n, lam, 100)
            assert p.mu == lam // 2
            assert np.isclose(p.weights.sum(), 1.0)
            assert np.all(p.weights > 0)
            assert np.all(np.diff(p.weights) <= 0)
            assert np.isclose(p.mu_eff, 1.0 / np.sum(p.weights ** 2))


class TestSampling:
    def test_identity_case_shapes_and_mean(self):
        n = 3
        params = default_strategy_params(n, 2000, max_generations=10)
        dist = initial_distribution(np.zeros(n), 1.0)
        genomes = draw_genomes(dist, params, np.random.default_rng(1))
        assert genomes.shape == (2000, n)
        assert np.all(np.abs(genomes.mean(axis=0)) < 0.1)

    def test_zero_step_size_rejected(self):
        with pytest.raises(ValueError):
            initial_distribution(np.zeros(2), 0.0)

    def test_empirical_variance_matches_covariance(self):
        # Monte-Carlo oracle: per-coordinate variance of many draws must
        # match sigma^2 * diag(C) within 5%.
        sigma = 0.7
        dist = SearchDistribution(mean=np.zeros(2), step_size=sigma,
                                  covariance=np.diag([1.0, 4.0]),
                                  path_sigma=np.zeros(2), path_c=np.zeros(2))
        params = default_strategy_params(2, 100_000, max_generations=1)
        genomes = draw_genomes(dist, params, np.random.default_rng(7))
        variances = genomes.var(axis=0)
        expected = sigma ** 2 * np.array([1.0, 4.0])
        assert np.all(np.abs(variances - expected) < 0.05 * expected)

    def test_singular_covariance_repaired_not_fatal(self):
        dist = singular_distribution()
        params = default_strategy_params(2, 4, 100)
        genomes = draw_genomes(dist, params, np.random.default_rng(0))
        assert len(genomes) == 4
        assert dist.repairs == 1
        assert all(np.all(np.isfinite(genome)) for genome in genomes)

    def test_each_floored_matrix_counted_once(self):
        # The singular C is floored once although termination, sampling
        # and the update all read it; the updated C is floored again.
        dist = singular_distribution()
        params = default_strategy_params(2, 4, 100)
        check_termination(dist, params, [], True)
        updated = draw_and_update(dist, params)
        assert dist.repairs == 1
        assert updated.repairs == 2

    @pytest.mark.parametrize("first", ["eigensystem", "sampling_transform",
                                       "check_termination"])
    def test_repair_count_does_not_depend_on_the_first_reader(self, first):
        dist = singular_distribution()
        params = default_strategy_params(2, 4, 100)
        readers = {"eigensystem": dist.eigensystem,
                   "sampling_transform": lambda: sampling_transform(dist),
                   "check_termination":
                       lambda: check_termination(dist, params, [], True)}
        readers[first]()
        assert dist.repairs == 1
        for read in readers.values():
            read()
        assert dist.repairs == 1
        updated = draw_and_update(dist, params)
        assert dist.repairs == 1
        assert updated.repairs == 2


class TestRanking:
    def test_basic_order(self):
        assert rank_population([3.0, 1.0, 2.0]) == [1, 2, 0]

    def test_all_equal_ties_break_by_index(self):
        assert rank_population([5.0, 5.0, 5.0, 5.0]) == [0, 1, 2, 3]

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
        assert rank_population(values) == [i for i, _ in ordered]

    def test_is_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            values = rng.standard_normal(17).tolist()
            order = rank_population(values)
            assert sorted(order) == list(range(17))

    def test_nan_ranks_last(self):
        values = [3.0, math.nan, 1.0, 2.0, 0.5]
        assert rank_population(values) == [4, 2, 3, 0, 1]

    def test_infinities_rank_after_finite_values_by_index(self):
        values = [math.inf, 1.0, -math.inf, math.nan, 0.0]
        assert rank_population(values) == [4, 1, 0, 2, 3]

    @settings(deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf])), max_size=30))
    def test_ranking_is_total_order_under_nonfinite(self, values):
        order = rank_population(values)
        assert order == sorted(range(len(values)), key=ranking_key(values))
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
    def test_mu_one_returns_best(self):
        params = default_strategy_params(2, 2, 100)
        assert params.mu == 1
        genomes = np.array([[5.0, 5.0], [1.0, 2.0]])
        order = rank_population([2.0, 1.0])
        mean = update_mean(params, genomes, order)
        assert np.array_equal(mean, np.array([1.0, 2.0]))

    def test_equal_weights_midpoint(self):
        params = default_strategy_params(2, 4, 100)
        params = StrategyParams(lam=4, mu=2, weights=np.array([0.5, 0.5]),
                                mu_eff=2.0, c_sigma=params.c_sigma,
                                d_sigma=params.d_sigma, c_c=params.c_c,
                                c_1=params.c_1, c_mu=params.c_mu,
                                chi_n=params.chi_n, max_generations=100)
        genomes = np.array([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0], [8.0, 8.0]])
        mean = update_mean(params, genomes,
                           rank_population([0.0, 1.0, 9.0, 8.0]))
        assert np.allclose(mean, [1.0, 1.0])

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(5)
        params = default_strategy_params(4, 12, 100)
        pairs = [(rng.standard_normal(4), float(rng.standard_normal()))
                 for _ in range(12)]
        genomes = np.array([genome for genome, _ in pairs])
        order = rank_population([value for _, value in pairs])
        mean = update_mean(params, genomes, order)
        expected = np.zeros(4)
        for i in range(params.mu):
            expected += params.weights[i] * genomes[order[i]]
        assert np.allclose(mean, expected, rtol=1e-14)

    def test_mean_in_convex_hull_of_parents(self):
        rng = np.random.default_rng(9)
        params = default_strategy_params(3, 10, 100)
        pairs = [(rng.standard_normal(3), float(rng.standard_normal()))
                 for _ in range(10)]
        genomes = np.array([genome for genome, _ in pairs])
        order = rank_population([value for _, value in pairs])
        mean = update_mean(params, genomes, order)
        parents = genomes[order[:params.mu]]
        assert np.all(mean >= parents.min(axis=0) - 1e-12)
        assert np.all(mean <= parents.max(axis=0) + 1e-12)


def evolve_once(dist, params, rng, objective):
    genomes = draw_genomes(dist, params, rng)
    values = [objective(genome) for genome in genomes]
    order = rank_population(values)
    old_mean = dist.mean
    dist.mean = update_mean(params, genomes, order)
    return (update_strategy_state(dist, params, genomes, order, old_mean),
            values)


class TestStrategyUpdate:
    def test_sphere_convergence_smoke(self):
        # The full criterion (n=10, tolerance 1e-9, 10 seeds) lives in the
        # acceptance suite; this is a single-seed sanity check.
        n, lam = 5, 8
        params = default_strategy_params(n, lam, max_generations=500)
        rng = np.random.default_rng(2)
        dist = initial_distribution(rng.uniform(-5, 5, n), 3.0)
        best = np.inf
        for _ in range(500):
            dist, values = evolve_once(dist, params, rng,
                                       lambda x: float(np.sum(x ** 2)))
            best = min(best, min(values))
            if best < 1e-9:
                break
        assert best < 1e-9

    def test_determinism_bit_identical(self):
        n, lam = 4, 6
        params = default_strategy_params(n, lam, 100)
        results = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            dist = initial_distribution(np.full(n, 1.0), 0.5)
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
        dist = initial_distribution(np.zeros(n), 1.0)
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
        params = default_strategy_params(n, lam, 100)
        rng = np.random.default_rng(seed)
        dist = initial_distribution(rng.uniform(-5, 5, n),
                                    data.draw(st.floats(1e-3, 10.0)))
        for _ in range(data.draw(st.integers(1, 12))):
            genomes = draw_genomes(dist, params, rng)
            order = data.draw(st.permutations(range(lam)))
            old_mean = dist.mean
            dist.mean = update_mean(params, genomes, order)
            dist = update_strategy_state(dist, params, genomes, order,
                                         old_mean)
            C = dist.covariance
            assert np.array_equal(C, C.T)
            assert np.all(np.isfinite(C))
            np.linalg.cholesky(C)          # raises unless positive definite
            assert np.linalg.eigvalsh(C)[0] > 0.0
            assert dist.step_size > 0.0

    def test_generation_increments(self):
        params = default_strategy_params(2, 4, 100)
        rng = np.random.default_rng(0)
        dist = initial_distribution(np.zeros(2), 1.0)
        dist, _ = evolve_once(dist, params, rng, lambda x: float(x @ x))
        assert dist.generation == 1


def per_row_update_mean(params, rows, order):
    """`update_mean` as it was on one genome per candidate: the reference
    the block form must match bit for bit."""
    if params.mu > len(rows):
        raise ValueError("mu exceeds population size")
    best = np.array([rows[order[i]] for i in range(params.mu)])
    return params.weights @ best


def per_row_update_strategy_state(dist, params, rows, order, old_mean):
    """`update_strategy_state` as it was on one genome per candidate."""
    n = dist.dim
    sigma = dist.step_size
    values, vectors = dist.eigensystem()
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

    steps = np.array([(rows[order[i]] - old_mean) / sigma
                      for i in range(params.mu)])
    rank_mu = (steps.T * params.weights) @ steps
    rank_one = np.outer(p_c, p_c)
    old_factor = (1 - params.c_1 - params.c_mu
                  + (1 - h_sigma) * params.c_1 * params.c_c * (2 - params.c_c))
    C = old_factor * dist.covariance + params.c_1 * rank_one + params.c_mu * rank_mu

    values, vectors, _ = _floored_eigh(C)
    C = (vectors * values) @ vectors.T
    C = 0.5 * (C + C.T)

    sigma_new = sigma * np.exp((params.c_sigma / params.d_sigma)
                               * (norm_p / params.chi_n - 1))
    return SearchDistribution(mean=dist.mean, step_size=sigma_new,
                              covariance=C, path_sigma=p_sigma, path_c=p_c,
                              generation=gen)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), lam=st.integers(2, 40),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_block_updates_have_the_bits_of_the_per_row_forms(n, lam, seed, data):
    params = default_strategy_params(n, lam, 100)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    dist = SearchDistribution(mean=rng.uniform(-5, 5, n),
                              step_size=float(rng.uniform(1e-3, 10.0)),
                              covariance=A @ A.T + 0.1 * np.eye(n),
                              path_sigma=rng.standard_normal(n),
                              path_c=rng.standard_normal(n),
                              generation=int(rng.integers(0, 50)))
    genomes = draw_genomes(dist, params, rng)
    rows = list(genomes)
    order = data.draw(st.permutations(range(lam)))
    old_mean = dist.mean
    mean = update_mean(params, genomes, order)
    assert mean.tobytes() == per_row_update_mean(params, rows,
                                                 order).tobytes()
    dist.mean = mean
    got = update_strategy_state(dist, params, genomes, order, old_mean)
    expected = per_row_update_strategy_state(dist, params, rows, order,
                                             old_mean)
    assert got.step_size == expected.step_size
    assert got.generation == expected.generation
    for name in ("mean", "covariance", "path_sigma", "path_c"):
        assert (getattr(got, name).tobytes()
                == getattr(expected, name).tobytes()), name


class TestTermination:
    def _dist(self, generation=0, covariance=None):
        C = np.eye(2) if covariance is None else covariance
        return SearchDistribution(mean=np.zeros(2), step_size=1.0,
                                  covariance=C, path_sigma=np.zeros(2),
                                  path_c=np.zeros(2), generation=generation)

    def test_generation_cap(self):
        params = default_strategy_params(2, 4, max_generations=100)
        reason = check_termination(self._dist(generation=100), params, [],
                                   True)
        assert reason == "max_generations"

    def test_fresh_run_continues(self):
        params = default_strategy_params(2, 4, max_generations=100)
        assert check_termination(self._dist(), params, [], True) == ""

    def test_ill_conditioned_covariance(self):
        params = default_strategy_params(2, 4, max_generations=100)
        C = np.diag([1.0, 2.0 * CONDITION_CAP])
        reason = check_termination(self._dist(covariance=C), params, [1.0],
                                   True)
        assert reason == "ill-conditioned"

    def test_overflowing_step_size_stops_the_run(self):
        # n 1, lambda 2: the recombined mean moved by 0.36 while sigma^2 C
        # is about 2e-8, so |p_sigma| is about 2,100 and the step-size
        # update overflows to inf. The run stops on this distribution
        # before it samples inf genomes.
        params = default_strategy_params(1, 2, max_generations=100)
        dist = SearchDistribution(mean=np.array([0.94]), step_size=0.41,
                                  covariance=np.array([[1.16e-7]]),
                                  path_sigma=np.zeros(1), path_c=np.zeros(1))
        genomes = np.array([[1.3], [0.5]])
        order = [0, 1]
        old_mean = dist.mean
        dist.mean = update_mean(params, genomes, order)
        assert dist.mean.tolist() == [1.3]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dist = update_strategy_state(dist, params, genomes, order,
                                         old_mean)
        assert dist.step_size == math.inf
        assert check_termination(dist, params, [1.0], True) == "non-finite"

    # c_sigma = d_sigma = 0.5 and chi_n = 1 make the exponent
    # 0.5 * path - 1 exactly
    AT_LIMIT = {"c_sigma": 0.5, "d_sigma": 0.5, "chi_n": 1.0}

    @pytest.mark.parametrize("step_size, path, overrides, overflows", [
        (1.0, 0.0, {}, False),        # an ordinary update
        (1e308, 10.0, {}, True),      # a finite growth, an overflowing product
        (1.0, 1e4, {}, True),         # an exponent far above the limit
        (1.0, 2 * (EXP_LIMIT + 1), AT_LIMIT, False),
        (1.0, 2 * (math.nextafter(EXP_LIMIT, math.inf) + 1), AT_LIMIT, True)])
    def test_step_size_update_keeps_the_numpy_bits(self, step_size, path,
                                                   overrides, overflows):
        # sigma * np.exp(...) under np.errstate, the form the update had:
        # the same value, inf where it overflowed, and no warning
        params = replace(default_strategy_params(1, 2, max_generations=100),
                         **overrides)
        dist = SearchDistribution(mean=np.array([0.5]), step_size=step_size,
                                  covariance=np.eye(1),
                                  path_sigma=np.array([path]),
                                  path_c=np.zeros(1))
        genomes = np.array([[0.5], [0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = update_strategy_state(dist, params, genomes, [0, 1],
                                        dist.mean).step_size
        norm_p = (1 - params.c_sigma) * path
        with np.errstate(over="ignore"):
            want = step_size * np.exp((params.c_sigma / params.d_sigma)
                                      * (norm_p / params.chi_n - 1))
        assert np.float64(got).tobytes() == want.tobytes()
        assert math.isinf(got) is overflows

    @pytest.mark.parametrize("mean", [[math.nan, 0.0], [0.0, -math.inf]])
    def test_non_finite_mean_stops_the_run(self, mean):
        params = default_strategy_params(2, 4, max_generations=100)
        dist = self._dist()
        dist.mean = np.array(mean)
        assert check_termination(dist, params, [], True) == "non-finite"

    def test_stagnation(self):
        params = default_strategy_params(2, 4, max_generations=1000)
        history = [5.0] * 40
        reason = check_termination(self._dist(generation=40), params,
                                   history, True)
        assert reason == "stagnation"

    def test_stagnation_suppressed_while_objective_moves(self):
        params = default_strategy_params(2, 4, max_generations=1000)
        history = [5.0] * 40
        reason = check_termination(self._dist(generation=40), params,
                                   history, objective_stationary=False)
        assert reason == ""

    def test_improving_history_continues(self):
        params = default_strategy_params(2, 4, max_generations=1000)
        history = list(np.linspace(10.0, 1.0, 60))
        assert check_termination(self._dist(generation=60), params,
                                 history, True) == ""
