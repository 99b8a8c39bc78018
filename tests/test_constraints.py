import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellopt.cma import (SearchDistribution, StrategyParams,
                         sample_individual, sampling_transform)
from wellopt.constraints import (MAX_RESAMPLES, PenaltyState, SumConstraint,
                                 constraint_violation, is_feasible,
                                 maybe_increase_gammas, maybe_set_gammas,
                                 penalized, penalty_amount,
                                 sample_with_rejection, should_reject,
                                 xi_factors)


def make_dist(n, sigma=1.0, covariance=None, generation=0):
    C = np.eye(n) if covariance is None else np.asarray(covariance, float)
    return SearchDistribution(mean=np.zeros(n), step_size=sigma, covariance=C,
                              path_sigma=np.zeros(n), path_c=np.zeros(n),
                              generation=generation)


def make_params(lam, mu, weights):
    weights = np.asarray(weights, float)
    return StrategyParams(lam=lam, mu=mu, weights=weights,
                          mu_eff=1.0 / np.sum(weights ** 2), c_sigma=0.3,
                          d_sigma=1.0, c_c=0.3, c_1=0.01, c_mu=0.01,
                          chi_n=1.0, max_generations=100)


def numpy_constraint_violation(x, constraint):
    """The numpy version of constraint_violation, kept verbatim as the
    reference the direct single-coordinate read must match bit for bit."""
    q = float(np.asarray(x, dtype=float)[constraint.index_array].sum())
    q_feas = min(max(q, constraint.lower), constraint.upper)
    return q, q_feas, abs(q - q_feas)


def rows_of(draw_one):
    """A block draw `draw(m)` over a stream of single genomes: the next m
    genomes of the stream as the rows of one array."""
    return lambda m: np.array([draw_one() for _ in range(m)])


def bits(values):
    """Byte image of floats: stricter than ==, it also tells -0.0 from
    0.0. Every NaN maps to one NaN: which NaN an operation on two NaNs
    returns depends on the hardware's operand order."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


coordinate = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]),
                       st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def constrained_genomes(draw):
    """A genome and single- and multi-coordinate constraints on it, with
    bounds that are often exactly 0.0 or a coordinate's value."""
    n = draw(st.integers(1, 12))
    x = np.array([draw(coordinate) for _ in range(n)])
    constraints = []
    for _ in range(draw(st.integers(1, 6))):
        indices = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=min(n, 5), unique=True))
        anchors = [v for v in x.tolist() if abs(v) <= 1e6] + [0.0]
        bound = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(anchors))
        lower, upper = sorted([draw(bound), draw(bound)])
        if lower == upper:
            upper = lower + 1.0
        constraints.append(SumConstraint(indices=tuple(indices), lower=lower,
                                         upper=upper))
    return x, constraints


class TestSumConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            SumConstraint(indices=(), lower=0.0, upper=1.0)
        with pytest.raises(ValueError):
            SumConstraint(indices=(0,), lower=1.0, upper=1.0)
        with pytest.raises(ValueError):
            SumConstraint(indices=(-1,), lower=0.0, upper=1.0)

    def test_violation_feasible(self):
        c = SumConstraint(indices=(0, 1), lower=0.0, upper=5.0)
        assert constraint_violation(np.array([1.0, 2.0, 9.0]), c) == (3.0, 3.0, 0.0)

    def test_violation_clamped(self):
        c = SumConstraint(indices=(0, 1), lower=0.0, upper=5.0)
        assert constraint_violation(np.array([4.0, 4.0, 0.0]), c) == (8.0, 5.0, 3.0)

    def test_violation_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            size = int(rng.integers(1, n + 1))
            indices = tuple(rng.choice(n, size=size, replace=False))
            lo = float(rng.uniform(-3, 0))
            hi = float(rng.uniform(0.5, 3))
            c = SumConstraint(indices=indices, lower=lo, upper=hi)
            x = rng.uniform(-5, 5, n)
            q = 0.0
            for p in indices:
                q += x[p]
            q_feas = q
            if q_feas < lo:
                q_feas = lo
            if q_feas > hi:
                q_feas = hi
            got = constraint_violation(x, c)
            assert got[0] == pytest.approx(q, rel=1e-14)
            assert got[1] == pytest.approx(q_feas, rel=1e-14)
            assert got[2] == pytest.approx(abs(q - q_feas), abs=1e-14)

    @settings(max_examples=500, deadline=None)
    @given(case=constrained_genomes())
    def test_violation_matches_numpy_version(self, case):
        x, constraints = case
        for c in constraints:
            assert bits(constraint_violation(x, c)) == bits(
                numpy_constraint_violation(x, c))
        assert is_feasible(x, constraints) == all(
            numpy_constraint_violation(x, c)[2] == 0.0 for c in constraints)

    def test_single_coordinate_negative_zero_reads_as_zero(self):
        # the numpy sum starts from 0.0, so -0.0 comes out as 0.0
        c = SumConstraint(indices=(1,), lower=-1.0, upper=1.0)
        assert bits(constraint_violation(np.array([5.0, -0.0]), c)[0]) == \
            bits(0.0)


class TestRejection:
    def test_far_violation_rejects(self):
        assert should_reject(100.0, 70.0, 0.2)

    def test_marginal_violation_kept(self):
        assert not should_reject(100.0, 90.0, 0.2)

    def test_zero_q_edge_always_rejects(self):
        assert should_reject(0.0, 1.0, 0.2)

    def test_nonpositive_fraction_invalid(self):
        with pytest.raises(ValueError):
            should_reject(1.0, 1.0, 0.0)

    def test_sampler_counts_and_caps(self):
        c = SumConstraint(indices=(0,), lower=0.0, upper=1.0)
        # draws alternate far outside / inside the acceptance band
        sequence = iter([np.array([50.0]), np.array([50.0]), np.array([0.5])])
        x, _, resamples, exhausted = sample_with_rejection(
            rows_of(lambda: next(sequence)), 1, [c], 0.2)
        assert x[0][0] == 0.5 and resamples == 2
        assert exhausted == 0

        always_bad = lambda: np.array([50.0])
        x, _, resamples, exhausted = sample_with_rejection(
            rows_of(always_bad), 1, [c], 0.2)
        assert resamples == MAX_RESAMPLES and x[0][0] == 50.0
        assert exhausted == 1

    @settings(max_examples=200, deadline=None)
    @given(case=constrained_genomes(), fraction=st.floats(0.01, 0.99),
           stream=st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_sampler_stops_within_max_resamples(self, case, fraction, stream):
        """Any stream of draws: at most MAX_RESAMPLES redraws, every draw
        but the last rejected, and the last accepted unless the cap hit."""
        x, constraints = case
        candidates = [x, -x, np.zeros(x.shape), np.full(x.shape, 1e12)]
        draws = []

        def draw():
            draws.append(candidates[stream[len(draws) % len(stream)]])
            return draws[-1]

        def rejected(genome):
            return any(should_reject(*constraint_violation(genome, c)[:2],
                                     fraction) for c in constraints)

        genomes, sums, resamples, exhausted = sample_with_rejection(
            rows_of(draw), 1, constraints, fraction)
        genome = genomes[0]
        assert bits(sums[:, 0]) == bits(
            [constraint_violation(genome, c)[0] for c in constraints])
        assert len(draws) == resamples + 1 <= MAX_RESAMPLES + 1
        assert genome.tobytes() == draws[-1].tobytes()
        assert all(rejected(g) for g in draws[:-1])
        if resamples < MAX_RESAMPLES:
            assert not rejected(genome)
        if all(rejected(candidates[i]) for i in stream):
            assert resamples == MAX_RESAMPLES
        assert exhausted == (resamples == MAX_RESAMPLES and rejected(genome))

    @settings(max_examples=100, deadline=None)
    @given(case=constrained_genomes(), fraction=st.floats(0.01, 0.99))
    def test_sampler_always_violating_draw_hits_the_cap(self, case, fraction):
        _, constraints = case
        far = np.full(case[0].shape, 1e12)   # beyond every upper bound
        calls = []

        def draw():
            calls.append(None)
            return far.copy()

        genomes, _, resamples, exhausted = sample_with_rejection(
            rows_of(draw), 1, constraints, fraction)
        assert resamples == MAX_RESAMPLES
        assert len(calls) == MAX_RESAMPLES + 1
        assert np.array_equal(genomes[0], far)
        assert exhausted == 1

    def test_no_constraints_single_draw(self):
        genomes, sums, resamples, exhausted = sample_with_rejection(
            rows_of(lambda: np.array([9.9])), 1, [], 0.2)
        x = genomes[0]
        assert x[0] == 9.9 and resamples == 0
        assert sums.shape == (0, 1) and exhausted == 0


def per_draw_individual(dist, transform, rng):
    """sample_individual as it drew one genome per call, kept verbatim as
    the reference the block draw must match bit for bit."""
    z = rng.standard_normal(dist.dim)
    return dist.mean + dist.step_size * (transform @ z)


def per_draw_rejection(draw, constraints, rejection_fraction):
    """sample_with_rejection as it screened one draw at a time, kept
    verbatim as the reference of the block sampler."""
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


def per_draw_generation(dist, transform, rng, lam, constraints, fraction):
    """The run loop's per-draw sampling and its gamma-update sums:
    (genomes, q_means, resamples, exhaustions)."""
    genomes, resampled, exhausted = [], 0, 0
    for _ in range(lam):
        genome, resamples = per_draw_rejection(
            lambda: per_draw_individual(dist, transform, rng), constraints,
            fraction)
        resampled += resamples
        exhausted += resamples == MAX_RESAMPLES and any(
            should_reject(*constraint_violation(genome, c)[:2], fraction)
            for c in constraints)
        genomes.append(genome)
    q_means = np.array([
        np.mean([constraint_violation(g, c)[0] for g in genomes])
        for c in constraints])
    return np.array(genomes), q_means, resampled, exhausted


@st.composite
def sampling_cases(draw):
    """A distribution, lambda and constraints whose intervals range from
    wide to tight around the mean's sum to far beyond any draw, so that
    draws are kept at once, redrawn, or kept at the cap."""
    n = draw(st.integers(1, 12))
    lam = draw(st.integers(2, 60))
    setup = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mean = setup.uniform(-10.0, 10.0, n) * draw(
        st.sampled_from([1e-3, 1.0, 10.0]))
    mean[setup.random(n) < 0.1] = -0.0
    factor = setup.standard_normal((n, n))
    covariance = factor @ factor.T + 0.1 * np.eye(n)
    sigma = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    dist = SearchDistribution(mean=mean, step_size=sigma,
                              covariance=covariance, path_sigma=np.zeros(n),
                              path_c=np.zeros(n))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        indices = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=20))
        ones = np.zeros(n)
        np.add.at(ones, indices, 1.0)
        spread = sigma * math.sqrt(ones @ covariance @ ones)
        centre = float(mean[indices].sum()) + spread * draw(
            st.sampled_from([0.0, 1.0, -3.0, 1e4]))
        width = spread * draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
        constraints.append(SumConstraint(indices=tuple(indices),
                                         lower=centre - width,
                                         upper=centre + width))
    return dist, lam, constraints


class TestBlockSampler:
    @settings(max_examples=200, deadline=None)
    @given(case=sampling_cases(), fraction=st.floats(0.01, 0.99),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_draw_sampling_bit_for_bit(self, case, fraction,
                                                   seed):
        dist, lam, constraints = case
        transform = sampling_transform(dist)
        rng, reference_rng = (np.random.default_rng(seed),
                              np.random.default_rng(seed))
        genomes, sums, resamples, exhausted = sample_with_rejection(
            lambda m: sample_individual(dist, transform, rng, m), lam,
            constraints, fraction)
        q_means = np.array([np.mean(q) for q in sums])
        expected = per_draw_generation(dist, transform, reference_rng, lam,
                                       constraints, fraction)
        assert genomes.tobytes() == expected[0].tobytes()
        assert q_means.tobytes() == expected[1].tobytes()
        assert (resamples, exhausted) == expected[2:]
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert sums.shape == (len(constraints), lam)
        assert all(row.flags.c_contiguous for row in sums)

    def test_long_sums_keep_the_pairwise_order(self):
        """Nine terms whose pairwise sum differs from the left-to-right
        one: the block's sums must be those of one genome's sum."""
        tiny = 2.0 ** -53
        values = np.array([1.0] + [tiny] * 8)
        assert values.sum() != 1.0   # left to right, every tiny is lost
        c = SumConstraint(indices=tuple(range(9)), lower=-1e20, upper=1e20)
        block = np.tile(values, (3, 1))
        _, sums, _, _ = sample_with_rejection(lambda m: block[:m], 3, [c], 0.2)
        assert sums.tobytes() == np.full((1, 3), values.sum()).tobytes()


class TestGammaInitialization:
    def test_feasible_mean_keeps_gammas_zero(self):
        c = SumConstraint(indices=(0, 1), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=2, lam=4)
        state.record_generation(np.array([1.0, 2.0, 3.0, 4.0]))
        dist = make_dist(2, generation=3)   # mean zero -> feasible
        maybe_set_gammas(state, dist, [c])
        assert not state.gammas_initialized
        assert np.all(state.gammas == 0.0)

    def test_formula_arithmetic(self):
        # delta_fit = 10, sigma = 2, mean diag C = 1 -> gamma = 2*10/4 = 5
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=3, lam=4)
        state.fitness_history.append(10.0)
        dist = make_dist(3, sigma=2.0, generation=2)
        dist.mean = np.array([5.0, 0.0, 0.0])   # q=5 unfeasible
        maybe_set_gammas(state, dist, [c])
        assert state.gammas_initialized
        assert state.gammas[0] == pytest.approx(5.0, rel=1e-14)

    def test_first_generation_never_initializes(self):
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=2, lam=4)
        state.fitness_history.append(1.0)
        dist = make_dist(2, generation=0)
        dist.mean = np.array([5.0, 0.0])
        maybe_set_gammas(state, dist, [c])
        assert not state.gammas_initialized

    def test_one_time_initialization(self):
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=2, lam=4)
        state.fitness_history.append(4.0)
        dist = make_dist(2, generation=2)
        dist.mean = np.array([5.0, 0.0])
        maybe_set_gammas(state, dist, [c])
        first = state.gammas.copy()
        state.fitness_history.append(400.0)
        maybe_set_gammas(state, dist, [c])
        assert np.array_equal(state.gammas, first)

    def test_median_of_stored_iqrs_with_independent_oracle(self):
        # store raw per-generation objective batches, recompute IQRs and
        # the median without numpy's percentile machinery
        state = PenaltyState(n_constraints=2, dim=12, lam=4)
        assert state.history_capacity == math.ceil((20 + 3 * 12) / 4)
        rng = np.random.default_rng(0)
        batches = [rng.uniform(0, s, 21) for s in (1.0, 3.0, 100.0)]

        def quantile_linear(sorted_values, fraction):
            pos = fraction * (len(sorted_values) - 1)
            lo = int(math.floor(pos))
            hi = int(math.ceil(pos))
            return sorted_values[lo] + (pos - lo) * (sorted_values[hi]
                                                     - sorted_values[lo])

        iqrs = []
        for batch in batches:
            state.record_generation(batch)
            ordered = sorted(batch.tolist())
            iqrs.append(quantile_linear(ordered, 0.75)
                        - quantile_linear(ordered, 0.25))
        expected_median = sorted(iqrs)[1]
        assert state.median_iqr() == pytest.approx(expected_median, rel=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(allow_nan=True, allow_infinity=True)),
        min_size=1, max_size=80))
    def test_iqr_matches_numpy_percentile(self, values):
        state = PenaltyState(n_constraints=1, dim=2, lam=4)
        state.record_generation(values)
        finite = np.array(values)[np.isfinite(values)]
        if finite.size == 0:
            assert not state.fitness_history
            return
        with np.errstate(over="ignore", invalid="ignore"):
            q75, q25 = np.percentile(finite, [75, 25])
            expected = float(q75 - q25)
        got = state.fitness_history[-1]
        assert type(got) is float
        if expected == 0.0:
            # Equal values with opposite zero signs: np.partition puts them
            # in an order of its own, so numpy itself may answer -0.0 or
            # 0.0. A zero spread never sets a gamma, so its sign is unseen.
            assert got == 0.0
        else:
            assert bits([got]) == bits([expected])

    def test_zero_spread_does_not_freeze_gammas(self):
        # A plateau generation stores spread 0: gamma would be set to 0,
        # and growing it only ever multiplies 0. It stays uninitialized
        # until the median spread is positive.
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=2, lam=4)
        state.record_generation([5.0, 5.0, 5.0, 5.0])
        assert list(state.fitness_history) == [0.0]
        dist = make_dist(2, generation=1)
        dist.mean = np.array([5.0, 0.0])   # q=5 unfeasible
        maybe_set_gammas(state, dist, [c])
        assert not state.gammas_initialized
        assert np.all(state.gammas == 0.0)
        for _ in range(2):
            state.record_generation([1.0, 2.0, 3.0, 4.0])
        dist.generation = 3
        maybe_set_gammas(state, dist, [c])
        assert state.gammas_initialized
        assert state.gammas[0] == pytest.approx(2.0 * 1.5, rel=1e-14)

    def test_history_ring_buffer_capacity(self):
        state = PenaltyState(n_constraints=1, dim=5, lam=20)
        cap = math.ceil((20 + 15) / 20)
        assert state.history_capacity == cap
        for i in range(10):
            state.record_generation(np.arange(4.0) * (i + 1))
        assert len(state.fitness_history) == cap


class TestGammaIncrease:
    def test_in_bounds_mean_unchanged(self):
        c = SumConstraint(indices=(0, 1), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=4, lam=4)
        state.gammas[:] = 2.0
        state.gammas_initialized = True
        params = make_params(4, 2, [0.5, 0.5])
        maybe_increase_gammas(state, make_dist(4), [c], params,
                              np.array([0.0]))
        assert state.gammas[0] == 2.0

    def test_hand_evaluated_threshold_and_factor(self):
        # C = I, sigma = 1, card(P)=2, n=4, mu_eff=2:
        # threshold = 1 * sqrt(1) * max(1, sqrt(4)/2) = 1
        # mu_eff/(10n) = 0.05 <= 1 -> multiplier exactly 1.1
        c = SumConstraint(indices=(0, 1), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=4, lam=4)
        state.gammas[:] = 3.0
        state.gammas_initialized = True
        params = make_params(4, 2, [0.5, 0.5])
        assert params.mu_eff == pytest.approx(2.0)

        dist = make_dist(4)
        maybe_increase_gammas(state, dist, [c], params, np.array([2.5]))
        assert state.gammas[0] == pytest.approx(3.0 * 1.1, rel=1e-14)
        # out of bounds by less than the threshold: no change
        state.gammas[:] = 3.0
        maybe_increase_gammas(state, dist, [c], params, np.array([1.5]))
        assert state.gammas[0] == 3.0

    def test_large_mu_eff_exponent_branch(self):
        # mu_eff/(10n) > 1 raises the growth factor above 1.1
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=1, lam=64)
        state.gammas[:] = 1.0
        state.gammas_initialized = True
        weights = np.full(32, 1.0 / 32)
        params = make_params(64, 32, weights)
        assert params.mu_eff / 10.0 > 1.0
        maybe_increase_gammas(state, make_dist(1), [c], params,
                              np.array([100.0]))
        assert state.gammas[0] == pytest.approx(1.1 ** (params.mu_eff / 10.0),
                                                rel=1e-12)

    def test_only_triggered_constraints_grow(self):
        c1 = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        c2 = SumConstraint(indices=(1,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=2, dim=2, lam=4)
        state.gammas[:] = 1.0
        state.gammas_initialized = True
        params = make_params(4, 2, [0.5, 0.5])
        maybe_increase_gammas(state, make_dist(2), [c1, c2], params,
                              np.array([50.0, 0.0]))
        assert state.gammas[0] > 1.0
        assert state.gammas[1] == 1.0

    def test_requires_initialization(self):
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=1, lam=4)
        params = make_params(4, 2, [0.5, 0.5])
        maybe_increase_gammas(state, make_dist(1), [c], params,
                              np.array([50.0]))
        assert np.all(state.gammas == 0.0)


def eq8_oracle(x, raw, gammas, constraints, C):
    """Term-by-term duplicate implementation of the penalized objective."""
    n = C.shape[0]
    m = len(constraints)
    total = 0.0
    for j, c in enumerate(constraints):
        q = sum(x[p] for p in c.indices)
        q_feas = min(max(q, c.lower), c.upper)
        card = len(c.indices)
        mean_log_subset = sum(math.log(C[p, p]) for p in c.indices) / card
        mean_log_all = sum(math.log(C[i, i]) for i in range(n)) / n
        xi = math.exp(0.9 * (mean_log_subset - mean_log_all))
        total += gammas[j] * (q_feas - q) ** 2 / xi
    return raw + total / m


def penalize(constraints, gammas, xis, x, raw):
    """The ranking value of genome x as the run loop forms it: the penalty
    amount from x's constraint sums, then `penalized`."""
    sums = [constraint_violation(x, c)[0] for c in constraints]
    return penalized(raw, penalty_amount(sums, list(gammas), constraints,
                                         list(xis)))


def genome_penalty_amount(x, gammas, constraints, xis):
    """penalty_amount as it read every constraint sum from the genome, kept
    verbatim (with `constraint_violation` in place of the private helper it
    called) as the reference the sums-based form must match bit for bit."""
    total = 0.0
    for j, constraint in enumerate(constraints):
        distance = constraint_violation(x, constraint)[2]
        if distance > 0.0:
            total += gammas[j] * distance * distance / xis[j]
    return total / len(constraints) if total else 0.0


@st.composite
def penalty_cases(draw):
    """A genome (NaN and +-inf coordinates included), constraints on it,
    some with a bound placed exactly on the genome's sum, and positive
    gammas and xis over many magnitudes."""
    x, constraints = draw(constrained_genomes())
    placed = []
    for c in constraints:
        q = constraint_violation(x, c)[0]
        side = draw(st.sampled_from(["keep", "lower", "upper"]))
        if side != "keep" and math.isfinite(q):
            width = draw(st.sampled_from([1e-9, 1.0, 1e6]))
            lower, upper = ((q, q + width) if side == "lower"
                            else (q - width, q))
            if lower < upper:
                c = SumConstraint(indices=c.indices, lower=lower, upper=upper)
        placed.append(c)
    magnitude = st.floats(1e-300, 1e300)
    gammas = np.array([draw(st.one_of(st.just(0.0), magnitude))
                       for _ in placed])
    xis = np.array([draw(magnitude) for _ in placed])
    return x, placed, gammas, xis


class TestPenalize:
    def test_feasible_returns_raw_exactly(self):
        c = SumConstraint(indices=(0, 1), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=2, lam=4)
        state.gammas[:] = 123.0
        raw = 0.7071067811865476
        out = penalize([c], state.gammas, xi_factors(make_dist(2), [c]),
                       np.array([0.2, 0.3]), raw)
        assert out == raw

    def test_identity_covariance_arithmetic(self):
        # xi = exp(0.9*(0-0)) = 1; gamma=5, distance=2 -> raw + 5*4/1
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=3, lam=4)
        state.gammas[:] = 5.0
        out = penalize([c], state.gammas, xi_factors(make_dist(3), [c]),
                       np.array([3.0, 0.0, 0.0]), 1.5)
        assert out == pytest.approx(1.5 + 20.0, rel=1e-14)

    def test_matches_eq8_oracle_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            constraints = []
            for _ in range(m):
                size = int(rng.integers(1, n + 1))
                indices = tuple(rng.choice(n, size=size, replace=False))
                lo = float(rng.uniform(-2, 0))
                constraints.append(SumConstraint(indices=indices, lower=lo,
                                                 upper=lo + rng.uniform(0.5, 2)))
            C = np.diag(rng.uniform(0.1, 10.0, n))
            dist = make_dist(n, covariance=C)
            state = PenaltyState(n_constraints=m, dim=n, lam=8)
            state.gammas[:] = rng.uniform(0, 50, m)
            x = rng.uniform(-4, 4, n)
            raw = float(rng.standard_normal())
            expected = eq8_oracle(x, raw, state.gammas, constraints, C)
            got = penalize(constraints, state.gammas,
                           xi_factors(dist, constraints), x, raw)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_nonfinite_raw_propagates(self):
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=1, lam=4)
        xis = xi_factors(make_dist(1), [c])
        assert math.isnan(penalize([c], state.gammas, xis, np.array([5.0]),
                                   float("nan")))
        assert penalize([c], state.gammas, xis, np.array([5.0]),
                        float("inf")) == float("inf")

    def test_unconstrained_returns_raw_exactly(self):
        # no constraints: every amount is 0 and raw passes unchanged
        assert penalty_amount([], [], [], []) == 0.0
        assert penalized(2.5, 0.0) == 2.5

    def test_penalty_positive_outside_and_monotone_in_distance(self):
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        state = PenaltyState(n_constraints=1, dim=1, lam=4)
        state.gammas[:] = 2.0
        xis = xi_factors(make_dist(1), [c])
        previous = 0.0
        for q in np.linspace(1.01, 6.0, 25):
            penalty = penalize([c], state.gammas, xis, np.array([q]), 0.0)
            assert penalty > previous
            previous = penalty

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 3), (1, 3, 1, 2)])
    def test_penalty_amount_equals_per_constraint_violation_sum(self, sizes):
        # single-coordinate constraints read the coordinate directly, the
        # others take the indexed sum; both must give the oracle's float
        # exactly
        rng = np.random.default_rng(sum(sizes))
        n = 6
        constraints = [SumConstraint(
            indices=tuple(rng.choice(n, size=size, replace=False)),
            lower=-0.5 * size, upper=0.5 * size) for size in sizes]
        gammas = rng.uniform(0.1, 50.0, len(sizes))
        xis = rng.uniform(0.2, 5.0, len(sizes))
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, n)
            violations = [constraint_violation(x, c) for c in constraints]
            terms = [gammas[j] * d * d / xis[j]
                     for j, (_, _, d) in enumerate(violations)]
            sums = [q for q, _, _ in violations]
            assert penalty_amount(sums, gammas.tolist(), constraints,
                                  xis.tolist()) == \
                sum(terms) / len(constraints)

    @settings(max_examples=300, deadline=None)
    @given(case=penalty_cases())
    def test_sums_based_amount_matches_the_genome_based_form(self, case):
        # The sums come from the sampler, as in the run loop; the same
        # genome is offered on every redraw, so it is always the one kept.
        x, constraints, gammas, xis = case
        _, sums, _, _ = sample_with_rejection(
            lambda m: np.tile(x, (m, 1)), 1, constraints, 0.5)
        got = penalty_amount(sums.T.tolist()[0], gammas.tolist(),
                             constraints, xis.tolist())
        assert type(got) is float
        with np.errstate(over="ignore", invalid="ignore"):
            expected = genome_penalty_amount(x, gammas, constraints, xis)
        assert bits([got]) == bits([expected])

    def test_nan_sum_adds_nothing(self):
        c = SumConstraint(indices=(0,), lower=-1.0, upper=1.0)
        assert penalty_amount([math.nan], [3.0], [c], [1.0]) == 0.0
        assert penalty_amount([math.inf], [3.0], [c], [1.0]) == math.inf
        assert math.isnan(penalized(1.0, math.nan))

    def test_mean_feasibility_helper(self):
        c = SumConstraint(indices=(0, 1), lower=-1.0, upper=1.0)
        assert is_feasible(np.array([0.2, 0.3]), [c])
        assert not is_feasible(np.array([2.0, 3.0]), [c])
