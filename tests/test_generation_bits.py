"""A CMA-ES generation's bookkeeping keeps the bits of the numpy forms it
replaced.

The strategy update and the penalty path read the covariance through
ndarray methods (`.diagonal()`, `.sum()`) and do their scalar arithmetic
on Python floats (`math.sqrt`), where they used `np.diag`, `np.mean`,
`np.trace`, `np.any`, `np.linalg.norm` and numpy scalars. Each value must
come out with the same bits. The functions below are the earlier forms,
kept verbatim as the reference.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wellopt.cma import (CONDITION_CAP, EIGENVALUE_FLOOR, STAGNATION_RTOL,
                         STAGNATION_WINDOW, SearchDistribution, _floored_eigh,
                         check_termination, default_strategy_params,
                         sample_individual, sampling_transform,
                         update_strategy_state)
from wellopt.constraints import (PenaltyState, SumConstraint,
                                 increase_trigger_threshold, maybe_set_gammas,
                                 row_means, xi_factors)


def numpy_floored_eigh(C):
    C = 0.5 * (C + C.T)
    values, vectors = np.linalg.eigh(C)
    floor = EIGENVALUE_FLOOR * max(np.trace(C), np.finfo(float).tiny) / C.shape[0]
    repaired = bool(np.any(values < floor))
    if repaired:
        values = np.maximum(values, floor)
    return values, vectors, repaired


def numpy_default_strategy_params(n, lam):
    """The constants as numpy scalars, as `default_strategy_params` made
    them: returns (mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n)."""
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
    return mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n


SCALARS = ("mu_eff", "c_sigma", "d_sigma", "c_c", "c_1", "c_mu", "chi_n")


def numpy_update_strategy_state(dist, params, genomes, order, old_mean):
    n = dist.dim
    sigma = dist.step_size
    values, vectors, _ = numpy_floored_eigh(dist.covariance)
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

    steps = (genomes[order[:params.mu]] - old_mean) / sigma
    rank_mu = (steps.T * params.weights) @ steps
    rank_one = np.outer(p_c, p_c)
    old_factor = (1 - params.c_1 - params.c_mu
                  + (1 - h_sigma) * params.c_1 * params.c_c * (2 - params.c_c))
    C = old_factor * dist.covariance + params.c_1 * rank_one + params.c_mu * rank_mu

    values, vectors, repaired = numpy_floored_eigh(C)
    C = (vectors * values) @ vectors.T
    C = 0.5 * (C + C.T)

    sigma_new = sigma * np.exp((params.c_sigma / params.d_sigma)
                               * (norm_p / params.chi_n - 1))
    return sigma_new, C, p_sigma, p_c, repaired


def numpy_check_termination(dist, params, best_history, stationary):
    if dist.generation >= params.max_generations:
        return "max_generations"
    values, _, _ = numpy_floored_eigh(dist.covariance)
    smallest = max(values[0], np.finfo(float).tiny)
    if values[-1] / smallest > CONDITION_CAP:
        return "ill-conditioned"
    if stationary and len(best_history) > STAGNATION_WINDOW:
        old = best_history[-STAGNATION_WINDOW - 1]
        new = best_history[-1]
        scale = max(abs(old), abs(new), np.finfo(float).tiny)
        if (old - new) < STAGNATION_RTOL * scale:
            return "stagnation"
    return ""


def numpy_gamma_value(dist, delta_fit):
    mean_diag = float(np.mean(np.diag(dist.covariance)))
    return 2.0 * delta_fit / (dist.step_size ** 2 * mean_diag)


def numpy_increase_trigger_threshold(dist, mu_eff, constraint):
    n = dist.dim
    diag = np.diag(dist.covariance)
    spread = math.sqrt(float(np.mean(diag[list(constraint.indices)])))
    return dist.step_size * spread * max(1.0, math.sqrt(n) / mu_eff)


def numpy_xi_factors(dist, constraints):
    log_diag = np.log(np.diag(dist.covariance))
    overall = float(np.mean(log_diag))
    return np.array([
        math.exp(0.9 * (float(np.mean(log_diag[c.index_array])) - overall))
        for c in constraints])


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def generations(draw):
    """A distribution over a random covariance (exactly singular in some
    examples, so the eigenvalue floor engages), a ranked population,
    constraint subsets and the constraint-sum rows of a generation."""
    n = draw(st.integers(1, 12))
    lam = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    A = scale * rng.standard_normal((n, n))
    singular = n > 1 and draw(st.booleans())
    if singular:
        A[-1] = 0.0   # a zero row and column of C: eigenvalue 0
        covariance = A @ A.T
    else:
        covariance = A @ A.T + 0.1 * scale ** 2 * np.eye(n)
    dist = SearchDistribution(
        mean=rng.uniform(-5, 5, n),
        step_size=float(rng.uniform(1e-3, 10.0)), covariance=covariance,
        path_sigma=rng.standard_normal(n), path_c=rng.standard_normal(n),
        generation=draw(st.integers(0, 200)))
    subsets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                            min_size=1, max_size=4))
    constraints = [SumConstraint(tuple(sorted(s)), -1.0, 1.0)
                   for s in subsets]
    genomes = sample_individual(dist, sampling_transform(dist), rng, lam)
    order = draw(st.permutations(range(lam)))
    scales = 10.0 ** rng.integers(-3, 4, (len(constraints), 1))
    sums = scales * rng.standard_normal((len(constraints), lam))
    history = rng.standard_normal(draw(st.integers(0, 40))).tolist()
    if draw(st.booleans()):
        history = history[:1] * len(history)   # a stagnating run
    return dist, singular, constraints, genomes, order, sums, history


@settings(max_examples=200, deadline=None)
@given(generations())
def test_generation_keeps_the_bits_of_the_numpy_forms(generation):
    dist, singular, constraints, genomes, order, sums, history = generation
    n, lam = dist.dim, len(genomes)
    C = dist.covariance

    got, want = _floored_eigh(C), numpy_floored_eigh(C)
    assert got[2] is want[2]
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1]) == bits(want[1])
    if singular:
        assert got[2]

    params = default_strategy_params(n, lam, max_generations=150)
    numpy_scalars = numpy_default_strategy_params(n, lam)
    for name, value in zip(SCALARS, numpy_scalars):
        assert type(getattr(params, name)) is float, name
        assert bits(getattr(params, name)) == bits(value), name
    numpy_params = type(params)(**{**vars(params),
                                   **dict(zip(SCALARS, numpy_scalars))})

    for stationary in (True, False):
        assert (check_termination(dist, params, history, stationary)
                == numpy_check_termination(dist, numpy_params, history,
                                           stationary))

    assert bits(row_means(sums)) == bits([np.mean(row) for row in sums])

    # The penalty path reads C after the update's eigenvalue floor, so
    # every diagonal entry is positive.
    values, vectors, _ = _floored_eigh(C)
    floored = SearchDistribution(
        mean=dist.mean, step_size=dist.step_size,
        covariance=(vectors * values) @ vectors.T,
        path_sigma=dist.path_sigma, path_c=dist.path_c,
        generation=dist.generation + 1)
    assert bits(xi_factors(floored, constraints)) == bits(
        numpy_xi_factors(floored, constraints))
    for c in constraints:
        assert bits(increase_trigger_threshold(floored, params, c)) == bits(
            numpy_increase_trigger_threshold(floored, numpy_params.mu_eff, c))

    state = PenaltyState(len(constraints), n, lam)
    state.fitness_history.extend(
        map(abs, history[:state.fitness_history.maxlen]))
    if state.fitness_history:
        # a mean whose first constraint sum is 2 lies outside (-1, 1)
        floored.mean = np.zeros(n)
        floored.mean[constraints[0].indices[0]] = 2.0
        maybe_set_gammas(state, floored, constraints)
        value = numpy_gamma_value(floored, state.median_iqr())
        if math.isfinite(value) and value > 0.0:
            assert bits(state.gammas) == bits([value] * len(constraints))
        else:
            assert state.gammas == (0.0,) * len(constraints)

    old_mean = dist.mean.copy()
    dist.mean = params.weights @ genomes[order[:params.mu]]
    got = update_strategy_state(dist, params, genomes, order, old_mean)
    sigma, covariance, path_sigma, path_c, repaired = (
        numpy_update_strategy_state(dist, numpy_params, genomes, order,
                                    old_mean))
    assert bits(got.step_size) == bits(sigma)
    assert bits(got.covariance) == bits(covariance)
    assert bits(got.path_sigma) == bits(path_sigma)
    assert bits(got.path_c) == bits(path_c)
    assert got.repairs == dist.repairs + repaired
