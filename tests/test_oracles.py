"""Oracles: the method's equations, transcribed independently of `src/`.

The bit tests compare the library with its own earlier forms. These
compare it with the published method, to a tolerance, from the same
state.

One CMA-ES generation follows Hansen's tutorial "The CMA Evolution
Strategy: A Tutorial" (arXiv:1604.00772): recombination with c_m = 1,
cumulative step-size adaptation, and the rank-one plus rank-mu covariance
update with its h_sigma stall, over the mu positive weights only (no
active update). The strategy constants are the tutorial's formulas with
alpha_cov = 2. The weights are pinned to the library's ln(mu + 1) - ln i:
the tutorial's current default is ln((lambda + 1) / 2) - ln i (the same
at odd lambda), and which of them the paper's CMA-ES used is not known
from its abstract.

lmm-CMA's approximate ranking (Kern, Hansen & Koumoutsakos, PPSN IX,
2006) is transcribed with one candidate evaluated per cycle: every cycle
rescans the archive and refits every unevaluated candidate, with no
cache and no held neighbour sets. A local model is the kernel-weighted
least-squares full quadratic on the k nearest archive entries under the
Mahalanobis distance of C, with bandwidth the k-th distance.
"""

import math

import numpy as np

import wellopt.harness as harness
from wellopt.cma import (SearchDistribution, default_strategy_params,
                         update_mean, update_strategy_state)
from wellopt.metamodel import (TrainingArchive, approximate_ranking_step,
                               default_surrogate_settings)

RTOL = 1e-12


def library_weights(lam: int) -> np.ndarray:
    """w_i proportional to ln(mu + 1) - ln i, i = 1..mu, summing to 1."""
    mu = lam // 2
    raw = np.array([math.log(mu + 1) - math.log(i) for i in range(1, mu + 1)])
    return raw / raw.sum()


def tutorial_constants(n: int, weights: np.ndarray) -> dict:
    mu_eff = weights.sum() ** 2 / (weights ** 2).sum()
    alpha_cov = 2.0
    c_1 = alpha_cov / ((n + 1.3) ** 2 + mu_eff)
    return {
        "mu_eff": mu_eff,
        "c_sigma": (mu_eff + 2) / (n + mu_eff + 5),
        "d_sigma": (1 + 2 * max(0.0, math.sqrt((mu_eff - 1) / (n + 1)) - 1)
                    + (mu_eff + 2) / (n + mu_eff + 5)),
        "c_c": (4 + mu_eff / n) / (n + 4 + 2 * mu_eff / n),
        "c_1": c_1,
        "c_mu": min(1 - c_1, alpha_cov * (mu_eff - 2 + 1 / mu_eff)
                    / ((n + 2) ** 2 + alpha_cov * mu_eff / 2)),
        # E||N(0, I)||
        "chi_n": math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n ** 2)),
    }


def tutorial_generation(m, sigma, C, p_sigma, p_c, g, X, order):
    """(m, sigma, C, p_sigma, p_c, h_sigma) after generation g, whose
    candidates are the rows of X, ranked best first by `order`."""
    lam, n = X.shape
    mu = lam // 2
    w = library_weights(lam)
    k = tutorial_constants(n, w)
    c_sigma, c_c, c_1, c_mu = k["c_sigma"], k["c_c"], k["c_1"], k["c_mu"]

    y = (X[order[:mu]] - m) / sigma        # y_{i:lambda}
    y_w = sum(w_i * y_i for w_i, y_i in zip(w, y))
    m_new = m + 1.0 * sigma * y_w          # c_m = 1

    D2, B = np.linalg.eigh(C)              # C = B D^2 B^T
    C_inv_sqrt = B @ np.diag(1 / np.sqrt(D2)) @ B.T
    p_sigma = ((1 - c_sigma) * p_sigma
               + math.sqrt(c_sigma * (2 - c_sigma) * k["mu_eff"])
               * (C_inv_sqrt @ y_w))
    norm = float(np.linalg.norm(p_sigma))
    sigma_new = sigma * math.exp(c_sigma / k["d_sigma"]
                                 * (norm / k["chi_n"] - 1))

    h_sigma = float(norm / math.sqrt(1 - (1 - c_sigma) ** (2 * (g + 1)))
                    < (1.4 + 2 / (n + 1)) * k["chi_n"])
    p_c = ((1 - c_c) * p_c
           + h_sigma * math.sqrt(c_c * (2 - c_c) * k["mu_eff"]) * y_w)
    delta = (1 - h_sigma) * c_c * (2 - c_c)
    C_new = ((1 + c_1 * delta - c_1 - c_mu * w.sum()) * C
             + c_1 * np.outer(p_c, p_c)
             + c_mu * sum(w_i * np.outer(y_i, y_i) for w_i, y_i in zip(w, y)))
    return m_new, sigma_new, C_new, p_sigma, p_c, h_sigma


def random_state(seed: int):
    """A well-conditioned state (eigenvalues of C in [1/4, 4]) and one
    generation of candidates drawn from it, ranked at random."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 18
    lam = int(rng.integers(4, 50))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    C = (Q * 4.0 ** rng.uniform(-1, 1, n)) @ Q.T
    C = 0.5 * (C + C.T)
    m = rng.standard_normal(n)
    sigma = 10.0 ** rng.uniform(-1, 1)
    # path lengths on both sides of the h_sigma threshold
    p_sigma = rng.standard_normal(n) * 10.0 ** rng.uniform(-0.5, 0.7)
    p_c = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 0.5)
    g = int(rng.integers(0, 40))
    X = m + sigma * rng.standard_normal((lam, n)) @ np.linalg.cholesky(C).T
    order = rng.permutation(lam).tolist()
    return m, sigma, C, p_sigma, p_c, g, X, order


def relative(got, want) -> float:
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(np.asarray(got) - want)
                 / np.linalg.norm(want))


def test_weights_are_the_librarys_not_the_tutorials_current_default():
    for lam in range(4, 50):
        mu = lam // 2
        weights = default_strategy_params(3, lam, 1).weights
        assert relative(weights, library_weights(lam)) <= 1e-15
        # the two coincide where (lambda + 1) / 2 = mu + 1, at odd lambda
        current = np.log((lam + 1) / 2) - np.log(np.arange(1, mu + 1))
        differs = relative(weights, current / current.sum()) > 1e-3
        assert differs == (lam % 2 == 0), lam


def test_strategy_constants_follow_the_tutorial():
    for n in range(2, 20):
        for lam in range(4, 50):
            params = default_strategy_params(n, lam, 1)
            for name, value in tutorial_constants(
                    n, library_weights(lam)).items():
                assert math.isclose(getattr(params, name), value,
                                    rel_tol=1e-14), (n, lam, name)


def test_one_generation_matches_the_tutorial():
    h_sigmas = set()
    for seed in range(240):
        m, sigma, C, p_sigma, p_c, g, X, order = random_state(seed)
        n, lam = len(m), len(X)
        want = tutorial_generation(m, sigma, C, p_sigma, p_c, g, X, order)
        h_sigmas.add(want[-1])

        params = default_strategy_params(n, lam, 10 ** 6)
        dist = SearchDistribution(mean=m.copy(), step_size=sigma,
                                  covariance=C.copy(),
                                  path_sigma=p_sigma.copy(),
                                  path_c=p_c.copy(), generation=g)
        dist.mean = update_mean(params, X, order)
        new = update_strategy_state(dist, params, X, order, m)

        got = (new.mean, new.step_size, new.covariance, new.path_sigma,
               new.path_c)
        for name, a, b in zip(("mean", "sigma", "C", "p_sigma", "p_c"),
                              got, want):
            assert relative(a, b) <= RTOL, (seed, n, lam, name)
        assert new.generation == g + 1
    # the stall of the rank-one update is exercised both ways
    assert h_sigmas == {0.0, 1.0}


def local_quadratic_prediction(points, values, C, k, q):
    """The lmm-CMA local model's value at q: a full quadratic in z - q,
    fitted by least squares weighted (1 - (d/h)^2)^2 on the k nearest
    points, d the Mahalanobis distance under C and h the k-th distance."""
    offsets = points - q
    d = np.sqrt(np.einsum("ij,ij->i", offsets @ np.linalg.inv(C), offsets))
    nearest = np.argsort(d, kind="stable")[:k]
    u, h = offsets[nearest], d[nearest][-1]
    n = len(q)
    design = np.column_stack(
        [u[:, i] * u[:, j] for i in range(n) for j in range(i, n)]
        + [u[:, i] for i in range(n)] + [np.ones(k)])
    root_w = 1.0 - (d[nearest] / h) ** 2
    beta = np.linalg.lstsq(design * root_w[:, None],
                           values[nearest] * root_w, rcond=None)[0]
    return float(beta[-1])


def lmm_ranking(genomes, points, values, C, mu, k, fn):
    """(ranking, n_ic, raw, evaluated): each cycle predicts every
    unevaluated candidate, ranks all of them, and evaluates the best
    unevaluated one until the ranking settles. Cycles 0 and 1 always
    evaluate; later, while fewer than lam/4 candidates would be
    evaluated, a change of the mu best set or of the best goes on, and
    after that only a change of the best."""
    lam = len(genomes)
    points, values = list(points), list(values)
    raw, evaluated = [0.0] * lam, [False] * lam

    def rank():
        for i in range(lam):
            if not evaluated[i]:
                raw[i] = local_quadratic_prediction(
                    np.array(points), np.array(values), C, k, genomes[i])
        return sorted(range(lam), key=lambda i: (raw[i], i))

    n_ic, previous = 0, None
    for cycle in range(lam):
        order = rank()
        current = (set(order[:mu]), order[0])
        if cycle >= 2:
            set_changed = current[0] != previous[0]
            best_changed = current[1] != previous[1]
            if not (best_changed or set_changed and cycle + 1 < lam / 4):
                break
        i = next(i for i in order if not evaluated[i])
        raw[i], evaluated[i] = fn(genomes[i]), True
        points.append(genomes[i])
        values.append(raw[i])
        n_ic, previous = cycle, current
    return sorted(range(lam), key=lambda i: (raw[i], i)), n_ic, raw, evaluated


def test_approximate_ranking_matches_lmm_cma():
    n_ics = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 2
        lam = (8, 12, 16, 24)[seed % 4]
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        C = (Q * 4.0 ** rng.uniform(-1, 1, n)) @ Q.T
        C = 0.5 * (C + C.T)
        A = rng.standard_normal((n, n))
        shift = rng.uniform(-0.5, 0.5, n)

        def fn(z):
            # a quadratic bowl under ripples that the local models miss
            v = z - shift
            return float(v @ (A @ A.T + np.eye(n)) @ v
                         + 2.0 * np.sin(5.0 * z).sum())

        settings = default_surrogate_settings(n)
        points = rng.uniform(-2.0, 2.0, (settings.min_archive_size + 6, n))
        archive = TrainingArchive(n)
        for point in points:
            archive.add(point.tobytes(), fn(point))
        genomes = rng.uniform(-1.5, 1.5, (lam, n))
        params = default_strategy_params(n, lam, 100)
        assert params.mu == lam // 2

        want = lmm_ranking(genomes, points, [fn(p) for p in points], C,
                           params.mu, settings.k, fn)
        dist = SearchDistribution(mean=np.zeros(n), step_size=1.0,
                                  covariance=C.copy(),
                                  path_sigma=np.zeros(n), path_c=np.zeros(n))
        order, n_ic, raw, values, evaluated = approximate_ranking_step(
            genomes, archive, dist, params, settings,
            harness.Evaluator(fn, archive), [0.0] * lam)
        assert (order, n_ic, evaluated) == (want[0], want[1], want[3]), seed
        assert values == raw
        for got, expected, true in zip(raw, want[2], evaluated):
            if true:
                assert got == expected
            else:
                assert math.isclose(got, expected, rel_tol=RTOL), seed
        n_ics.add(n_ic)
    # the seeds settle after different numbers of cycles
    assert len(n_ics) >= 3
