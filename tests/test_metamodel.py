import math

import numpy as np
import pytest

import wellopt.metamodel as mm
from wellopt.cma import Individual, SearchDistribution, default_strategy_params
from wellopt.metamodel import (LocalQuadraticModel, MahalanobisMetric,
                               SurrogateSettings, SurrogateUnavailable,
                               TrainingArchive, approximate_ranking_step,
                               basis_size, default_surrogate_settings,
                               fit_local_model, kernel, predict,
                               quadratic_basis, select_neighbors)


def make_dist(n, covariance=None):
    C = np.eye(n) if covariance is None else np.asarray(covariance, float)
    return SearchDistribution(mean=np.zeros(n), step_size=1.0, covariance=C,
                              path_sigma=np.zeros(n), path_c=np.zeros(n))


def mahalanobis(z, q, covariance):
    return MahalanobisMetric(covariance).distances_to(np.atleast_2d(z), q)[0]


def euclidean(n):
    return MahalanobisMetric(np.eye(n))


def fill_archive(archive, points, fn):
    for p in points:
        archive.add(p, fn(p))


def random_quadratic(n, rng):
    """Random full quadratic returning (callable, coefficient vector)."""
    p = basis_size(n)
    beta = rng.standard_normal(p)
    return (lambda z: float(beta @ quadratic_basis(z))), beta


class TestArchive:
    def test_duplicates_skipped(self):
        archive = TrainingArchive(2)
        assert archive.add(np.array([1.0, 2.0]), 3.0)
        assert not archive.add(np.array([1.0, 2.0]), 4.0)
        assert len(archive) == 1
        assert archive.lookup(np.array([1.0, 2.0])) == 3.0

    def test_nonfinite_rejected(self):
        archive = TrainingArchive(1)
        assert not archive.add(np.array([0.0]), float("nan"))
        assert not archive.add(np.array([0.0]), float("inf"))
        assert len(archive) == 0

    def test_nonfinite_values_are_remembered(self):
        # the archive is the evaluation memo: a non-finite value is looked
        # up like any other, but never becomes regression data
        archive = TrainingArchive(1)
        archive.add(np.array([0.0]), float("nan"))
        assert math.isnan(archive.lookup(np.array([0.0])))
        assert not archive.add(np.array([0.0]), 1.0)
        assert archive.lookup(np.array([1.0])) is None
        assert len(archive) == 0
        assert archive.as_arrays()[0].shape == (0, 1)

    def test_csv_round_trip(self, tmp_path):
        archive = TrainingArchive(3)
        rng = np.random.default_rng(0)
        fill_archive(archive, rng.standard_normal((10, 3)),
                     lambda p: float(p @ p))
        path = tmp_path / "archive.csv"
        archive.save_csv(path)
        loaded = TrainingArchive.load_csv(path)
        assert len(loaded) == len(archive)
        a, va = archive.as_arrays()
        b, vb = loaded.as_arrays()
        assert np.array_equal(a, b)
        assert np.array_equal(va, vb)


class TestSettings:
    def test_k_lower_bound_enforced(self):
        with pytest.raises(ValueError):
            SurrogateSettings(k=basis_size(5) - 1, min_archive_size=100).validate(5)
        with pytest.raises(ValueError):
            SurrogateSettings(k=30, min_archive_size=10).validate(5)

    def test_defaults_match_reference_case(self):
        settings = default_surrogate_settings(12)
        assert settings.k == 100
        assert settings.min_archive_size == 160
        settings.validate(12)


class TestMahalanobis:
    def test_identity_is_euclidean(self):
        d = mahalanobis(np.array([3.0, 4.0]), np.zeros(2), np.eye(2))
        assert d == pytest.approx(5.0, rel=1e-14)

    def test_zero_iff_same_point(self):
        z = np.array([1.0, -2.0, 0.5])
        assert mahalanobis(z, z, np.eye(3)) == 0.0

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            C = A.T @ A + 0.1 * np.eye(n)
            z, q = rng.standard_normal(n), rng.standard_normal(n)
            expected = math.sqrt((z - q) @ np.linalg.inv(C) @ (z - q))
            assert mahalanobis(z, q, C) == pytest.approx(
                expected, rel=1e-9)


class TestSelectNeighbors:
    def test_exact_k_returns_all(self):
        archive = TrainingArchive(2)
        rng = np.random.default_rng(2)
        points = rng.standard_normal((7, 2))
        fill_archive(archive, points, lambda p: float(p @ p))
        genomes, values, distances = select_neighbors(
            archive, np.zeros(2), euclidean(2), 7)
        assert genomes.shape == (7, 2)
        assert np.all(np.diff(distances) >= 0)

    def test_query_in_archive_is_first(self):
        archive = TrainingArchive(2)
        rng = np.random.default_rng(3)
        fill_archive(archive, rng.standard_normal((20, 2)),
                     lambda p: float(p @ p))
        target, _ = archive.as_arrays()
        q = target[13]
        genomes, _, distances = select_neighbors(archive, q, euclidean(2), 5)
        assert np.array_equal(genomes[0], q)
        assert distances[0] == 0.0

    def test_small_archive_signals_unavailable(self):
        archive = TrainingArchive(1)
        archive.add(np.array([0.0]), 1.0)
        with pytest.raises(SurrogateUnavailable):
            select_neighbors(archive, np.zeros(1), euclidean(1), 5)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(4)
        archive = TrainingArchive(3)
        points = rng.standard_normal((500, 3))
        fill_archive(archive, points, lambda p: float(p.sum()))
        A = rng.standard_normal((3, 3))
        C = A.T @ A + 0.2 * np.eye(3)
        q = rng.standard_normal(3)
        genomes, _, _ = select_neighbors(archive, q, MahalanobisMetric(C),
                                         50)
        inv = np.linalg.inv(C)
        scored = sorted(
            range(len(points)),
            key=lambda i: (float((points[i] - q) @ inv @ (points[i] - q)), i))
        expected = points[scored[:50]]
        assert {tuple(g) for g in genomes} == {tuple(e) for e in expected}

    def test_identity_covariance_equals_euclidean_knn(self):
        rng = np.random.default_rng(5)
        archive = TrainingArchive(4)
        points = rng.standard_normal((200, 4))
        fill_archive(archive, points, lambda p: 0.5)
        q = rng.standard_normal(4)
        genomes, _, _ = select_neighbors(archive, q, euclidean(4), 20)
        order = np.argsort(np.linalg.norm(points - q, axis=1), kind="stable")
        expected = points[order[:20]]
        assert np.array_equal(genomes, expected)


class TestKernelAndFit:
    def test_kernel_endpoints(self):
        assert kernel(0.0) == 1.0
        assert kernel(1.0) == 0.0

    @pytest.mark.parametrize("n", [2, 5])
    def test_exact_on_quadratics(self, n):
        rng = np.random.default_rng(6 + n)
        fn, _ = random_quadratic(n, rng)
        archive = TrainingArchive(n)
        fill_archive(archive, rng.uniform(-2, 2, (basis_size(n) + 5, n)), fn)
        q = rng.uniform(-1, 1, n)
        neighbors = select_neighbors(archive, q, euclidean(n), len(archive))
        model = fit_local_model(*neighbors, q)
        for z in rng.uniform(-1.5, 1.5, (100, n)):
            expected = fn(z)
            assert predict(model, z) == pytest.approx(
                expected, rel=1e-8, abs=1e-10)

    def test_constant_objective_gives_constant_model(self):
        rng = np.random.default_rng(9)
        n = 2
        archive = TrainingArchive(n)
        fill_archive(archive, rng.uniform(-1, 1, (12, n)), lambda p: 4.25)
        q = np.zeros(n)
        neighbors = select_neighbors(archive, q, euclidean(n), 12)
        model = fit_local_model(*neighbors, q)
        for z in rng.uniform(-1, 1, (20, n)):
            assert predict(model, z) == pytest.approx(4.25, rel=1e-6)

    def test_farthest_neighbor_has_zero_weight(self):
        # moving the k-th neighbor's objective must not change the fit
        rng = np.random.default_rng(10)
        n = 2
        points = rng.uniform(-1, 1, (11, n))
        q = np.zeros(n)
        distances = np.linalg.norm(points - q, axis=1)
        order = np.argsort(distances, kind="stable")
        points, distances = points[order], distances[order]
        values = points[:, 0] + 2 * points[:, 1]
        model_a = fit_local_model(points, values, distances, q)
        values_b = values.copy()
        values_b[-1] += 1e6
        model_b = fit_local_model(points, values_b, distances, q)
        assert np.allclose(model_a.beta, model_b.beta, rtol=1e-9, atol=1e-9)
        assert model_a.bandwidth == distances[-1]

    def test_translation_invariance_of_fit(self):
        rng = np.random.default_rng(11)
        n = 3
        points = rng.uniform(-1, 1, (basis_size(n) + 6, n))
        q = rng.uniform(-0.5, 0.5, n)
        distances = np.linalg.norm(points - q, axis=1)
        order = np.argsort(distances, kind="stable")
        points, distances = points[order], distances[order]
        values = np.array([math.sin(3 * p[0]) + p[1] * p[2] for p in points])
        shift = 123.456
        model_a = fit_local_model(points, values, distances, q)
        model_b = fit_local_model(points, values + shift, distances, q)
        assert model_b.beta[-1] - model_a.beta[-1] == pytest.approx(
            shift, rel=1e-9)
        assert np.allclose(model_a.beta[:-1], model_b.beta[:-1],
                           rtol=1e-7, atol=1e-7 * max(1.0, np.abs(
                               model_a.beta[:-1]).max()))

    def test_coincident_neighbors_unavailable(self):
        points = np.zeros((8, 2))
        values = np.ones(8)
        distances = np.zeros(8)
        with pytest.raises(SurrogateUnavailable):
            fit_local_model(points, values, distances, np.zeros(2))

    def test_prediction_at_centre_is_the_intercept(self):
        rng = np.random.default_rng(14)
        n = 4
        archive = TrainingArchive(n)
        fill_archive(archive, rng.uniform(-1, 1, (40, n)),
                     lambda p: float(np.sum(np.sin(3 * p))))
        q = rng.uniform(-0.5, 0.5, n)
        model = fit_local_model(
            *select_neighbors(archive, q, euclidean(n), 30), q)
        assert predict(model, q) == model.beta[-1]
        assert np.array_equal(model.center, q)
        assert model.scale > 0

    def test_matches_weighted_lstsq_in_12_dimensions(self):
        # independent oracle: weighted least squares in raw coordinates,
        # solved by np.linalg.lstsq (SVD) instead of normal equations
        rng = np.random.default_rng(15)
        n = 12
        k = default_surrogate_settings(n).k
        archive = TrainingArchive(n)
        fill_archive(archive, rng.uniform(-1, 1, (300, n)),
                     lambda p: float(p @ p + np.sum(np.sin(2 * p))))
        metric = MahalanobisMetric(np.diag(rng.uniform(0.5, 2.0, n)))
        q = rng.uniform(-0.5, 0.5, n)
        genomes, values, distances = select_neighbors(archive, q, metric, k)
        model = fit_local_model(genomes, values, distances, q)

        root_w = np.sqrt(kernel(distances / distances[-1]))
        design = np.array([quadratic_basis(g) for g in genomes])
        beta, *_ = np.linalg.lstsq(root_w[:, None] * design, root_w * values,
                                   rcond=None)
        for z in [q, *(q + 0.1 * rng.standard_normal((10, n)))]:
            expected = float(beta @ quadratic_basis(z))
            assert predict(model, z) == pytest.approx(expected, rel=1e-8)

    def test_rank_deficient_neighbourhood_takes_ridge_path(self, monkeypatch):
        # every neighbor shares q's second coordinate, so the z2 terms of
        # the design vanish and the plain Cholesky factorization fails
        factorizations = []
        real_dpotrf = mm.dpotrf

        def counting_dpotrf(*args, **kwargs):
            factor, info = real_dpotrf(*args, **kwargs)
            factorizations.append(info)
            return factor, info

        monkeypatch.setattr(mm, "dpotrf", counting_dpotrf)
        rng = np.random.default_rng(16)
        q = np.array([0.1, 0.4])
        points = np.column_stack([rng.uniform(-1, 1, 12), np.full(12, 0.4)])
        distances = np.abs(points[:, 0] - q[0])
        order = np.argsort(distances, kind="stable")
        points, distances = points[order], distances[order]
        model = fit_local_model(points, points[:, 0] ** 2, distances, q)
        assert len(factorizations) == 2
        assert factorizations[0] != 0 and factorizations[1] == 0
        assert math.isfinite(predict(model, q))
        assert predict(model, q) == pytest.approx(q[0] ** 2, abs=1e-6)

    def test_fully_degenerate_neighbourhood_unavailable(self):
        # all neighbors coincide away from q: every kernel weight is zero
        points = np.ones((8, 2))
        distances = np.full(8, math.sqrt(2.0))
        with pytest.raises(SurrogateUnavailable):
            fit_local_model(points, np.arange(8.0), distances, np.zeros(2))


class TestPredict:
    def test_centred_scaled_coordinates(self):
        # f(u) = u1^2 + 3 with u = (z - (1, 2)) / 2: at z = (3, 2), u = (1, 0)
        beta = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 3.0])
        model = LocalQuadraticModel(beta=beta, center=np.array([1.0, 2.0]),
                                    bandwidth=1.0, neighbors_used=6,
                                    scale=2.0)
        assert predict(model, np.array([3.0, 2.0])) == 4.0
        assert predict(model, np.array([1.0, 2.0])) == 3.0

    def test_constant_only_beta(self):
        model = LocalQuadraticModel(
            beta=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            center=np.zeros(2), bandwidth=1.0, neighbors_used=6)
        for z in np.random.default_rng(12).standard_normal((10, 2)):
            assert predict(model, z) == 1.0

    def test_hand_computed_expansion(self):
        # f(z) = z1^2 + 2 z1 z2 + 3 at z = (1, 2) -> 1 + 4 + 3 = 8
        beta = np.array([1.0, 0.0, 2.0, 0.0, 0.0, 3.0])
        model = LocalQuadraticModel(beta=beta, center=np.zeros(2),
                                    bandwidth=1.0, neighbors_used=6)
        assert predict(model, np.array([1.0, 2.0])) == pytest.approx(8.0)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            beta = rng.standard_normal(basis_size(n))
            model = LocalQuadraticModel(beta=beta, center=np.zeros(n),
                                        bandwidth=1.0, neighbors_used=1)
            z = rng.standard_normal(n)
            expected = 0.0
            pos = 0
            for i in range(n):
                expected += beta[pos] * z[i] * z[i]
                pos += 1
            for i in range(n):
                for j in range(i + 1, n):
                    expected += beta[pos] * z[i] * z[j]
                    pos += 1
            for i in range(n):
                expected += beta[pos] * z[i]
                pos += 1
            expected += beta[pos]
            assert predict(model, z) == pytest.approx(expected, rel=1e-12)


def seeded_setup(lam, fn, n=1, archive_points=None, seed=20):
    """Population + archive + params for approximate-ranking tests."""
    rng = np.random.default_rng(seed)
    settings = default_surrogate_settings(n)
    count = settings.min_archive_size + 3
    if archive_points is None:
        archive_points = rng.uniform(-3, 3, (count, n))
    archive = TrainingArchive(n)
    fill_archive(archive, archive_points, fn)
    population = [Individual(genome=rng.uniform(-1, 1, n))
                  for _ in range(lam)]
    params = default_strategy_params(n, lam)
    return population, archive, params, settings


class TestApproximateRanking:
    def test_exact_surrogate_costs_two_evaluations(self):
        # With a surrogate that already equals the true function the
        # procedure evaluates the predicted best, spends one cycle
        # confirming, and accepts: exactly 2 true evaluations.
        fn = lambda z: float(3.0 * z[0] ** 2 - z[0] + 0.5)
        lam = 8
        population, archive, params, settings = seeded_setup(lam, fn)
        calls = []

        def true_eval(genome):
            calls.append(genome.copy())
            value = fn(genome)
            archive.add(genome, value)
            return value

        order, n_ic, n_true = approximate_ranking_step(
            population, archive, make_dist(1), params, settings, true_eval)
        assert n_true == 2
        assert n_ic == 1
        assert n_true == 1 + n_ic
        assert len(calls) == 2
        # final ranking equals the full-true-evaluation ranking
        truth = sorted(range(lam),
                       key=lambda i: (fn(population[i].genome), i))
        assert order == truth

    def test_nan_objective_ranks_last(self):
        # a NaN ranking objective must not scramble the finite order
        fn = lambda z: float((z[0] - 0.2) ** 2)
        lam = 8
        population, archive, params, settings = seeded_setup(lam, fn)
        poisoned = population[3].genome

        def true_eval(genome):
            value = fn(genome)
            archive.add(genome, value)
            return value

        def penalize(genome, raw):
            return math.nan if genome is poisoned else raw

        order, _, _ = approximate_ranking_step(
            population, archive, make_dist(1), params, settings, true_eval,
            penalize)
        assert order[-1] == 3
        ranked = [population[i].penalized_objective for i in order[:-1]]
        assert ranked == sorted(ranked)

    def test_first_evaluation_is_predicted_best(self):
        fn = lambda z: float((z[0] - 0.2) ** 2)
        lam = 8
        population, archive, params, settings = seeded_setup(lam, fn)
        calls = []

        def true_eval(genome):
            calls.append(genome.copy())
            value = fn(genome)
            archive.add(genome, value)
            return value

        approximate_ranking_step(population, archive, make_dist(1), params,
                                 settings, true_eval)
        best = min(range(lam), key=lambda i: (fn(population[i].genome), i))
        assert np.array_equal(calls[0], population[best].genome)

    def test_adversarial_surrogate_bounded_by_lambda(self):
        # archive lies (negated objective), true evaluations set the record
        # straight; cost may degrade but never exceeds lambda
        fn = lambda z: float(z[0] ** 2)
        lam = 8
        rng = np.random.default_rng(30)
        settings = default_surrogate_settings(1)
        archive = TrainingArchive(1)
        fill_archive(archive,
                     rng.uniform(-3, 3, (settings.min_archive_size + 3, 1)),
                     lambda z: -fn(z))
        population = [Individual(genome=rng.uniform(-1, 1, 1))
                      for _ in range(lam)]
        params = default_strategy_params(1, lam)

        def true_eval(genome):
            value = fn(genome)
            archive.add(genome, value)
            return value

        order, n_ic, n_true = approximate_ranking_step(
            population, archive, make_dist(1), params, settings, true_eval)
        assert n_true <= lam
        assert n_true == 1 + n_ic
        assert sorted(order) == list(range(lam))

    def test_quarter_threshold_switches_criterion(self):
        from wellopt.metamodel import ranking_continues

        # lam = 8: the quarter threshold is 2, so once 2 individuals are
        # evaluated (every observable cycle) only the best individual
        # matters; set churn alone no longer costs evaluations.
        assert ranking_continues(2, 8, 0.25, set_changed=True,
                                 elt_changed=False) is False
        assert ranking_continues(2, 8, 0.25, set_changed=True,
                                 elt_changed=True) is True
        # lam = 40 keeps the set criterion active until 10 are evaluated.
        assert ranking_continues(2, 40, 0.25, set_changed=True,
                                 elt_changed=False) is True
        assert ranking_continues(9, 40, 0.25, set_changed=True,
                                 elt_changed=False) is False
        # the comparison (cycle + 1) < lam/4 is strict: lam = 12 at
        # cycle 2 gives 3 < 3 -> already the elt-only criterion
        assert ranking_continues(2, 12, 0.25, set_changed=True,
                                 elt_changed=False) is False
        # the first cycle always continues
        assert ranking_continues(1, 40, 0.25, set_changed=False,
                                 elt_changed=False) is True

    def test_fallback_to_full_evaluation(self, monkeypatch):
        fn = lambda z: float(z[0] ** 2)
        lam = 8
        population, archive, params, settings = seeded_setup(lam, fn)
        state = {"calls": 0}

        def broken_select(archive_, q, metric, k):
            state["calls"] += 1
            if state["calls"] > 3:
                raise SurrogateUnavailable("forced")
            return select_neighbors(archive_, q, metric, k)

        monkeypatch.setattr(mm, "select_neighbors", broken_select)
        evals = []

        def true_eval(genome):
            evals.append(genome.copy())
            value = fn(genome)
            archive.add(genome, value)
            return value

        order, _, n_true = approximate_ranking_step(
            population, archive, make_dist(1), params, settings, true_eval)
        assert n_true == lam
        assert all(ind.evaluated_by.value == "true_function"
                   for ind in population)
        truth = sorted(range(lam),
                       key=lambda i: (fn(population[i].genome), i))
        assert order == truth

    def test_archive_below_threshold_is_callers_problem(self):
        fn = lambda z: float(z[0] ** 2)
        population, archive, params, settings = seeded_setup(4, fn)
        small = TrainingArchive(1)
        small.add(np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            approximate_ranking_step(population, small, make_dist(1), params,
                                     settings, lambda g: fn(g))

    def test_penalty_applied_to_predictions_and_truth(self):
        fn = lambda z: float(z[0] ** 2)
        lam = 8
        population, archive, params, settings = seeded_setup(lam, fn)

        def true_eval(genome):
            value = fn(genome)
            archive.add(genome, value)
            return value

        shift = 100.0
        order, _, _ = approximate_ranking_step(
            population, archive, make_dist(1), params, settings, true_eval,
            penalize_fn=lambda genome, raw: raw + shift)
        for ind in population:
            assert ind.penalized_objective == pytest.approx(
                ind.raw_objective + shift, rel=1e-12)

    def test_exact_surrogate_multi_dimensional(self):
        rng = np.random.default_rng(31)
        n, lam = 3, 12
        fn, _ = random_quadratic(n, rng)
        settings = default_surrogate_settings(n)
        archive = TrainingArchive(n)
        fill_archive(archive,
                     rng.uniform(-2, 2, (settings.min_archive_size + 5, n)),
                     fn)
        population = [Individual(genome=rng.uniform(-1, 1, n))
                      for _ in range(lam)]
        params = default_strategy_params(n, lam)

        def true_eval(genome):
            value = fn(genome)
            archive.add(genome, value)
            return value

        order, n_ic, n_true = approximate_ranking_step(
            population, archive, make_dist(n), params, settings, true_eval)
        assert n_true == 2
        truth = sorted(range(lam),
                       key=lambda i: (fn(population[i].genome), i))
        assert order == truth
