import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import wellopt.harness as harness
import wellopt.metamodel as mm
from wellopt.cma import SearchDistribution, default_strategy_params
from wellopt.constraints import penalized
from wellopt.metamodel import (LocalQuadraticModel, MahalanobisMetric,
                               SurrogateSettings, SurrogateUnavailable,
                               TrainingArchive, admit_newest,
                               approximate_ranking_step, basis_size,
                               default_surrogate_settings, fit_local_model,
                               kernel, ranking_continues, select_neighbors)
from reference_forms import (archive_csv, load_archive_csv, predict,
                             quadratic_basis)


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
        archive.add(key(p), fn(p))


def key(genome) -> bytes:
    """The archive key of a genome: its float64 bytes."""
    return np.asarray(genome, dtype=float).tobytes()


def random_quadratic(n, rng):
    """Random full quadratic returning (callable, coefficient vector)."""
    p = basis_size(n)
    beta = rng.standard_normal(p)
    return (lambda z: float(beta @ quadratic_basis(z))), beta


class TestArchive:
    def test_duplicates_skipped(self):
        archive = TrainingArchive(2)
        assert archive.add(key(np.array([1.0, 2.0])), 3.0)
        assert not archive.add(key(np.array([1.0, 2.0])), 4.0)
        assert len(archive) == 1
        assert archive.lookup(key(np.array([1.0, 2.0]))) == 3.0

    def test_nonfinite_rejected(self):
        archive = TrainingArchive(1)
        assert not archive.add(key(np.array([0.0])), float("nan"))
        assert not archive.add(key(np.array([0.0])), float("inf"))
        assert len(archive) == 0

    def test_nonfinite_values_are_remembered(self):
        # the archive is the evaluation memo: a non-finite value is looked
        # up like any other, but never becomes regression data
        archive = TrainingArchive(1)
        archive.add(key(np.array([0.0])), float("nan"))
        assert math.isnan(archive.lookup(key(np.array([0.0]))))
        assert not archive.add(key(np.array([0.0])), 1.0)
        assert archive.lookup(key(np.array([1.0]))) is None
        assert len(archive) == 0
        assert archive.as_arrays()[0].shape == (0, 1)

    def test_csv_round_trip(self, tmp_path):
        archive = TrainingArchive(3)
        rng = np.random.default_rng(0)
        fill_archive(archive, rng.standard_normal((10, 3)),
                     lambda p: float(p @ p))
        archive.add(np.array([-0.0, 5e-324, 1e300]).tobytes(), -0.0)
        archive.add(np.array([1.0, 2.0, 3.0]).tobytes(), math.nan)
        path = tmp_path / "archive.csv"
        harness._atomic_write(path, harness._archive_csv(archive))
        assert path.read_text() == archive_csv(archive)
        assert b"\r" not in path.read_bytes()   # LF, like every other CSV
        loaded = load_archive_csv(path)
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
        real_dposv = mm._lapack()

        def counting_dposv(*args, **kwargs):
            factor, x, info = real_dposv(*args, **kwargs)
            factorizations.append(info)
            return factor, x, info

        monkeypatch.setattr(mm, "_lapack", lambda: counting_dposv)
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
                                    bandwidth=1.0, scale=2.0)
        assert predict(model, np.array([3.0, 2.0])) == 4.0
        assert predict(model, np.array([1.0, 2.0])) == 3.0

    def test_constant_only_beta(self):
        model = LocalQuadraticModel(
            beta=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            center=np.zeros(2), bandwidth=1.0, scale=1.0)
        for z in np.random.default_rng(12).standard_normal((10, 2)):
            assert predict(model, z) == 1.0

    def test_hand_computed_expansion(self):
        # f(z) = z1^2 + 2 z1 z2 + 3 at z = (1, 2) -> 1 + 4 + 3 = 8
        beta = np.array([1.0, 0.0, 2.0, 0.0, 0.0, 3.0])
        model = LocalQuadraticModel(beta=beta, center=np.zeros(2),
                                    bandwidth=1.0, scale=1.0)
        assert predict(model, np.array([1.0, 2.0])) == pytest.approx(8.0)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            beta = rng.standard_normal(basis_size(n))
            model = LocalQuadraticModel(beta=beta, center=np.zeros(n),
                                        bandwidth=1.0, scale=1.0)
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
    """Genomes + archive + params for approximate-ranking tests."""
    rng = np.random.default_rng(seed)
    settings = default_surrogate_settings(n)
    count = settings.min_archive_size + 3
    if archive_points is None:
        archive_points = rng.uniform(-3, 3, (count, n))
    archive = TrainingArchive(n)
    fill_archive(archive, archive_points, fn)
    genomes = np.array([rng.uniform(-1, 1, n) for _ in range(lam)])
    params = default_strategy_params(n, lam, 100)
    return genomes, archive, params, settings


class TestApproximateRanking:
    def test_exact_surrogate_costs_two_evaluations(self):
        # With a surrogate that already equals the true function the
        # procedure evaluates the predicted best, spends one cycle
        # confirming, and accepts: exactly 2 true evaluations.
        fn = lambda z: float(3.0 * z[0] ** 2 - z[0] + 0.5)
        lam = 8
        genomes, archive, params, settings = seeded_setup(lam, fn)
        calls = []

        def true_eval(genome):
            calls.append(genome.copy())
            value = fn(genome)
            archive.add(key(genome), value)
            return value

        order, n_ic, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(1), params, settings, true_eval,
            [0.0] * len(genomes))
        n_true = sum(evaluated)
        assert n_true == 2
        assert n_ic == 1
        assert n_true == 1 + n_ic
        assert len(calls) == 2
        # final ranking equals the full-true-evaluation ranking
        truth = sorted(range(lam), key=lambda i: (fn(genomes[i]), i))
        assert order == truth

    def test_nan_objective_ranks_last(self):
        # a NaN ranking objective must not scramble the finite order
        fn = lambda z: float((z[0] - 0.2) ** 2)
        lam = 8
        genomes, archive, params, settings = seeded_setup(lam, fn)
        poisoned = genomes[3].tobytes()

        def true_eval(genome):
            value = fn(genome)
            archive.add(key(genome), value)
            return value

        # a NaN penalty amount poisons the candidate's ranking value
        amounts = [math.nan if genome.tobytes() == poisoned else 0.0
                   for genome in genomes]

        order, _, _, values, _ = approximate_ranking_step(
            genomes, archive, make_dist(1), params, settings, true_eval,
            amounts)
        assert order[-1] == 3
        ranked = [values[i] for i in order[:-1]]
        assert ranked == sorted(ranked)

    def test_first_evaluation_is_predicted_best(self):
        fn = lambda z: float((z[0] - 0.2) ** 2)
        lam = 8
        genomes, archive, params, settings = seeded_setup(lam, fn)
        calls = []

        def true_eval(genome):
            calls.append(genome.copy())
            value = fn(genome)
            archive.add(key(genome), value)
            return value

        approximate_ranking_step(genomes, archive, make_dist(1), params,
                                 settings, true_eval, [0.0] * len(genomes))
        best = min(range(lam), key=lambda i: (fn(genomes[i]), i))
        assert np.array_equal(calls[0], genomes[best])

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
        genomes = np.array([rng.uniform(-1, 1, 1) for _ in range(lam)])
        params = default_strategy_params(1, lam, 100)

        def true_eval(genome):
            value = fn(genome)
            archive.add(key(genome), value)
            return value

        order, n_ic, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(1), params, settings, true_eval,
            [0.0] * len(genomes))
        n_true = sum(evaluated)
        assert n_true <= lam
        assert n_true == 1 + n_ic
        assert sorted(order) == list(range(lam))

    def test_quarter_threshold_switches_criterion(self):
        from wellopt.metamodel import ranking_continues

        # lam = 8: the quarter threshold is 2, so once 2 individuals are
        # evaluated (every observable cycle) only the best individual
        # matters; set churn alone no longer costs evaluations.
        assert ranking_continues(2, 8, set_changed=True,
                                 elt_changed=False) is False
        assert ranking_continues(2, 8, set_changed=True,
                                 elt_changed=True) is True
        # lam = 40 keeps the set criterion active until 10 are evaluated.
        assert ranking_continues(2, 40, set_changed=True,
                                 elt_changed=False) is True
        assert ranking_continues(9, 40, set_changed=True,
                                 elt_changed=False) is False
        # the comparison (cycle + 1) < lam/4 is strict: lam = 12 at
        # cycle 2 gives 3 < 3 -> already the elt-only criterion
        assert ranking_continues(2, 12, set_changed=True,
                                 elt_changed=False) is False
        # cycles 0 and 1 always continue
        assert ranking_continues(0, 40, set_changed=False,
                                 elt_changed=False) is True
        assert ranking_continues(1, 40, set_changed=False,
                                 elt_changed=False) is True

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_best_ranked_candidate_is_truly_evaluated(self, data, seed):
        # The CMA loop takes order[0] as the generation's incumbent.
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 3))
        lam = data.draw(st.integers(4, 12))
        step = data.draw(st.sampled_from([0.0, 0.25]))   # 0.25: ties
        nan_below = data.draw(st.sampled_from([-math.inf, -0.5, 0.3]))
        lies = data.draw(st.booleans())   # the archive holds -f
        fail_after = data.draw(st.one_of(st.none(), st.integers(0, 3 * lam)))

        def fn(z):
            if z[0] < nan_below:
                return math.nan
            value = float(z @ z)
            return round(value / step) * step if step else value

        settings = default_surrogate_settings(n)
        archive = TrainingArchive(n)
        for p in rng.uniform(-1.5, 1.5, (settings.min_archive_size
                                         + int(rng.integers(0, 8)), n)):
            archive.add(key(p), -float(p @ p) if lies else float(p @ p))
        genomes = rng.uniform(-1.0, 1.0, (lam, n))
        for i in rng.integers(0, lam, data.draw(st.integers(0, lam // 2))):
            # a duplicate of another candidate or of an archive point
            points = genomes if rng.random() < 0.5 else archive.as_arrays()[0]
            genomes[i] = points[rng.integers(len(points))]
        poisoned = genomes[rng.integers(lam)].tobytes()

        amounts = [math.nan if genome.tobytes() == poisoned else 0.0
                   for genome in genomes]

        fits = []

        def failing_fit(*args):
            fits.append(None)
            if fail_after is not None and len(fits) > fail_after:
                raise SurrogateUnavailable("forced")
            return fit_local_model(*args)

        with mock.patch.object(mm, "fit_local_model", failing_fit):
            order, n_ic, _, _, evaluated = approximate_ranking_step(
                genomes, archive, make_dist(n),
                default_strategy_params(n, lam, 100), settings,
                harness.Evaluator(fn, archive),
                amounts if data.draw(st.booleans()) else [0.0] * lam)
        assert evaluated[order[0]]
        assert sum(evaluated) == 1 + n_ic

    def test_fallback_to_full_evaluation(self, monkeypatch):
        fn = lambda z: float(z[0] ** 2)
        lam = 8
        genomes, archive, params, settings = seeded_setup(lam, fn)
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
            archive.add(key(genome), value)
            return value

        order, _, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(1), params, settings, true_eval,
            [0.0] * len(genomes))
        assert sum(evaluated) == lam
        assert all(evaluated)
        truth = sorted(range(lam), key=lambda i: (fn(genomes[i]), i))
        assert order == truth

    def test_a_fit_failing_mid_step_evaluates_the_rest(self, monkeypatch):
        """The 11th fit raises, after the first true evaluation: every
        candidate left is then evaluated, n_ic counts them all, and no
        held neighbour set is updated once the fit has failed."""
        fn = lambda z: float(z[0] ** 2)
        lam = 8
        genomes, archive, params, settings = seeded_setup(lam, fn)
        fits, admitted = [], []

        def failing_fit(*args):
            fits.append(None)
            if len(fits) == 11:
                raise SurrogateUnavailable("forced")
            return fit_local_model(*args)

        admit = mm.admit_newest

        def counted_admit(*args):
            admitted.append(len(fits))
            return admit(*args)

        monkeypatch.setattr(mm, "fit_local_model", failing_fit)
        monkeypatch.setattr(mm, "admit_newest", counted_admit)
        evaluator = harness.Evaluator(fn, archive)
        order, n_ic, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(1), params, settings, evaluator,
            [0.0] * lam)
        assert len(fits) == 11
        assert all(evaluated)
        assert sum(evaluated) == 1 + n_ic == lam
        assert admitted and max(admitted) < 11
        truth = sorted(range(lam), key=lambda i: (fn(genomes[i]), i))
        assert order == truth

    def test_penalty_applied_to_predictions_and_truth(self):
        fn = lambda z: float(z[0] ** 2)
        lam = 8
        genomes, archive, params, settings = seeded_setup(lam, fn)

        def true_eval(genome):
            value = fn(genome)
            archive.add(key(genome), value)
            return value

        shift = 100.0
        _, _, raw, values, _ = approximate_ranking_step(
            genomes, archive, make_dist(1), params, settings, true_eval,
            amounts=[shift] * lam)
        for raw_objective, value in zip(raw, values):
            assert value == pytest.approx(raw_objective + shift, rel=1e-12)

    def test_exact_surrogate_multi_dimensional(self):
        rng = np.random.default_rng(31)
        n, lam = 3, 12
        fn, _ = random_quadratic(n, rng)
        settings = default_surrogate_settings(n)
        archive = TrainingArchive(n)
        fill_archive(archive,
                     rng.uniform(-2, 2, (settings.min_archive_size + 5, n)),
                     fn)
        genomes = np.array([rng.uniform(-1, 1, n) for _ in range(lam)])
        params = default_strategy_params(n, lam, 100)

        def true_eval(genome):
            value = fn(genome)
            archive.add(key(genome), value)
            return value

        order, n_ic, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(n), params, settings, true_eval,
            [0.0] * len(genomes))
        assert sum(evaluated) == 2
        truth = sorted(range(lam), key=lambda i: (fn(genomes[i]), i))
        assert order == truth


def same_bits(a, b) -> bool:
    """Equal shapes and bytes, array by array."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


class TestAdmitNewest:
    def line_archive(self):
        # 1-D, identity metric: every distance is an exact small integer
        archive = TrainingArchive(1)
        fill_archive(archive, [[1.0], [-2.0], [3.0], [4.0]], lambda p: p[0])
        queries = np.array([[0.0], [10.0]])
        metric = euclidean(1)
        sets = {0: select_neighbors(archive, queries[0], metric, 2)}
        return archive, queries, metric, sets

    def test_entry_at_the_kth_distance_leaves_the_set(self):
        archive, queries, metric, sets = self.line_archive()
        archive.add(key(np.array([2.0])), 7.0)
        assert admit_newest(archive, metric, queries, sets) == []
        assert same_bits(sets[0], select_neighbors(archive, queries[0],
                                                   metric, 2))
        assert list(sets[0][0][:, 0]) == [1.0, -2.0]

    def test_tie_goes_after_the_equal_members(self):
        archive, queries, metric, sets = self.line_archive()
        archive.add(key(np.array([-1.0])), 7.0)
        assert admit_newest(archive, metric, queries, sets) == [0]
        assert same_bits(sets[0], select_neighbors(archive, queries[0],
                                                   metric, 2))
        assert list(sets[0][0][:, 0]) == [1.0, -1.0]
        assert list(sets[0][1]) == [1.0, 7.0]
        assert list(sets[0][2]) == [1.0, 1.0]

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(data=st.data(), lattice=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sets_equal_a_fresh_scan_after_every_growth(self, data, lattice,
                                                        seed):
        rng = np.random.default_rng(seed)
        if lattice:
            # integer points under a power-of-four diagonal covariance give
            # exact distances, so ties and entries exactly at a set's k-th
            # distance are common
            n = data.draw(st.integers(1, 3))
            covariance = np.diag(4.0 ** rng.integers(-1, 2, n))

            def point():
                return rng.integers(-2, 3, n).astype(float)
        else:
            n = data.draw(st.sampled_from([2, 5, 12]))
            A = rng.standard_normal((n, n))
            covariance = A @ A.T + 0.1 * np.eye(n)

            def point():
                return rng.uniform(-1.0, 1.0, n)
        metric = MahalanobisMetric(covariance)
        k = data.draw(st.integers(2, 8))
        archive = TrainingArchive(n)
        for _ in range(k + data.draw(st.integers(0, 20))):
            archive.add(key(point()), float(rng.standard_normal()))
        if len(archive) < k:
            return
        queries = np.array([point() for _ in range(data.draw(
            st.integers(2, 6)))])
        sets = {j: select_neighbors(archive, q, metric, k)
                for j, q in enumerate(queries)}
        for _ in range(data.draw(st.integers(1, 12))):
            kind = data.draw(st.sampled_from(
                ["fresh", "mirror", "duplicate", "nonfinite", "drop"]))
            value = float(rng.standard_normal())
            if kind == "drop":
                # an evaluated candidate leaves the held sets
                if len(sets) > 1:
                    del sets[data.draw(st.sampled_from(sorted(sets)))]
                continue
            if kind == "duplicate":
                genome = archive.as_arrays()[0][rng.integers(len(archive))]
            elif kind == "mirror":
                # a member reflected through its query: with exact distances
                # a tie inside the set, or an entry at its k-th distance
                j = data.draw(st.sampled_from(sorted(sets)))
                genome = 2.0 * queries[j] - sets[j][0][rng.integers(k)]
            else:
                genome = point()
            if kind == "nonfinite":
                value = data.draw(st.sampled_from([math.nan, math.inf,
                                                   -math.inf]))
            before = {j: tuple(a.copy() for a in held)
                      for j, held in sets.items()}
            size = len(archive)
            archive.add(key(genome), value)
            joined = (admit_newest(archive, metric, queries, sets)
                      if len(archive) > size else [])
            if kind in ("duplicate", "nonfinite"):
                assert len(archive) == size
            for j, held in sets.items():
                fresh = select_neighbors(archive, queries[j], metric, k)
                assert same_bits(held, fresh)
                assert (j in joined) == (not same_bits(before[j], fresh))


def rescanning_ranking_step(genomes, archive, dist, params, settings,
                            true_eval, amounts):
    """The ranking step as it was with a full archive scan per refit: the
    reference the incremental step must match bit for bit."""
    lam = len(genomes)
    metric = MahalanobisMetric(dist.covariance)
    raw = [math.nan] * lam
    values = [math.nan] * lam
    evaluated = [False] * lam
    cached = {}

    def eval_true(i):
        raw[i] = true_eval(genomes[i])
        values[i] = penalized(raw[i], amounts[i])
        evaluated[i] = True
        cached.pop(i, None)
        if cached:
            held = list(cached)
            # the last regression entry: the evaluation may have archived
            # another genome than the candidate, or none
            distances = metric.distances_to(genomes[held],
                                            archive.as_arrays()[0][-1])
            for j, distance in zip(held, distances):
                if distance < cached[j][1]:
                    del cached[j]

    def predict_unevaluated():
        for i in range(lam):
            if evaluated[i]:
                continue
            if i in cached:
                raw_hat = cached[i][0]
            else:
                neighbors, objectives, distances = select_neighbors(
                    archive, genomes[i], metric, settings.k)
                model = fit_local_model(neighbors, objectives, distances,
                                        genomes[i])
                raw_hat = predict(model, genomes[i])
                cached[i] = (raw_hat, model.bandwidth)
            raw[i] = raw_hat
            values[i] = penalized(raw_hat, amounts[i])

    def current_order():
        # ascending value, ties by index, non-finite values last by index
        return sorted(range(lam), key=lambda i: (
            (0, values[i], i) if math.isfinite(values[i]) else (1, 0.0, i)))

    n_ic = 0
    try:
        predict_unevaluated()
        order = current_order()
        set_prev = frozenset(order[:params.mu])
        elt_prev = order[0]
        eval_true(elt_prev)
        for cycle in range(1, lam):
            predict_unevaluated()
            order = current_order()
            set_cur = frozenset(order[:params.mu])
            elt_cur = order[0]
            if not ranking_continues(cycle, lam, set_cur != set_prev,
                                     elt_cur != elt_prev):
                break
            target = next((i for i in order if not evaluated[i]), None)
            if target is None:
                break
            eval_true(target)
            n_ic = cycle
            set_prev, elt_prev = set_cur, elt_cur
    except SurrogateUnavailable:
        cached.clear()
        for i in range(lam):
            if not evaluated[i]:
                eval_true(i)
        n_ic = lam - 1
    return current_order(), n_ic, raw, values, evaluated


def float_bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestIncrementalStep:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_rescanning_step_on_well_generations(
            self, monkeypatch, seed):
        config = harness.RunConfig.from_dict({
            "problem": {"kind": "well_placement"},
            "optimizer": "cma+surrogate", "population_size": 40,
            "max_generations": 8})
        problem = harness.build_problem(config)
        steps = []

        def both(genomes, archive, dist, params, settings, evaluator,
                 amounts):
            twin_archive = copy.deepcopy(archive)
            expected = rescanning_ranking_step(
                genomes.copy(), twin_archive, dist, params, settings,
                harness.Evaluator(problem.raw_objective, twin_archive),
                amounts)
            got = approximate_ranking_step(genomes, archive, dist, params,
                                           settings, evaluator, amounts)
            order, n_ic, raw, values, evaluated = got
            assert (order, n_ic) == expected[:2]
            for got_raw, ref_raw in zip(raw, expected[2], strict=True):
                assert float_bits(got_raw) == float_bits(ref_raw)
            for got_value, ref_value in zip(values, expected[3], strict=True):
                assert float_bits(got_value) == float_bits(ref_value)
            assert evaluated == expected[4]
            assert same_bits(archive.as_arrays(), twin_archive.as_arrays())
            steps.append(sum(evaluated))
            return got

        monkeypatch.setattr(harness, "approximate_ranking_step", both)
        harness.run_cma(problem, config, seed, use_surrogate=True)
        assert len(steps) >= 4
        assert max(steps) >= 3

    def test_unchanged_archive_refits_nothing(self, monkeypatch):
        # a genome the archive already holds and a non-finite value add no
        # regression entry, so the next prediction pass reuses every fit
        fn = lambda z: float(z @ z)
        n, lam = 2, 8
        rng = np.random.default_rng(7)
        settings = default_surrogate_settings(n)
        archive = TrainingArchive(n)
        known = np.zeros(n)
        archive.add(key(known), fn(known))
        fill_archive(archive, rng.uniform(-3, 3, (settings.min_archive_size,
                                                  n)), fn)
        poisoned = np.array([0.1, 0.0])
        genomes = np.array([known.copy(), poisoned.copy()]
                           + [rng.uniform(1.0, 2.0, n)
                              for _ in range(lam - 2)])
        evaluator = harness.Evaluator(
            lambda z: math.nan if z[0] == 0.1 else fn(z), archive)
        events = []

        def true_eval(genome):
            events.append("true")
            return evaluator(genome)

        def counted_fit(*args):
            events.append("fit")
            return fit_local_model(*args)

        monkeypatch.setattr(mm, "fit_local_model", counted_fit)
        size = len(archive)
        _, _, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(n),
            default_strategy_params(n, lam, 100), settings, true_eval,
            [0.0] * len(genomes))
        assert len(archive) == size
        assert sum(evaluated) == 2
        assert events == ["fit"] * lam + ["true", "true"]

    @pytest.mark.parametrize("seed", [3, 6, 7])
    def test_admits_the_archived_entry_not_the_candidate(self, monkeypatch,
                                                         seed):
        # The evaluation archives the candidate clipped to a box, as a
        # projection onto the feasible set would: the entry that joins the
        # held neighbour sets is then not the genome that was evaluated.
        n, lam = 2, 24
        rng = np.random.default_rng(seed)
        settings = default_surrogate_settings(n)
        params = default_strategy_params(n, lam, 100)

        def fn(z):
            return float(z @ z + np.sin(3.0 * z).sum())

        archive = TrainingArchive(n)
        fill_archive(archive, rng.uniform(-2, 2, (settings.min_archive_size,
                                                  n)), fn)
        genomes = rng.uniform(-2, 2, (lam, n))
        # the box excludes fn's minimum, near -0.5 in each coordinate
        amounts = [0.1 * float(np.abs(g - np.clip(g, 0.0, 2.0)).sum())
                   for g in genomes]

        def clipped(archive_):
            evaluator = harness.Evaluator(fn, archive_)
            return lambda genome: evaluator(np.clip(genome, 0.0, 2.0))

        admit, moved = mm.admit_newest, []

        def checked_admit(archive_, metric, queries, sets):
            joined = admit(archive_, metric, queries, sets)
            entry = archive_.newest()[0]
            moved.append(bool(joined) and not any(
                np.array_equal(entry, q) for q in queries))
            for j, held in sets.items():
                assert same_bits(held, select_neighbors(
                    archive_, queries[j], metric, settings.k))
            return joined

        twin = copy.deepcopy(archive)
        expected = rescanning_ranking_step(genomes.copy(), twin, make_dist(n),
                                           params, settings, clipped(twin),
                                           amounts)
        monkeypatch.setattr(mm, "admit_newest", checked_admit)
        order, n_ic, raw, values, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(n), params, settings,
            clipped(archive), amounts)
        assert (order, n_ic, evaluated) == (expected[0], expected[1],
                                            expected[4])
        assert list(map(float_bits, raw)) == list(map(float_bits,
                                                      expected[2]))
        assert list(map(float_bits, values)) == list(map(float_bits,
                                                         expected[3]))
        assert same_bits(archive.as_arrays(), twin.as_arrays())
        assert sum(evaluated) >= 3
        assert any(moved)
