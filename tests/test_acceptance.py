"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line per criterion (visible with
`pytest tests/test_acceptance.py -v -s`). Tolerances are pinned here and
nowhere else. The suite favors honest long-running checks over mocks:
the optimizer comparisons really run, so the module takes a few minutes.
"""

import math

import numpy as np
import pytest

from wellopt.benchmarks import rosenbrock
from wellopt.cma import SearchDistribution, default_strategy_params
from wellopt.constraints import (PenaltyState, SumConstraint,
                                 constraint_violation, penalized,
                                 penalty_amount, xi_factors)
from wellopt.harness import (RunConfig, build_problem, evaluations_to_target,
                             run_cma, run_ga, run_single)
from wellopt.metamodel import (MahalanobisMetric, TrainingArchive,
                               approximate_ranking_step, basis_size,
                               default_surrogate_settings, fit_local_model,
                               select_neighbors)
from wellopt.wells import (FEET_PER_METER, PRODUCER, EconomicParams,
                           ProductionProfile, WellLayout, npv)
from reference_forms import initial_distribution, predict, quadratic_basis


def report(criterion, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def make_dist(n):
    return initial_distribution(np.zeros(n), 1.0)


# ---------------------------------------------------------------------------
# 1. CMA-ES correctness on the classic benchmarks


class TestCriterion1CmaCorrectness:
    def test_sphere_n10_reaches_1e9_within_5000_evaluations(self):
        config = RunConfig.from_dict({
            "problem": {"kind": "sphere", "dimension": 10},
            "optimizer": "cma", "population_size": 10,
            "max_generations": 500, "seeds": list(range(1, 11))})
        bests = []
        for seed in config.seeds:
            record = run_single(config, seed)
            within = [row.best_objective for row in record.rows
                      if row.true_evaluations <= 5000]
            bests.append(min(within))
        median = float(np.median(bests))
        passed = median <= 1e-9
        report("criterion 1a (sphere n=10)",
               passed, f"median best within 5000 evals = {median:.3e} "
               f"(tolerance 1e-9)")
        assert passed

    def test_rosenbrock_n5_within_30000_evaluations(self):
        config = RunConfig.from_dict({
            "problem": {"kind": "rosenbrock", "dimension": 5},
            "optimizer": "cma", "population_size": 16,
            "max_generations": 1875, "seeds": list(range(1, 11))})
        successes = 0
        for seed in config.seeds:
            record = run_single(config, seed)
            reached = any(row.best_objective <= 1e-6
                          and row.true_evaluations <= 30000
                          for row in record.rows)
            successes += bool(reached)
        passed = successes >= 7
        report("criterion 1b (rosenbrock n=5)",
               passed, f"{successes}/10 seeds reached 1e-6 within "
               f"30000 evals (need >= 7)")
        assert passed


# ---------------------------------------------------------------------------
# 2. Constrained sphere with the optimum outside the feasible set


class TestCriterion2ConstraintHandler:
    def test_converges_to_boundary_projection_with_vanishing_resamples(self):
        n, lam = 5, 20
        config = RunConfig.from_dict({
            "problem": {"kind": "sphere", "dimension": n, "center": 2.0},
            "optimizer": "cma", "population_size": lam,
            "max_generations": 500,
            "constraints": [{"indices": list(range(n)),
                             "lower": -1.0, "upper": 1.0}],
            "seeds": [1]})
        problem = build_problem(config)
        boundary_optimum = np.full(n, 1.0 / n)
        worst_distance = 0.0
        worst_resample = 0.0
        for seed in (1, 2, 3, 4, 5):
            record = run_cma(problem, config, seed, use_surrogate=False)
            distance = float(np.linalg.norm(record.final_mean
                                            - boundary_optimum))
            late_resamples = float(np.mean(
                [row.resampled for row in record.rows[-10:]]))
            worst_distance = max(worst_distance, distance)
            worst_resample = max(worst_resample, late_resamples)
        passed = worst_distance <= 1e-3 and worst_resample <= 0.05 * lam
        report("criterion 2 (constrained sphere)", passed,
               f"worst |mean - x*| = {worst_distance:.2e} (tol 1e-3), "
               f"worst late resamples/gen = {worst_resample:.2f} "
               f"(tol {0.05 * lam})")
        assert worst_distance <= 1e-3
        assert worst_resample <= 0.05 * lam


# ---------------------------------------------------------------------------
# 3. Penalty identities on randomized triples


class TestCriterion3PenaltyIdentities:
    def test_thousand_randomized_triples(self):
        rng = np.random.default_rng(2024)
        checked_feasible = 0
        max_rel_error = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            constraints = []
            for _ in range(m):
                size = int(rng.integers(1, n + 1))
                indices = tuple(rng.choice(n, size=size, replace=False))
                lo = float(rng.uniform(-2, 0))
                constraints.append(SumConstraint(
                    indices=indices, lower=lo,
                    upper=lo + float(rng.uniform(0.5, 2.0))))
            C = np.diag(rng.uniform(0.1, 10.0, n))
            dist = SearchDistribution(mean=np.zeros(n), step_size=1.0,
                                      covariance=C, path_sigma=np.zeros(n),
                                      path_c=np.zeros(n))
            state = PenaltyState(n_constraints=m, dim=n, lam=8)
            state.gammas = tuple(rng.uniform(0.0, 50.0, m).tolist())
            x = rng.uniform(-4, 4, n)
            raw = float(rng.standard_normal())

            # independent term-by-term evaluation of the penalty formula
            total = 0.0
            feasible = True
            log_diag = [math.log(C[i, i]) for i in range(n)]
            for j, c in enumerate(constraints):
                q = sum(x[p] for p in c.indices)
                q_feas = min(max(q, c.lower), c.upper)
                if q_feas != q:
                    feasible = False
                xi = math.exp(0.9 * (
                    sum(log_diag[p] for p in c.indices) / len(c.indices)
                    - sum(log_diag) / n))
                total += state.gammas[j] * (q_feas - q) ** 2 / xi
            expected = raw + total / m
            # the run loop's path: the amount from the candidate's sums
            sums = [constraint_violation(x, c)[0] for c in constraints]
            got = penalized(raw, penalty_amount(
                sums, state.gammas, constraints,
                xi_factors(dist, constraints)))
            if feasible:
                assert got == raw
                checked_feasible += 1
            else:
                rel = abs(got - expected) / max(1.0, abs(expected))
                max_rel_error = max(max_rel_error, rel)
                assert rel <= 1e-12
        passed = max_rel_error <= 1e-12
        report("criterion 3 (penalty identities)", passed,
               f"1000 triples, {checked_feasible} exactly-raw feasible "
               f"cases, max relative error {max_rel_error:.2e} (tol 1e-12)")
        assert passed


# ---------------------------------------------------------------------------
# 4. Meta-model exactness on random quadratics


class TestCriterion4MetamodelExactness:
    @pytest.mark.parametrize("n", [2, 5])
    def test_random_quadratics_recovered(self, n):
        rng = np.random.default_rng(100 + n)
        worst = 0.0
        for _ in range(5):
            beta = rng.standard_normal(basis_size(n))
            fn = lambda z: float(beta @ quadratic_basis(z))
            archive = TrainingArchive(n)
            for point in rng.uniform(-2, 2, (basis_size(n) + 5, n)):
                archive.add(point.tobytes(), fn(point))
            q = rng.uniform(-1, 1, n)
            neighbors = select_neighbors(archive, q,
                                         MahalanobisMetric(np.eye(n)),
                                         len(archive))
            model = fit_local_model(*neighbors, q)
            for z in rng.uniform(-1.5, 1.5, (100, n)):
                expected = fn(z)
                rel = abs(predict(model, z) - expected) / max(1e-8,
                                                              abs(expected))
                worst = max(worst, rel)
        passed = worst <= 1e-8
        report(f"criterion 4 (metamodel exactness n={n})", passed,
               f"max relative prediction error {worst:.2e} (tol 1e-8)")
        assert passed


# ---------------------------------------------------------------------------
# 5. Approximate ranking evaluation counts


class TestCriterion5ApproximateRanking:
    def test_exact_surrogate_count_and_ranking(self):
        rng = np.random.default_rng(55)
        n, lam = 1, 8
        fn = lambda z: float(3.0 * z[0] ** 2 - z[0] + 0.5)
        settings = default_surrogate_settings(n)
        archive = TrainingArchive(n)
        for point in rng.uniform(-3, 3, (settings.min_archive_size + 3, n)):
            archive.add(point.tobytes(), fn(point))
        genomes = np.array([rng.uniform(-1, 1, n) for _ in range(lam)])
        params = default_strategy_params(n, lam, 100)

        def true_eval(genome):
            value = fn(genome)
            archive.add(genome.tobytes(), value)
            return value

        order, n_ic, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(n), params, settings, true_eval,
            [0.0] * lam)
        n_true = sum(evaluated)
        truth = sorted(range(lam), key=lambda i: (fn(genomes[i]), i))
        hand_traced = 2   # initial best + the one confirming cycle
        passed = (n_true == hand_traced and n_true <= 3
                  and n_true == 1 + n_ic and order == truth)
        report("criterion 5a (exact-surrogate count)", passed,
               f"true evaluations {n_true} (hand-traced {hand_traced}, "
               f"cap 3), ranking matches full evaluation: {order == truth}")
        assert passed

    def test_any_surrogate_bounded_by_lambda(self):
        rng = np.random.default_rng(56)
        n, lam = 1, 8
        fn = lambda z: float(z[0] ** 2)
        settings = default_surrogate_settings(n)
        archive = TrainingArchive(n)
        for point in rng.uniform(-3, 3, (settings.min_archive_size + 3, n)):
            archive.add(point.tobytes(), -fn(point))   # adversarial: negated
        genomes = np.array([rng.uniform(-1, 1, n) for _ in range(lam)])
        params = default_strategy_params(n, lam, 100)

        def true_eval(genome):
            value = fn(genome)
            archive.add(genome.tobytes(), value)
            return value

        _, n_ic, _, _, evaluated = approximate_ranking_step(
            genomes, archive, make_dist(n), params, settings, true_eval,
            [0.0] * lam)
        n_true = sum(evaluated)
        passed = n_true <= lam and n_true == 1 + n_ic
        report("criterion 5b (adversarial bound)", passed,
               f"true evaluations {n_true} <= lambda {lam}")
        assert passed


# ---------------------------------------------------------------------------
# 6. Surrogate speedup analogue


def paired_speedup(config_dict, seeds):
    config = RunConfig.from_dict(config_dict)
    problem = build_problem(config)
    plain, surrogate = [], []
    for seed in seeds:
        plain.append(run_cma(problem, config, seed, use_surrogate=False))
        surrogate.append(run_cma(problem, config, seed, use_surrogate=True))
    pooled = np.concatenate([r.best_so_far() for r in plain + surrogate])
    target = float(np.quantile(pooled, 0.5))
    plain_evals, surrogate_evals = [], []
    for a, b in zip(plain, surrogate):
        ta = evaluations_to_target(a, target)
        tb = evaluations_to_target(b, target)
        if ta is not None and tb is not None:
            plain_evals.append(ta)
            surrogate_evals.append(tb)
    ratio = float(np.mean(surrogate_evals) / np.mean(plain_evals))
    return ratio, len(plain_evals), target


class TestCriterion6SurrogateSpeedup:
    def test_rosenbrock_speedup(self):
        ratio, pairs, target = paired_speedup({
            "problem": {"kind": "rosenbrock", "dimension": 5},
            "optimizer": "cma", "population_size": 16,
            "max_generations": 300, "seeds": [1]}, range(1, 11))
        passed = ratio <= 0.95 and pairs >= 8
        report("criterion 6a (rosenbrock speedup)", passed,
               f"evals-to-mid-target ratio {ratio:.3f} over {pairs} paired "
               f"seeds (hard gate 0.95, target objective {target:.3e})")
        assert pairs >= 8
        assert ratio <= 0.95

    def test_well_problem_speedup(self):
        ratio, pairs, target = paired_speedup({
            "problem": {"kind": "well_placement"},
            "optimizer": "cma", "population_size": 40,
            "max_generations": 60, "seeds": [1]}, range(1, 11))
        passed = ratio <= 0.95 and pairs >= 8
        report("criterion 6b (well placement speedup)", passed,
               f"evals-to-mid-target ratio {ratio:.3f} over {pairs} paired "
               f"seeds (hard gate 0.95, target NPV {-target:.3e})")
        assert pairs >= 8
        assert ratio <= 0.95


# ---------------------------------------------------------------------------
# 7. CMA vs GA on the bundled well problem


class TestCriterion7CmaVersusGa:
    def test_cma_dominates_ga_medians(self):
        config = RunConfig.from_dict({
            "problem": {"kind": "well_placement"},
            "population_size": 40, "max_generations": 100,
            "seeds": list(range(1, 11))})
        problem = build_problem(config)
        cma_npv, ga_npv, cma_impr, ga_impr = [], [], [], []

        def improvement(record):
            first = record.rows[0].best_objective
            final = record.final.best_objective
            return (first - final) / abs(first) * 100.0

        for seed in config.seeds:
            rc = run_cma(problem, config, seed, use_surrogate=False)
            rg = run_ga(problem, config, seed)
            cma_npv.append(-rc.final.best_raw_objective)
            ga_npv.append(-rg.final.best_raw_objective)
            cma_impr.append(improvement(rc))
            ga_impr.append(improvement(rg))
        med_cma, med_ga = np.median(cma_npv), np.median(ga_npv)
        med_cma_impr = np.median(cma_impr)
        med_ga_impr = np.median(ga_impr)
        passed = med_cma >= med_ga and med_cma_impr >= med_ga_impr
        report("criterion 7 (cma vs ga)", passed,
               f"median final NPV cma {med_cma:.3e} vs ga {med_ga:.3e}; "
               f"median improvement cma {med_cma_impr:.0f}% vs ga "
               f"{med_ga_impr:.0f}%")
        assert med_cma >= med_ga
        assert med_cma_impr >= med_ga_impr


# ---------------------------------------------------------------------------
# 8. Economics unit fixtures


class TestCriterion8Economics:
    def test_dimension_formula(self):
        value = 2 * WellLayout(PRODUCER, 1, 0).dim
        passed = value == 12
        report("criterion 8a (dimension formula)", passed,
               f"two unilateral wells -> {value} (expected 6 x 2 = 12)")
        assert passed

    def test_zero_production_npv(self):
        econ = EconomicParams(periods=5)
        profile = ProductionProfile(oil=np.zeros(6), gas=np.zeros(6),
                                    water=np.zeros(6))
        value = npv(profile, econ, cost=7.5e6)
        passed = value == -7.5e6
        report("criterion 8b (zero-production NPV)", passed,
               f"NPV = {value} (expected -7.5e6)")
        assert passed

    def test_drilling_cost_fixture(self):
        from wellopt.wells import WellGeometry, drilling_cost
        length_m = math.e / FEET_PER_METER
        well = WellGeometry(
            mainbore=((0.0, 0.0, 0.0), (length_m, 0.0, 0.0)), branches=())
        cost = drilling_cost([well], EconomicParams())
        expected = 1000.0 * 0.328084 * math.e
        passed = abs(cost - expected) <= 1e-6 * expected
        report("criterion 8c (drilling cost arithmetic)", passed,
               f"cost {cost:.4f} vs hand-computed {expected:.4f}")
        assert passed

    def test_junction_cost_fixture(self):
        from wellopt.wells import Branch, WellGeometry, drilling_cost
        econ = EconomicParams()
        mainbore = ((0.0, 0.0, 0.0), (100.0, 0.0, 0.0))
        plain = WellGeometry(mainbore=mainbore, branches=())
        lateral = WellGeometry(mainbore=mainbore, branches=(
            Branch(start_arclength=50.0, start=(50.0, 0.0, 0.0),
                   end=(50.0, 30.0, 0.0)),))
        delta = drilling_cost([lateral], econ) - drilling_cost([plain], econ)
        length_ft = 30.0 * FEET_PER_METER
        bore = (1000.0 * 0.1 * FEET_PER_METER * math.log(length_ft)
                * length_ft)
        passed = abs(delta - bore - 1e5) <= 1e-6 * max(1.0, bore)
        report("criterion 8d (junction cost)", passed,
               f"branch adds {delta:.2f} = bore {bore:.2f} + C_jun 1e5")
        assert passed


# ---------------------------------------------------------------------------
# 9. Determinism: byte-identical run records


class TestCriterion9Determinism:
    @pytest.mark.parametrize("label,config_dict,seed", [
        ("cma benchmark", {
            "problem": {"kind": "sphere", "dimension": 5},
            "optimizer": "cma", "population_size": 8,
            "max_generations": 40,
            "constraints": [{"indices": [0, 1], "lower": -3.0,
                             "upper": 3.0}]}, 1),
        ("cma+surrogate benchmark", {
            "problem": {"kind": "rosenbrock", "dimension": 3},
            "optimizer": "cma+surrogate", "population_size": 8,
            "max_generations": 40}, 2),
        ("ga well placement", {
            "problem": {"kind": "well_placement"},
            "optimizer": "ga", "population_size": 20,
            "max_generations": 12}, 3),
        ("cma well placement", {
            "problem": {"kind": "well_placement"},
            "optimizer": "cma", "population_size": 20,
            "max_generations": 12}, 4),
    ])
    def test_byte_identical_csv(self, tmp_path, label, config_dict, seed):
        config = RunConfig.from_dict(config_dict)
        run_single(config, seed, tmp_path / "a")
        run_single(config, seed, tmp_path / "b")
        a = (tmp_path / "a" / f"run_{seed}.csv").read_bytes()
        b = (tmp_path / "b" / f"run_{seed}.csv").read_bytes()
        passed = a == b
        report(f"criterion 9 (determinism, {label})", passed,
               f"{len(a)} bytes, identical: {passed}")
        assert passed
