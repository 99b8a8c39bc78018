import dataclasses
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import wellopt.ga as ga
import wellopt.harness as harness
from wellopt.harness import (Evaluator, RunConfig, build_problem,
                             compare_optimizers, evaluations_to_target,
                             run_batch, run_cma, run_ga, run_single)
from wellopt.cma import STAGNATION_WINDOW
from wellopt.constraints import MAX_RESAMPLES, SumConstraint
from wellopt.metamodel import SurrogateSettings, TrainingArchive
from reference_forms import archive_csv, load_archive_csv


def sphere_config(**overrides):
    data = {
        "problem": {"kind": "sphere", "dimension": 5},
        "optimizer": "cma",
        "population_size": 8,
        "max_generations": 40,
        "seeds": [1, 2],
    }
    data.update(overrides)
    return RunConfig.from_dict(data)


# Feasible only for x0 in (100, 101), while a small-sigma mean starts
# inside the default sphere bounds [-5, 5]: every draw is rejected.
FAR_INTERVAL = {"problem": {"kind": "sphere", "dimension": 2},
                "population_size": 4, "max_generations": 3, "sigma0": 1e-3,
                "constraints": [{"indices": [0], "lower": 100.0,
                                 "upper": 101.0}]}


def never(*args, **kwargs):
    raise AssertionError("a run started")


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"problem": {"kind": "sphere", "dimension": 2},
                                 "bogus": 1})

    def test_unknown_problem_key_rejected(self):
        with pytest.raises(ValueError, match="unknown problem keys"):
            RunConfig.from_dict({"problem": {"kind": "sphere", "dimension": 2,
                                             "wat": 3}})

    def test_unknown_constraint_key_rejected(self):
        with pytest.raises(ValueError, match="unknown constraint keys"):
            RunConfig.from_dict({
                "problem": {"kind": "sphere", "dimension": 2},
                "constraints": [{"indices": [0], "lower": 0, "upper": 1,
                                 "x": 5}]})

    def test_bad_optimizer_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            RunConfig.from_dict({"problem": {"kind": "sphere", "dimension": 2},
                                 "optimizer": "sgd"})

    def test_empty_targets_rejected(self):
        # an empty list would otherwise read as "no targets given" and
        # become the ten default quantiles
        with pytest.raises(ValueError, match="targets must not be empty; "
                                             "leave the key out"):
            sphere_config(targets=[])

    def test_missing_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            RunConfig.from_dict({"problem": {"kind": "rosenbrock"}})

    def test_population_defaults_by_problem_kind(self):
        bench = RunConfig.from_dict(
            {"problem": {"kind": "sphere", "dimension": 3}})
        assert bench.population_size == 8
        well = RunConfig.from_dict(
            {"problem": {"kind": "well_placement"}})
        assert well.population_size == 40

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "problem": {"kind": "sphere", "dimension": 4},
            "optimizer": "cma", "seeds": [3]}))
        config = RunConfig.load(path)
        assert config.problem["dimension"] == 4
        assert config.seeds == (3,)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            RunConfig.from_dict({"problem": {"kind": "sphere", "dimension": 2},
                                 "seeds": []})

    # Each bad value is rejected by `from_dict` and, as a field, by a
    # `dataclasses.replace` copy of a valid config; the `from_dict` cases
    # keep their plain ids.
    @pytest.mark.parametrize("overrides, key, copied", [
        pytest.param(overrides, key, copied,
                     id=f"overrides{i}-{key}" + ("-copied" if copied else ""))
        for copied in (False, True)
        for i, (overrides, key) in enumerate([
            ({"rejection_fraction": 0.0}, "rejection_fraction"),
            ({"rejection_fraction": -1.0}, "rejection_fraction"),
            ({"surrogate": {"k": 30, "min_archive_size": 50,
                            "max_cycle_fraction": 7.0}}, "max_cycle_fraction"),
            ({"surrogate": {"k": 30, "min_archive_size": 50,
                            "max_cycle_fraction": 0.0}}, "max_cycle_fraction"),
            ({"population_size": 1}, "population_size"),
            ({"sigma0": float("inf")}, "sigma0"),
            ({"sigma0": -1.0}, "sigma0"),
            ({"sigma0": float("nan")}, "sigma0"),
            ({"ga": {"crossprob": 1.5}}, "crossprob"),
            ({"ga": {"mutprob": -0.1}}, "mutprob"),
            ({"ga": {"mutprob": float("nan")}}, "mutprob"),
            ({"targets": [1.0, float("inf")]}, "targets"),
            ({"targets": [float("nan")]}, "targets"),
            # values of the wrong type
            ({"max_generations": "10"}, "max_generations"),
            ({"population_size": 8.5}, "population_size"),
            ({"seeds": [1, True]}, "seeds"),
            ({"seeds": None}, "seeds"),
            ({"sigma0": "1"}, "sigma0"),
            ({"ga": {"crossprob": None}}, "crossprob"),
            ({"targets": 3.0}, "targets"),
            ({"surrogate": {"k": 30}}, "min_archive_size"),
            ({"problem": [1]}, "problem"),
            ({"problem": {"kind": "sphere", "dimension": 2.5}},
             "problem.dimension"),
            ({"problem": {"kind": "sphere", "dimension": 2, "center": None}},
             "problem.center"),
            ({"problem": {"kind": "well_placement",
                          "economics": {"periods": 5.5}}}, "economics.periods"),
            ({"problem": {"kind": "well_placement",
                          "proxy": {"pi_half": "2e5"}}}, "proxy.pi_half"),
            ({"problem": {"kind": "well_placement",
                          "wells": [{"role": "injector", "deviations": "2"},
                                    {"role": "producer"}]}},
             "wells.deviations"),
            ({"problem": {"kind": "well_placement", "grid_file": 5}},
             "grid_file"),
            ({"output_dir": None}, "output_dir"),
            # numpy cannot seed from a negative integer, and a repeated
            # seed would count one run twice in the batch statistics
            ({"seeds": [1, -1]}, "seeds"),
            ({"seeds": [1, 1]}, "seeds"),
            ({"constraints": [{"indices": [0], "lower": 0.0}]}, "upper"),
            ({"constraints": [{"indices": ["0"], "lower": 0.0,
                               "upper": 1.0}]}, "constraint indices"),
            ({"constraints": [{"indices": [0], "lower": None,
                               "upper": 1.0}]}, "constraint lower"),
            ({"constraints": [[0, 0.0, 1.0]]}, "constraint"),
            ({"constraints": 5}, "constraints"),
            # a full quadratic in 2 dimensions needs 6 neighbours
            ({"surrogate": {"k": 3, "min_archive_size": 10}}, "surrogate.k"),
            # a layout needs a producer and an injector
            ({"problem": {"kind": "well_placement",
                          "wells": [{"role": "producer"}]}}, "wells"),
        ])])
    def test_out_of_range_values_rejected_at_load(self, overrides, key,
                                                  copied):
        data = {"problem": {"kind": "sphere", "dimension": 2}}
        if copied:
            valid = RunConfig.from_dict(data)
            fields = dict(overrides)
            fields.update(fields.pop("ga", {}))
            with pytest.raises(ValueError, match=key):
                dataclasses.replace(valid, **fields)
        else:
            data.update(overrides)
            with pytest.raises(ValueError, match=key):
                RunConfig.from_dict(data)

    def test_surrogate_checked_against_a_copied_problem(self):
        valid = RunConfig.from_dict({
            "problem": {"kind": "sphere", "dimension": 2},
            "surrogate": {"k": 10, "min_archive_size": 10}})
        with pytest.raises(ValueError, match="surrogate.k=10 too small"):
            dataclasses.replace(valid, problem={"kind": "sphere",
                                                "dimension": 5})

    def test_json_form_sections_parse_on_construction(self):
        problem = {"kind": "sphere", "dimension": 2}
        sections = {"surrogate": {"k": 100, "min_archive_size": 160},
                    "constraints": [{"indices": [0, 1], "lower": 0.0,
                                     "upper": 1.0}]}
        copied = dataclasses.replace(
            RunConfig.from_dict({"problem": problem}), **sections)
        assert copied == RunConfig.from_dict({"problem": problem, **sections})
        assert copied.surrogate == SurrogateSettings(k=100,
                                                     min_archive_size=160)
        assert copied.constraints == [SumConstraint((0, 1), 0.0, 1.0)]

    @pytest.mark.parametrize("problem, key", [
        ({"kind": "well_placement",
          "wells": [{"role": "injector"}, {"role": "producer", "branchs": 1}]},
         "branchs"),
        ({"kind": "well_placement", "economics": {"oil_prise": 70}},
         "oil_prise"),
        ({"kind": "well_placement", "proxy": {"drainage_radius": 400.0}},
         "drainage_radius"),
        ({"kind": "rosenbrock", "dimension": 2, "center": 1.0}, "center"),
    ])
    def test_unknown_section_key_rejected_at_load(self, problem, key):
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict({"problem": problem})

    @pytest.mark.parametrize("name, value", [
        ("drainage_radius_m", -5.0),
        ("pi_half", 0.0),
        ("connectivity_length_m", float("inf")),
        ("breakthrough_length_m", float("nan")),
        ("base_depletion_rate", 1.5),
        ("primary_recovery_floor", -0.1),
        ("water_cut_max", 1.0),
        ("gas_oil_ratio", -1.0),
    ])
    def test_out_of_range_proxy_value_rejected_at_load(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig.from_dict({"problem": {"kind": "well_placement",
                                             "proxy": {name: value}}})

    def test_optimizers_pair_validated(self):
        with pytest.raises(ValueError, match="optimizers"):
            RunConfig.from_dict({"problem": {"kind": "sphere", "dimension": 2},
                                 "optimizers": ["cma"]})


class TestEvaluator:
    def test_counter_reconciles_with_archive(self):
        archive = TrainingArchive(2)
        evaluator = Evaluator(lambda x: float(x @ x), archive)
        rng = np.random.default_rng(0)
        points = [rng.standard_normal(2) for _ in range(10)]
        for p in points + points:    # second pass hits the memo
            evaluator(p)
        assert evaluator.count == 10
        assert len(archive) == 10

    def test_memo_returns_same_value_without_recount(self):
        calls = []

        def fn(x):
            calls.append(1)
            return float(x.sum())

        evaluator = Evaluator(fn, TrainingArchive(2))
        x = np.array([1.0, 2.0])
        assert evaluator(x) == evaluator(x) == 3.0
        assert len(calls) == 1

    def test_nonfinite_value_memoized_but_not_archived(self):
        calls = []

        def fn(x):
            calls.append(1)
            return float("nan")

        archive = TrainingArchive(2)
        evaluator = Evaluator(fn, archive)
        x = np.array([1.0, 2.0])
        assert np.isnan(evaluator(x))
        assert np.isnan(evaluator(x))
        assert len(calls) == 1
        assert evaluator.count == 1
        assert len(archive) == 0


class TestNonfiniteEvaluations:
    @staticmethod
    def run_with(monkeypatch, tmp_path, optimizer, spikes):
        """One seeded sphere run whose objective returns spikes[k] on its
        k-th true evaluation; returns the record and the run CSV."""
        original = harness.sphere
        calls = []

        def spiked(x, center):
            calls.append(None)
            return spikes.get(len(calls), original(x, center))

        monkeypatch.setattr(harness, "sphere", spiked)
        out_dir = tmp_path / f"{optimizer}-{len(list(tmp_path.iterdir()))}"
        record = run_single(sphere_config(optimizer=optimizer,
                                          max_generations=12), 1, out_dir)
        return record, (out_dir / "run_1.csv").read_bytes()

    @pytest.mark.parametrize("optimizer", ["cma", "ga"])
    def test_counted_and_kept_out_of_the_csv(self, monkeypatch, tmp_path,
                                             optimizer):
        nan, inf = float("nan"), float("inf")
        plain, _ = self.run_with(monkeypatch, tmp_path, optimizer, {})
        assert plain.nonfinite_evaluations == 0
        first, first_csv = self.run_with(monkeypatch, tmp_path, optimizer,
                                         {3: nan, 17: inf})
        again, again_csv = self.run_with(monkeypatch, tmp_path, optimizer,
                                         {3: nan, 17: inf})
        swapped, swapped_csv = self.run_with(monkeypatch, tmp_path, optimizer,
                                             {3: inf, 17: nan})
        assert first.nonfinite_evaluations == 2
        assert again.nonfinite_evaluations == 2
        assert swapped.nonfinite_evaluations == 2
        # the count is not a CSV column, and NaN and +inf rank alike
        assert first_csv == again_csv == swapped_csv


@pytest.mark.parametrize("optimizer", ["cma", "ga"])
def test_minus_inf_is_never_the_incumbent(monkeypatch, optimizer):
    # The four true evaluations of generation 0 return -inf, which ranks
    # last: every optimizer reports (inf, -inf) for that generation, then
    # the lowest finite value evaluated so far, never -inf again.
    original = harness.sphere
    values = []

    def minus_inf_first(x, center):
        values.append(-math.inf if len(values) < 4 else original(x, center))
        return values[-1]

    monkeypatch.setattr(harness, "sphere", minus_inf_first)
    config = sphere_config(optimizer=optimizer, population_size=4,
                           max_generations=6,
                           problem={"kind": "sphere", "dimension": 2})
    record = run_single(config, 1)
    assert len(record.rows) == 6
    assert record.nonfinite_evaluations == 4
    first = record.rows[0]
    assert (first.best_objective, first.best_raw_objective) == (math.inf,
                                                                -math.inf)
    for row in record.rows[1:]:
        best = min(values[4:row.true_evaluations])
        assert row.best_objective == row.best_raw_objective == best


@pytest.mark.parametrize("optimizer", ["cma", "cma+surrogate", "ga"])
def test_one_row_built_as_each_generation_ends(monkeypatch, optimizer):
    # A row is built once per generation, after its last true evaluation;
    # the GA ranks each generation once, and its row reads that ranking.
    original, row_type = harness.sphere, harness.RunRow
    evaluations, rows, rankings = [], [], []

    def counted(x, center):
        evaluations.append(None)
        return original(x, center)

    def row(**fields):
        rows.append((fields["true_evaluations"], len(evaluations)))
        return row_type(**fields)

    monkeypatch.setattr(harness, "sphere", counted)
    monkeypatch.setattr(harness, "RunRow", row)
    for module in (harness, ga):
        def ranked(values, _rank=module.rank_population):
            rankings.append(None)
            return _rank(values)
        monkeypatch.setattr(module, "rank_population", ranked)
    config = sphere_config(optimizer=optimizer, max_generations=15)
    problem = build_problem(config)
    record = (run_ga(problem, config, 1) if optimizer == "ga" else
              run_cma(problem, config, 1, optimizer == "cma+surrogate"))
    assert len(rows) == len(record.rows) == 15
    assert all(reported == made for reported, made in rows)
    if optimizer == "cma+surrogate":   # the surrogate ranked some
        assert record.final.true_evaluations < 8 * 15
    if optimizer == "ga":
        assert len(rankings) == 15


def test_gammas_wait_for_a_finite_objective_spread(monkeypatch):
    # Every objective of generation 0 is NaN and the mean is infeasible,
    # so generation 1 has no objective spread to set gamma from: gamma
    # stays 0 there and is set in generation 2.
    original = harness.sphere
    calls = []

    def nan_first(x, center):
        calls.append(None)
        return float("nan") if len(calls) <= 8 else original(x, center)

    monkeypatch.setattr(harness, "sphere", nan_first)
    config = sphere_config(
        problem={"kind": "sphere", "dimension": 2}, population_size=8,
        max_generations=5, rejection_fraction=50.0,
        constraints=[{"indices": [0, 1], "lower": 8.0, "upper": 9.0}])
    record = run_single(config, 1)
    assert len(record.rows) == 5
    assert record.nonfinite_evaluations == 8
    assert [row.gammas[0] > 0 for row in record.rows[:3]] == [False, False,
                                                               True]


def test_gammas_set_once_the_run_leaves_a_plateau(monkeypatch):
    # The objective is flat (5.0) for x0 > 1, where this run starts with
    # an infeasible mean: generation 1 sees a zero objective spread, which
    # gives gamma no scale. Gamma waits for a nonzero spread instead of
    # freezing at 0, and the penalty engages once draws leave the plateau.
    original = harness.sphere
    monkeypatch.setattr(harness, "sphere", lambda x, center: (
        5.0 if x[0] > 1.0 else original(x, center)))
    config = sphere_config(
        problem={"kind": "sphere", "dimension": 2}, population_size=8,
        max_generations=80, sigma0=1.0,
        constraints=[{"indices": [0, 1], "lower": -10.0, "upper": -3.0}])
    record = run_single(config, 10)
    assert record.rows[0].best_genome[0] > 1.0
    assert record.rows[1].gammas[0] == 0.0
    assert record.final.gammas[0] > 0.0


def test_a_stagnation_stop_waits_for_the_weights_to_settle():
    # The shipped constrained sphere at the benchmark's 32 seeds: without
    # the gate, the best-so-far test alone would stop every run by
    # generation 64, while its weights still grow. A run may stop on
    # `stagnation` only more than STAGNATION_WINDOW generations after a
    # weight last changed.
    config = RunConfig.load(Path(__file__).resolve().parents[1] / "configs"
                            / "constrained_sphere.json")
    stagnated = 0
    for seed in range(1000, 1032):
        record = run_single(config, seed)
        if record.termination_reason != "stagnation":
            continue
        stagnated += 1
        last_change = max((row.generation for before, row
                           in zip(record.rows, record.rows[1:])
                           if row.gammas != before.gammas), default=0)
        assert len(record.rows) - last_change > STAGNATION_WINDOW
    assert stagnated


class TestRunSingle:
    def test_best_so_far_non_increasing_and_csv_written(self, tmp_path):
        record = run_single(sphere_config(), 1, tmp_path)
        best = record.best_so_far()
        assert np.all(np.diff(best) <= 0)
        assert (tmp_path / "run_1.csv").exists()

    def test_byte_identical_rerun(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_single(sphere_config(), 1, a_dir)
        run_single(sphere_config(), 1, b_dir)
        assert (a_dir / "run_1.csv").read_bytes() == \
            (b_dir / "run_1.csv").read_bytes()

    def test_csv_header_schema(self, tmp_path):
        config = sphere_config(constraints=[
            {"indices": [0, 1], "lower": -100.0, "upper": 100.0}])
        run_single(config, 1, tmp_path)
        header = (tmp_path / "run_1.csv").read_text().splitlines()[0]
        assert header == ("schema_version,generation,true_evaluations,"
                          "best_objective,best_raw_objective,resampled,n_ic,"
                          "gamma_0,genome_0,genome_1,genome_2,genome_3,"
                          "genome_4")

    def test_true_evaluation_count_matches_lambda_times_generations(self):
        record = run_single(sphere_config(), 2)
        assert record.final.true_evaluations == 8 * len(record.rows)

    def test_surrogate_uses_fewer_evaluations(self):
        config = sphere_config(optimizer="cma+surrogate", max_generations=60)
        surrogate = run_single(config, 3)
        plain = run_single(sphere_config(max_generations=60), 3)
        gens = min(len(surrogate.rows), len(plain.rows))
        assert surrogate.rows[gens - 1].true_evaluations < \
            plain.rows[gens - 1].true_evaluations
        assert surrogate.rows[gens - 1].true_evaluations < 8 * gens

    def test_ga_runs_and_respects_elitism(self, tmp_path):
        config = sphere_config(optimizer="ga", max_generations=30)
        record = run_single(config, 1, tmp_path)
        assert record.optimizer == "ga"
        assert len(record.rows) == 30
        assert np.all(np.diff(record.best_so_far()) <= 0)

    def test_inactive_constraints_leave_trajectory_bit_identical(self):
        # a constraint the sampler never violates must not perturb the
        # RNG stream or the updates
        plain = run_single(sphere_config(), 4)
        guarded = run_single(sphere_config(constraints=[
            {"indices": [0], "lower": -1e9, "upper": 1e9}]), 4)
        assert len(plain.rows) == len(guarded.rows)
        assert np.array_equal(plain.final_mean, guarded.final_mean)
        assert np.array_equal(plain.final.best_genome,
                              guarded.final.best_genome)
        assert plain.final.best_objective == guarded.final.best_objective
        assert all(r.resampled == 0 for r in guarded.rows)

    def test_requires_optimizer(self):
        config = sphere_config()
        config.optimizer = None
        with pytest.raises(ValueError, match="optimizer"):
            run_single(config, 1)

    def test_ill_conditioned_start_raises_and_writes_nothing(self, tmp_path):
        # The third coordinate's range is 1e-7 of the others, so the
        # initial covariance is already above the condition cap.
        problem = {"kind": "sphere", "dimension": 3,
                   "bounds": [[-1, 1], [-1, 1], [0, 1e-7]]}
        for optimizer in ("cma", "cma+surrogate"):
            config = sphere_config(problem=problem, optimizer=optimizer)
            with pytest.raises(ValueError, match="ill-conditioned"):
                run_single(config, 1, tmp_path)
            assert not (tmp_path / "run_1.csv").exists()
        record = run_single(sphere_config(problem=problem, optimizer="ga"),
                            1, tmp_path)
        assert len(record.rows) == 40
        assert (tmp_path / "run_1.csv").exists()

    def test_true_evaluations_strictly_increasing(self):
        for optimizer in ("cma", "cma+surrogate"):
            record = run_single(sphere_config(optimizer=optimizer,
                                              max_generations=50), 6)
            evals = record.true_evaluations()
            assert np.all(np.diff(evals) > 0)

    def test_surrogate_run_dumps_archive(self, tmp_path):
        config = sphere_config(optimizer="cma+surrogate", max_generations=30)
        record = run_single(config, 1, tmp_path)
        dumped = tmp_path / "archive_1.csv"
        assert dumped.read_text() == archive_csv(record.archive)
        loaded = load_archive_csv(dumped)
        assert len(loaded) == record.final.true_evaluations
        assert len(record.archive) == record.final.true_evaluations

    def test_surrogate_incumbent_is_the_best_true_evaluation(self):
        # Most candidates of a surrogate generation are ranked by their
        # predictions; the reported best is still the lowest value among
        # the true evaluations so far (the archive, in evaluation order).
        config = sphere_config(optimizer="cma+surrogate", max_generations=12,
                               problem={"kind": "sphere", "dimension": 2})
        record = run_single(config, 1)
        assert any(0 < row.n_ic < 7 for row in record.rows)
        genomes, values = record.archive.as_arrays()
        for row in record.rows:
            best = int(np.argmin(values[:row.true_evaluations]))
            assert row.best_objective == values[best]
            assert np.array_equal(row.best_genome, genomes[best])

    def test_gammas_non_decreasing_over_constrained_run(self):
        config = sphere_config(
            problem={"kind": "sphere", "dimension": 3, "center": 2.0},
            population_size=10, max_generations=120,
            constraints=[{"indices": [0, 1, 2],
                          "lower": -1.0, "upper": 1.0}])
        record = run_single(config, 1)
        gammas = np.array([row.gammas for row in record.rows])
        assert np.all(np.diff(gammas, axis=0) >= 0)
        assert gammas[-1, 0] > 0   # the run actually engaged the penalty


class TestRejectionExhaustions:
    def test_counted_for_a_far_feasible_interval(self):
        record = run_single(sphere_config(**FAR_INTERVAL), 1)
        # every candidate of every generation is kept at the cap
        assert record.rejection_exhaustions == 4 * len(record.rows)
        assert all(row.resampled == 4 * MAX_RESAMPLES for row in record.rows)

    def test_none_in_a_normal_constrained_run(self):
        config = sphere_config(
            problem={"kind": "sphere", "dimension": 5, "center": 2.0},
            population_size=20, max_generations=60,
            constraints=[{"indices": [0, 1, 2, 3, 4],
                          "lower": -1.0, "upper": 1.0}])
        record = run_single(config, 1)
        assert sum(row.resampled for row in record.rows) > 0
        assert record.rejection_exhaustions == 0
        assert run_single(sphere_config(), 1).rejection_exhaustions == 0


@pytest.mark.parametrize("optimizer", ["cma", "cma+surrogate"])
def test_one_eigendecomposition_per_covariance(monkeypatch, optimizer):
    # one floored eigh of the stored C (shared by termination, sampling
    # and the update) plus one of the updated C, per generation
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    config = sphere_config(optimizer=optimizer, max_generations=30,
                           constraints=[{"indices": [0, 1], "lower": -1.0,
                                         "upper": 1.0}])
    record = run_cma(build_problem(config), config, 1,
                     use_surrogate=optimizer == "cma+surrogate")
    assert record.termination_reason == "max_generations"
    assert len(calls) == 2 * len(record.rows)


class TestAtomicWrite:
    def test_replaces_target_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        harness._atomic_write(path, "new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_mode_matches_plain_open(self, tmp_path):
        reference = tmp_path / "reference.csv"
        reference.write_text("")
        path = tmp_path / "out.csv"
        harness._atomic_write(path, "new\n")
        assert path.stat().st_mode == reference.stat().st_mode

    def test_fixed_tmp_name_is_not_used(self, tmp_path):
        # a stale or foreign "<path>.tmp" is neither reused nor clobbered
        path = tmp_path / "out.csv"
        stale = tmp_path / "out.csv.tmp"
        stale.write_text("someone else's\n")
        harness._atomic_write(path, "new\n")
        assert stale.read_text() == "someone else's\n"
        assert path.read_text() == "new\n"

    def test_failed_write_removes_temporary_and_keeps_target(
            self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(harness.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            harness._atomic_write(path, "new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestRunBatch:
    def test_identical_seeds_zero_std(self, tmp_path, monkeypatch):
        # a config cannot repeat a seed, so both runs are made from seed 5
        run_single = harness.run_single
        monkeypatch.setattr(harness, "run_single", lambda config, seed, out:
                            run_single(config, 5, out))
        config = sphere_config(seeds=[5, 6])
        run_batch(config, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == ("schema_version,generation,mean_true_evaluations,"
                            "mean_best_objective,std_best_objective")
        stds = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(s == 0.0 for s in stds)

    def test_unreached_target_reported(self, tmp_path):
        config = sphere_config(targets=[-1.0])
        run_batch(config, tmp_path)
        rows = (tmp_path / "targets.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].endswith("not reached")
        assert ",0,2," in rows[0]

    def test_default_targets_are_pooled_quantiles(self, tmp_path):
        config = sphere_config()
        records = run_batch(config, tmp_path)
        pooled = np.concatenate([r.best_so_far() for r in records])
        assert self.targets(tmp_path) == sorted(set(
            float(q) for q in np.quantile(pooled, np.arange(1, 11) / 11.0)),
            reverse=True)

    TARGETS_HEADER = ("schema_version,target_objective,runs_reached,"
                      "total_runs,mean_evaluations_to_target\n")

    @staticmethod
    def targets(out_dir) -> list[float]:
        """The target column of a batch's `targets.csv`."""
        rows = (out_dir / "targets.csv").read_text().splitlines()[1:]
        return [float(row.split(",")[1]) for row in rows]

    @staticmethod
    def run_lines(out_dir) -> list[str]:
        return (out_dir / "summary.txt").read_text().splitlines()

    def assert_std_nan_by_rule(self, tmp_path, generations):
        """A column or final with an inf value has std nan, and says so
        without a numpy warning (the batch runs with warnings as errors)."""
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3:] for row in rows] == [["inf", "nan"]] * (
            generations)
        assert ", std nan\n" in (tmp_path / "summary.txt").read_text()

    def test_no_targets_without_a_finite_value(self, tmp_path):
        # every sample of sigma0 = 1e200 overflows the sphere to inf
        config = sphere_config(problem={"kind": "sphere", "dimension": 3},
                               sigma0=1e200, max_generations=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_batch(config, tmp_path)
            assert all(math.isnan(harness.improvement_pct(r))
                       for r in records)
        assert all(math.isinf(row.best_objective)
                   for record in records for row in record.rows)
        assert self.targets(tmp_path) == []
        assert (tmp_path / "targets.csv").read_text() == self.TARGETS_HEADER
        self.assert_std_nan_by_rule(tmp_path, 5)

    def test_an_all_inf_run_adds_no_target(self, monkeypatch, tmp_path):
        """Seed 2's objective is inf everywhere: the targets are those of
        seed 1 alone, and every one is finite."""
        original_sphere, original_run = harness.sphere, harness.run_single
        seed = []

        def run_single(config, run_seed, out_dir):
            seed[:] = [run_seed]
            return original_run(config, run_seed, out_dir)

        monkeypatch.setattr(harness, "run_single", run_single)
        monkeypatch.setattr(harness, "sphere", lambda x, center: (
            math.inf if seed == [2] else original_sphere(x, center)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_batch(sphere_config(max_generations=5), tmp_path)
        assert all(math.isinf(row.best_objective)
                   for row in records[1].rows)
        self.assert_std_nan_by_rule(tmp_path, 5)
        targets = self.targets(tmp_path)
        assert targets
        assert all(map(math.isfinite, targets))
        assert targets == harness.default_targets(records[:1])
        rows = (tmp_path / "targets.csv").read_text().splitlines()[1:]
        assert len(rows) == len(targets)
        assert not any("nan" in row for row in rows)

    def test_evaluations_to_target(self):
        config = sphere_config()
        record = run_batch(config)[0]
        target = record.rows[10].best_objective
        evals = evaluations_to_target(record, target)
        assert evals is not None
        assert evals <= record.rows[10].true_evaluations

    def test_summary_reports_repairs_and_failures(self, monkeypatch,
                                                  tmp_path):
        import wellopt.wells.problem as problem_module

        original = problem_module.simulate
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise FloatingPointError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(problem_module, "simulate", fails_once)
        config = RunConfig.from_dict({
            "problem": {"kind": "well_placement"}, "optimizer": "cma",
            "population_size": 8, "max_generations": 3, "seeds": [1, 2]})
        records = run_batch(config, tmp_path)
        assert [r.simulation_failures for r in records] == [1, 0]
        assert [r.covariance_repairs for r in records] == [0, 0]
        lines = self.run_lines(tmp_path)
        seed_1 = next(line for line in lines if "seed 1:" in line)
        seed_2 = next(line for line in lines if "seed 2:" in line)
        assert seed_1.endswith("(max_generations), simulation_failures 1")
        assert seed_2.endswith("(max_generations)")

    @pytest.mark.parametrize("optimizer", ["cma", "ga"])
    def test_each_run_counts_its_own_simulation_failures(self, monkeypatch,
                                                         optimizer):
        """Two runs of one seed on one problem whose proxy fails on one
        genome, the first it simulates: each record counts that failure
        once, as its run returns it."""
        import wellopt.wells.problem as problem_module

        original = problem_module.simulate
        failing, raised = [], []

        def fails_on_one_genome(wells, *args):
            genome = b"".join(np.array(g.mainbore).tobytes()
                              for g, _ in wells)
            failing[:] = failing or [genome]
            if genome == failing[0]:
                raised.append(genome)
                raise ValueError("forced")
            return original(wells, *args)

        monkeypatch.setattr(problem_module, "simulate", fails_on_one_genome)
        config = RunConfig.from_dict({
            "problem": {"kind": "well_placement"}, "optimizer": optimizer,
            "population_size": 8, "max_generations": 3})
        problem = build_problem(config)
        records = [run_ga(problem, config, 1) if optimizer == "ga"
                   else run_cma(problem, config, 1, use_surrogate=False)
                   for _ in range(2)]
        assert len(raised) == 2
        assert [r.simulation_failures for r in records] == [1, 1]

    def test_summary_reports_rejection_exhaustions(self, tmp_path):
        run_batch(sphere_config(**FAR_INTERVAL), tmp_path)
        lines = self.run_lines(tmp_path)
        for seed in (1, 2):
            line = next(line for line in lines if f"seed {seed}:" in line)
            assert line.endswith("(max_generations), rejection_exhaustions 12")

    def test_summary_reports_nonfinite_evaluations(self, monkeypatch,
                                                   tmp_path):
        original = harness.sphere
        calls = []

        def nan_every_fifth(x, center):
            calls.append(None)
            if len(calls) % 5 == 0:
                return float("nan")
            return original(x, center)

        monkeypatch.setattr(harness, "sphere", nan_every_fifth)
        records = run_batch(sphere_config(max_generations=4), tmp_path)
        assert [r.nonfinite_evaluations for r in records] == [6, 6]
        lines = self.run_lines(tmp_path)
        for seed in (1, 2):
            line = next(line for line in lines if f"seed {seed}:" in line)
            assert line.endswith("(max_generations), nonfinite_evaluations 6")

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            run_batch(sphere_config(seeds=[1]))


class TestCompare:
    def test_same_optimizer_statistically_indistinguishable(self):
        config = sphere_config(optimizers=["cma", "cma"])
        batches = compare_optimizers(config)
        assert set(batches) == {"cma", "cma#2"}
        finals_a = [r.final.best_objective for r in batches["cma"]]
        finals_b = [r.final.best_objective for r in batches["cma#2"]]
        assert finals_a == finals_b
        assert np.median(finals_a) == np.median(finals_b)

    def test_compare_outputs_and_genomes(self, tmp_path):
        config = sphere_config(optimizers=["cma", "ga"], max_generations=20)
        batches = compare_optimizers(config, tmp_path)
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "cma" / "run_1.csv").exists()
        assert (tmp_path / "ga" / "summary.csv").exists()
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[0].endswith(",genome_4")
        assert len(lines) == 1 + 2 * len(config.seeds)
        for name in ("cma", "ga"):
            records = batches[name]
            finals = [r.final.best_objective for r in records]
            assert np.median(finals) <= records[0].rows[0].best_objective

    def test_surrogate_checked_before_any_run(self):
        with pytest.raises(ValueError, match="surrogate.k=3 too small"):
            sphere_config(problem={"kind": "sphere", "dimension": 2},
                          optimizers=["ga", "cma+surrogate"],
                          surrogate={"k": 3, "min_archive_size": 10})

    def test_bad_well_section_fails_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_cma", never)
        monkeypatch.setattr(harness, "run_ga", never)
        with pytest.raises(ValueError, match="branchs"):
            compare_optimizers(RunConfig.from_dict({
                "problem": {"kind": "well_placement",
                            "wells": [{"role": "injector"},
                                      {"role": "producer", "branchs": 1}]},
                "optimizers": ["cma", "ga"], "seeds": [1, 2]}))

    def test_requires_optimizer_pair(self):
        with pytest.raises(ValueError, match="optimizers"):
            compare_optimizers(sphere_config())

    def test_batch_builds_one_problem_per_run(self, monkeypatch):
        built = []
        original = harness.build_problem
        monkeypatch.setattr(harness, "build_problem",
                            lambda config: built.append(1) or original(config))
        config = sphere_config(optimizer="cma+surrogate", max_generations=3,
                               surrogate={"k": 21, "min_archive_size": 21})
        assert len(run_batch(config)) == len(built) == 2


class TestBuildProblem:
    def test_sphere_with_center(self):
        config = RunConfig.from_dict({
            "problem": {"kind": "sphere", "dimension": 3, "center": 2.0}})
        problem = build_problem(config)
        assert problem.raw_objective(np.full(3, 2.0)) == 0.0

    def test_bounds_pair_broadcast(self):
        config = RunConfig.from_dict({
            "problem": {"kind": "sphere", "dimension": 3,
                        "bounds": [-1.0, 4.0]}})
        problem = build_problem(config)
        assert problem.bounds.shape == (3, 2)
        assert np.all(problem.bounds[:, 0] == -1.0)

    def test_copy_rebuilds_its_problem_arguments(self):
        config = RunConfig.from_dict({"problem": {"kind": "well_placement"}})
        longer = dataclasses.replace(config, problem={
            "kind": "well_placement",
            "wells": [{"role": "injector"},
                      {"role": "producer", "deviations": 2}]})
        assert build_problem(longer).dim == build_problem(config).dim + 3
        with pytest.raises(ValueError, match="problem.tilt_range"):
            dataclasses.replace(config, problem={"kind": "well_placement",
                                                 "tilt_range": 2.0})

    @pytest.mark.parametrize("problem, key", [
        ({"kind": "sphere", "dimension": 2, "bounds": [[0, 1]]},
         "problem.bounds"),
        ({"kind": "sphere", "dimension": 2, "bounds": [1, 0]},
         "problem.bounds"),
        ({"kind": "rosenbrock", "dimension": 2,
          "bounds": [[0, 1], [0, float("inf")]]}, "problem.bounds"),
        ({"kind": "well_placement", "min_step_m": 0}, "problem.min_step_m"),
        ({"kind": "well_placement", "economics": {"max_well_length_m": 1}},
         "max_well_length_m"),
        ({"kind": "well_placement",
          "economics": {"max_well_length_m": float("inf")}},
         "max_well_length_m"),
        ({"kind": "well_placement", "tilt_range": 0}, "problem.tilt_range"),
        ({"kind": "well_placement",
          "proxy": {"gas_oil_ratio": float("inf")}}, "proxy.gas_oil_ratio"),
        ({"kind": "well_placement", "economics": {"oil_price": float("inf")}},
         "economics.oil_price"),
        ({"kind": "well_placement",
          "economics": {"wellbore_diameter_m": float("nan")}},
         "economics.wellbore_diameter_m"),
        ({"kind": "well_placement",
          "economics": {"annual_discount_rate": float("nan")}},
         "economics.annual_discount_rate"),
        ({"kind": "well_placement",
          "proxy": {"water_cut_steepness": float("inf")}},
         "proxy.water_cut_steepness"),
        ({"kind": "well_placement",
          "proxy": {"drainage_radius_m": float("-inf")}},
         "proxy.drainage_radius_m"),
    ])
    def test_problem_numbers_checked_at_load(self, problem, key):
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict({"problem": problem})

    def test_well_problem_has_constraints_and_npv_flag(self):
        config = RunConfig.from_dict({"problem": {"kind": "well_placement"}})
        problem = build_problem(config)
        assert problem.dim == 12
        assert len(problem.constraints) == 8
        assert problem.well_problem is not None

    def test_custom_well_layout(self):
        config = RunConfig.from_dict({"problem": {
            "kind": "well_placement",
            "wells": [{"role": "injector"},
                      {"role": "producer", "deviations": 2, "branches": 1}]}})
        problem = build_problem(config)
        assert problem.dim == 6 + (3 * 3 + 4)
