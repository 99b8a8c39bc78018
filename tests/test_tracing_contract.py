"""The benchmark's span tracing (perfbench/tracing.py) wraps the names in
its `WRAPPED_CALLS` where the caller looks them up. A renamed or dropped
name makes a traced benchmark run raise, so each one must stay a callable
attribute of its module. The per-layer counts it reports (fits and
neighbour scans per generation) rest on how often those names are
reached, and tracing must leave the run CSVs byte for byte as they are."""

import dataclasses
import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import wellopt.harness as harness
import wellopt.metamodel as mm
from wellopt.cma import SearchDistribution, default_strategy_params
from wellopt.harness import Evaluator, RunConfig, run_single

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_calls():
    return [(module_name, name)
            for module_name, names in load_tracing().WRAPPED_CALLS.items()
            for name in names]


@pytest.mark.parametrize("module_name,name", wrapped_calls())
def test_wrapped_name_is_a_callable_attribute(module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name)
    assert callable(getattr(module, name))


def test_surrogate_generation_scans_once_per_candidate_and_fits_stale_sets(
        monkeypatch):
    # One ranking step reaches `select_neighbors` at most once per candidate
    # and `fit_local_model` exactly when a candidate's k-NN set (a fresh
    # scan of the current archive) differs from the one of its last
    # prediction, both through the `wellopt.metamodel` names.
    n, lam = 3, 24
    rng = np.random.default_rng(15)
    fn = lambda z: float(np.sum(np.sin(3.0 * z)) + z @ z)
    settings = mm.default_surrogate_settings(n)
    archive = mm.TrainingArchive(n)
    for z in rng.uniform(-2, 2, (300, n)):
        archive.add(z.tobytes(), fn(z))
    genomes = np.array([rng.uniform(-1, 1, n) for _ in range(lam)])
    dist = SearchDistribution(mean=np.zeros(n), step_size=1.0,
                              covariance=np.eye(n), path_sigma=np.zeros(n),
                              path_c=np.zeros(n))
    metric = mm.MahalanobisMetric(dist.covariance)
    select, fit = mm.select_neighbors, mm.fit_local_model

    def current_set(genome):
        return b"".join(a.tobytes() for a in select(archive, genome, metric,
                                                    settings.k))

    scans, fits, passes = [], [], []
    fitted, evaluated = {}, set()
    evaluator = Evaluator(fn, archive)
    rank = mm.rank_population

    def counted_select(archive_, q, metric_, k):
        scans.append(q.tobytes())
        return select(archive_, q, metric_, k)

    def counted_fit(genomes, objectives, distances, q):
        fits.append(q.tobytes())
        fitted[q.tobytes()] = b"".join(a.tobytes() for a in
                                       (genomes, objectives, distances))
        return fit(genomes, objectives, distances, q)

    def true_eval(genome):
        evaluated.add(genome.tobytes())
        return evaluator(genome)

    def counted_rank(values):
        # Each prediction pass ends in a ranking: note the current k-NN set
        # of every candidate it predicted, and the set each was fitted on.
        passes.append([(key, current_set(genome), fitted.get(key))
                       for genome in genomes
                       if (key := genome.tobytes()) not in evaluated])
        return rank(values)

    monkeypatch.setattr(mm, "select_neighbors", counted_select)
    monkeypatch.setattr(mm, "fit_local_model", counted_fit)
    monkeypatch.setattr(mm, "rank_population", counted_rank)
    _, _, _, _, evaluated_flags = mm.approximate_ranking_step(
        genomes, archive, dist, default_strategy_params(n, lam, 100),
        settings, true_eval, [0.0] * lam)
    # The last ranking orders the returned lists after the cycle loop and
    # follows no prediction pass.
    predictions, stale, predicted = [], [], {}
    for ranked in passes[:-1]:
        for key, now, fitted_on in ranked:
            predictions.append(key)
            assert fitted_on == now
            if predicted.get(key) != now:
                stale.append(key)
            predicted[key] = now
    assert sum(evaluated_flags) >= 3
    assert len(scans) == len(set(scans)) <= lam
    assert lam < len(fits) < len(predictions)
    assert fits == stale

def test_installed_tracing_keeps_csv_bytes_and_records_every_layer(
        tmp_path):
    # A constrained CMA run, a surrogate run that gets past
    # min_archive_size (24 points for n = 2: from generation 3 on) and a
    # GA run, each untraced and then under install_tracing and the
    # generation clock.
    sphere = {"kind": "sphere", "dimension": 2, "center": 2.0}
    constraint = [{"indices": [0, 1], "lower": -1.0, "upper": 1.0}]
    configs = {
        "cma": {"optimizer": "cma", "constraints": constraint},
        "surrogate": {"optimizer": "cma+surrogate"},
        "ga": {"optimizer": "ga", "constraints": constraint},
    }

    def run_all(kind):
        csvs, rows = {}, 0
        for name, overrides in configs.items():
            config = RunConfig.from_dict({
                "problem": sphere, "population_size": 8,
                "max_generations": 6, **overrides})
            out_dir = tmp_path / kind / name
            rows += len(run_single(config, 1, out_dir).rows)
            csvs[name] = (out_dir / "run_1.csv").read_bytes()
        return csvs, rows

    plain, rows = run_all("plain")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    clock = tracing.GenerationClock(lambda: 0.0, 0.0)
    with tracing.Patcher() as patcher:
        tracing.install_tracing(patcher, tracer)
        clock.install(patcher)
        clock.start()
        traced, traced_rows = run_all("traced")
    assert traced == plain
    assert traced_rows == rows == len(clock.gen_s)
    table = tracing.SpanTable(tracer)
    for span in ("cma.rank_population", "cma.update_mean",
                 "cma.check_termination", "cma.sampling_transform",
                 "cma.update_strategy_state", "cma.eigh",
                 "metamodel.approximate_ranking_step",
                 "constraints.record_generation", "ga.step"):
        assert table.count(span) > 0, span
    assert tracer.counts["harness.memo_requests"] > 0


def test_traced_well_run_keeps_csv_bytes_and_times_every_proxy_layer(
        tmp_path):
    # A short well-placement CMA run, untraced and then under
    # install_tracing: the CSV bytes stay the same, and each proxy span the
    # benchmark's per-layer `wells.*_us` metrics read is reached.
    config = dataclasses.replace(
        RunConfig.load(ROOT / "configs" / "well_cma_vs_ga.json"),
        optimizer="cma", population_size=8, max_generations=3)
    run_single(config, 1, tmp_path / "plain")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.Patcher() as patcher:
        tracing.install_tracing(patcher, tracer)
        run_single(config, 1, tmp_path / "traced")
    assert ((tmp_path / "traced" / "run_1.csv").read_bytes()
            == (tmp_path / "plain" / "run_1.csv").read_bytes())
    table = tracing.SpanTable(tracer)
    for span in ("wells.productivity_index", "wells.drainable_oil_barrels",
                 "wells.simulate", "wells.npv", "wells.decode_well",
                 "wells.check_geometry"):
        assert table.count(span) > 0, span


def test_layer_metrics_gives_every_declared_name_of_traced_runs():
    # `layer_metrics` reads a run record's `covariance_repairs`, `archive`,
    # `rows` and each row's `n_ic`. A constrained CMA run, a surrogate run
    # past min_archive_size (24 points for n = 2: from generation 3 on), a
    # GA run and a short well-placement CMA run, each traced as the
    # benchmark traces it: every per-layer name BENCHMARK.json declares
    # comes out finite, but the three the benchmark script adds itself.
    declared = {metric["name"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    declared -= {"metamodel.break_even_ms", "trace.overhead_ratio",
                 "trace.self_coverage"}
    sphere = {"kind": "sphere", "dimension": 2, "center": 2.0}
    constraint = [{"indices": [0, 1], "lower": -1.0, "upper": 1.0}]
    configs = [RunConfig.from_dict({
        "problem": sphere, "population_size": 8, "max_generations": 6,
        **overrides}) for overrides in (
            {"optimizer": "cma", "constraints": constraint},
            {"optimizer": "cma+surrogate"},
            {"optimizer": "ga", "constraints": constraint})]
    configs.append(dataclasses.replace(
        RunConfig.load(ROOT / "configs" / "well_cma_vs_ga.json"),
        optimizer="cma", population_size=8, max_generations=3))
    tracing = load_tracing()

    def run_once(problem, config):
        if config.optimizer == "ga":
            return harness.run_ga(problem, config, 1)
        return harness.run_cma(problem, config, 1,
                               config.optimizer == "cma+surrogate")

    for config in configs:
        problem = harness.build_problem(config)
        tracer = tracing.Tracer()
        traced_problem = dataclasses.replace(
            problem, raw_objective=tracer.wrap(
                tracing.objective_span(problem.well_problem is not None),
                problem.raw_objective))
        with tracing.Patcher() as patcher:
            tracing.install_tracing(patcher, tracer)
            record = tracer.wrap(tracing.RUN_SPAN, run_once)(traced_problem,
                                                             config)
        metrics = tracing.layer_metrics(
            tracing.SpanTable(tracer), tracer.counts, problem, config,
            config.optimizer, [record], 1.0, record.simulation_failures)
        assert declared <= set(metrics), declared - set(metrics)
        assert all(math.isfinite(metrics[name][0]) for name in declared), {
            name: metrics[name][0] for name in declared}
        if config.optimizer == "cma+surrogate":
            assert metrics["metamodel.fits_per_gen"][0] > 0
            assert metrics["metamodel.archive_size"][0] > 0
        if problem.well_problem is not None:
            assert metrics["wells.eval_us_p50"][0] > 0


def test_penalty_amount_is_reached_once_per_candidate_and_returns_floats():
    # The tracer wraps `wellopt.harness.penalty_amount` and counts the calls
    # whose result is > 0: the run loop must call that scalar function once
    # per candidate and generation, prediction passes included, and get a
    # float back.
    # The optimum lies far outside the interval, and the wide rejection
    # tolerance keeps infeasible draws, so the penalty engages.
    config = RunConfig.from_dict({
        "problem": {"kind": "sphere", "dimension": 2},
        "optimizer": "cma+surrogate", "population_size": 8,
        "max_generations": 8, "rejection_fraction": 50.0,
        "constraints": [{"indices": [0, 1], "lower": 8.0, "upper": 9.0}]})
    tracing = load_tracing()
    tracer = tracing.Tracer()
    results = []
    with tracing.Patcher() as patcher:
        tracing.install_tracing(patcher, tracer)
        traced = harness.penalty_amount

        def recorded(*args):
            results.append(traced(*args))
            return results[-1]

        patcher.set(harness, "penalty_amount", recorded)
        record = run_single(config, 1)
    table = tracing.SpanTable(tracer)
    assert table.count("metamodel.approximate_ranking_step") > 0
    lam = config.population_size
    assert table.count("constraints.penalty_amount") == lam * len(record.rows)
    assert len(results) == lam * len(record.rows)
    assert all(type(result) is float for result in results)
    assert tracer.counts["constraints.penalty_amount.positive"] > 0


def test_constrained_cma_generation_reaches_each_hook_point_at_its_rate(
        monkeypatch):
    # The benchmark's per-layer figures count these calls: two
    # eigendecompositions per generation (`cma.eigh_per_gen` 2.0), one
    # penalty amount per candidate, one sampler call per draw round and
    # one `RunRow` per generation, each through the name it wraps.
    config = RunConfig.load(ROOT / "configs" / "constrained_sphere.json")
    config = dataclasses.replace(config, max_generations=40)
    calls = {"eigh": 0, "penalty_amount": 0, "sample_individual": 0,
             "RunRow": 0, "draw": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(np.linalg, "eigh")
    for name in ("penalty_amount", "sample_individual", "RunRow"):
        counted(harness, name)
    sample_with_rejection = harness.sample_with_rejection

    def counted_rounds(draw, *args):
        def counted_draw(count):
            calls["draw"] += 1
            return draw(count)

        return sample_with_rejection(counted_draw, *args)

    monkeypatch.setattr(harness, "sample_with_rejection", counted_rounds)
    record = run_single(config, 1)
    generations = len(record.rows)
    assert record.termination_reason == "max_generations"
    assert generations == 40
    assert calls["eigh"] == 2 * generations
    assert calls["penalty_amount"] == config.population_size * generations
    assert calls["sample_individual"] == calls["draw"] > generations
    assert calls["RunRow"] == generations
