"""Run orchestration: seeded runs, statistics, CSV outputs.

A run couples one problem (benchmark function or well placement) with
one optimizer (cma, cma+surrogate, ga) and one seed, and logs one row
per generation. A batch repeats runs over seeds and is the list of their
records; a comparison runs two optimizers on matched seeds and maps each
label to its batch. Their report files (per-generation means and standard
deviations, an evaluations-to-target table, the text summaries) are
written from those records, each by one function.

All randomness of a run flows from a single seeded generator in a fixed
draw order (initial mean or population first, then per-generation
sampling), so identical configs and seeds give byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .benchmarks import rosenbrock, sphere
from .cma import (STAGNATION_WINDOW, SearchDistribution, check_termination,
                  default_strategy_params, rank_population,
                  sample_individual, sampling_transform, update_mean,
                  update_strategy_state)
from .config import RunConfig
from .constraints import (PenaltyState, SumConstraint, maybe_increase_gammas,
                          maybe_set_gammas, penalized, penalty_amount,
                          row_means, sample_with_rejection, xi_factors)
# The run loop reads constraint sums from sampling; the name stays in this
# namespace, where the benchmark's tracing looks the layer's calls up.
from .constraints import constraint_violation  # noqa: F401
from .ga import GaOptimizer, GaParams
from .metamodel import (TrainingArchive, approximate_ranking_step,
                        default_surrogate_settings)
from .wells.grid import ReservoirGrid
from .wells.problem import WellPlacementProblem

SCHEMA_VERSION = 1
BUNDLED_GRID_SEED = 7


def fmt(value) -> str:
    """Shortest exact decimal form of a float, for stable CSV output."""
    return repr(float(value))


class Evaluator:
    """Counting wrapper around the true objective, memoized by the archive.

    The archive remembers every true evaluation, finite or not, so a
    genome is evaluated at most once. Its memo is the one record of them:
    `count` is its keys, `nonfinite` those whose value was NaN or inf and
    so became no regression entry. A run's archive starts empty.
    """

    def __init__(self, fn, archive: TrainingArchive):
        self._fn = fn
        self.archive = archive

    @property
    def count(self) -> int:
        return self.archive.evaluations

    @property
    def nonfinite(self) -> int:
        return self.archive.evaluations - len(self.archive)

    def __call__(self, genome: np.ndarray) -> float:
        key = genome.tobytes()
        value = self.archive.lookup(key)
        if value is None:
            value = float(self._fn(genome))
            self.archive.add(key, value)
        return value


@dataclass
class BuiltProblem:
    name: str
    dim: int
    bounds: np.ndarray
    raw_objective: object
    constraints: list[SumConstraint]
    well_problem: WellPlacementProblem | None = None

    def simulation_failures(self) -> int:
        """Proxy runs scored with the failure sentinel so far."""
        return getattr(self.well_problem, "simulation_failures", 0)


def load_bundled_grid() -> ReservoirGrid:
    data = resources.files("wellopt").joinpath("data/default_grid.json")
    return ReservoirGrid.from_json_dict(json.loads(data.read_text()))


def build_problem(config: RunConfig) -> BuiltProblem:
    kind, grid_file = config.problem["kind"], config.problem.get("grid_file")
    if kind == "well_placement":
        grid = (ReservoirGrid.load_json(grid_file) if grid_file
                else load_bundled_grid())
        well = WellPlacementProblem(grid, **config.problem_args)
        return BuiltProblem(name=kind, dim=well.dim, bounds=well.bounds(),
                            raw_objective=well.raw_objective,
                            constraints=well.constraints() + config.constraints,
                            well_problem=well)
    bounds = np.array(config.problem_args["bounds"])
    center = config.problem_args["center"]
    # `sphere` is looked up at call time, where tracing and tests wrap it.
    objective = (rosenbrock if kind == "rosenbrock"
                 else lambda x: sphere(x, center))
    return BuiltProblem(name=kind, dim=len(bounds), bounds=bounds,
                        raw_objective=objective,
                        constraints=list(config.constraints))


# ---------------------------------------------------------------------------
# Run records


@dataclass
class RunRow:
    generation: int
    true_evaluations: int
    best_objective: float
    best_raw_objective: float
    resampled: int
    n_ic: int
    gammas: tuple[float, ...]
    best_genome: np.ndarray


@dataclass
class RunRecord:
    seed: int
    optimizer: str
    problem: str
    rows: list[RunRow]
    termination_reason: str
    simulation_failures: int   # proxy runs scored with the sentinel
    nonfinite_evaluations: int   # true evaluations that were NaN or inf
    final_mean: np.ndarray | None   # None for the GA
    archive: TrainingArchive | None   # None for the GA
    covariance_repairs: int
    # candidates kept after MAX_RESAMPLES redraws with a rejected draw
    rejection_exhaustions: int

    @property
    def final(self) -> RunRow:
        return self.rows[-1]

    def best_so_far(self) -> np.ndarray:
        return np.array([row.best_objective for row in self.rows])

    def true_evaluations(self) -> np.ndarray:
        return np.array([row.true_evaluations for row in self.rows])

    def write_csv(self, path):
        final = self.final
        header = (["generation", "true_evaluations", "best_objective",
                   "best_raw_objective", "resampled", "n_ic"]
                  + [f"gamma_{j}" for j in range(len(final.gammas))]
                  + [f"genome_{i}" for i in range(len(final.best_genome))])
        _atomic_write(path, _csv(header, (
            [str(row.generation), str(row.true_evaluations),
             fmt(row.best_objective), fmt(row.best_raw_objective),
             str(row.resampled), str(row.n_ic),
             *map(fmt, row.gammas), *map(fmt, row.best_genome)]
            for row in self.rows)))


def _csv(header: list[str], rows) -> str:
    """`schema_version`, then the header's columns; one LF-terminated
    line per row of cells."""
    lines = [",".join(["schema_version", *header])]
    lines.extend(",".join([str(SCHEMA_VERSION), *cells]) for cells in rows)
    return "\n".join(lines) + "\n"


def _atomic_write(path, text: str):
    """Replace `path` through a unique temporary file in its directory,
    removed on failure, with the mode a plain `open` would give."""
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def evaluations_to_target(record: RunRecord, target: float) -> int | None:
    """Cumulative true evaluations when best-so-far first reaches target."""
    for row in record.rows:
        if row.best_objective <= target:
            return row.true_evaluations
    return None


# ---------------------------------------------------------------------------
# Optimizer loops


class _Recorder:
    """A run's seeded generator, memoized objective, incumbent, rows and
    record, alike for every optimizer. A generation's best-ranked candidate
    replaces the incumbent when its value is finite and below the best so
    far; until one does, the rows report the first generation's with inf.
    """

    def __init__(self, problem: BuiltProblem, seed: int):
        self.problem, self.seed = problem, seed
        self.rng = np.random.default_rng(seed)
        self.failures = problem.simulation_failures()   # may be reused
        self.evaluator = Evaluator(problem.raw_objective,
                                   TrainingArchive(problem.dim))
        self.rows: list[RunRow] = []
        self.best_history: list[float] = []
        self.best = math.inf

    def end_generation(self, generation: int, genomes, values, raw, order,
                       resampled: int, n_ic: int, gammas: tuple):
        i = order[0]
        value = values[i] if math.isfinite(values[i]) else math.inf
        if value < self.best or not self.rows:
            self.best = value
            self.best_raw, self.best_genome = raw[i], genomes[i].copy()
        self.best_history.append(self.best)
        self.rows.append(RunRow(
            generation=generation, true_evaluations=self.evaluator.count,
            best_objective=self.best, best_raw_objective=self.best_raw,
            resampled=resampled, n_ic=n_ic, gammas=gammas,
            best_genome=self.best_genome))   # shared until replaced

    def record(self, optimizer: str, reason: str, final_mean, archive,
               covariance_repairs: int, exhaustions: int) -> RunRecord:
        problem = self.problem
        return RunRecord(
            seed=self.seed, optimizer=optimizer, problem=problem.name,
            rows=self.rows, termination_reason=reason,
            simulation_failures=problem.simulation_failures() - self.failures,
            nonfinite_evaluations=self.evaluator.nonfinite,
            final_mean=final_mean, archive=archive,
            covariance_repairs=covariance_repairs,
            rejection_exhaustions=exhaustions)


def run_cma(problem: BuiltProblem, config: RunConfig, seed: int,
            use_surrogate: bool) -> RunRecord:
    run = _Recorder(problem, seed)
    rng, evaluator, archive = run.rng, run.evaluator, run.evaluator.archive
    dim = problem.dim
    lower, upper = problem.bounds[:, 0], problem.bounds[:, 1]
    ranges = upper - lower
    params = default_strategy_params(dim, config.population_size,
                                     config.max_generations)

    mean0 = rng.uniform(lower, upper)
    scale = float(np.mean(ranges))
    sigma0 = config.sigma0 if config.sigma0 is not None else 0.3 * scale
    # Anisotropic bounds enter through the initial covariance so that the
    # per-coordinate initial spread is 0.3 * (upper - lower).
    dist = SearchDistribution(mean=mean0, step_size=sigma0,
                              covariance=np.diag((ranges / scale) ** 2),
                              path_sigma=np.zeros(dim), path_c=np.zeros(dim))

    constraints = problem.constraints
    state = PenaltyState(n_constraints=len(constraints), dim=dim,
                         lam=params.lam)
    # a configured surrogate was checked against the dimension at load
    settings = config.surrogate or default_surrogate_settings(dim)

    exhaustions = 0

    while True:
        stationary = dist.generation - state.last_change > STAGNATION_WINDOW
        reason = check_termination(dist, params, run.best_history, stationary)
        if reason and not run.rows:
            raise ValueError(f"stopped before the first generation: {reason}")
        if reason:
            break
        transform = sampling_transform(dist)

        def draw(count):
            return sample_individual(dist, transform, rng, count)

        genomes, sums, resamples, exhausted = sample_with_rejection(
            draw, params.lam, constraints, config.rejection_fraction)
        exhaustions += exhausted

        amounts = [0.0] * params.lam
        if constraints:
            maybe_set_gammas(state, dist, constraints)
            q_means = row_means(sums)
            maybe_increase_gammas(state, dist, constraints, params, q_means)
            # gamma and xi are frozen for the generation: one amount per
            # candidate, from its row of constraint sums.
            xis = xi_factors(dist, constraints)
            amounts = [penalty_amount(q, state.gammas, constraints, xis)
                       for q in sums.T.tolist()]

        if use_surrogate and len(archive) >= settings.min_archive_size:
            order, n_ic, raw, values, _ = approximate_ranking_step(
                genomes, archive, dist, params, settings, evaluator, amounts)
        else:
            raw = [evaluator(genome) for genome in genomes]
            values = [penalized(r, a) for r, a in zip(raw, amounts)]
            order, n_ic = rank_population(values), 0

        state.record_generation(raw)
        # The best-ranked candidate is always a true evaluation: the
        # approximate ranking stops only on a best it has evaluated.
        run.end_generation(dist.generation, genomes, values, raw, order,
                           resamples, n_ic, state.gammas)

        old_mean = dist.mean
        dist.mean = update_mean(params, genomes, order)
        dist = update_strategy_state(dist, params, genomes, order, old_mean)

    return run.record("cma+surrogate" if use_surrogate else "cma", reason,
                      dist.mean.copy(), archive, dist.repairs, exhaustions)


def run_ga(problem: BuiltProblem, config: RunConfig, seed: int) -> RunRecord:
    run = _Recorder(problem, seed)
    params = GaParams(population_size=config.population_size,
                      bounds=problem.bounds,
                      crossprob=config.crossprob, mutprob=config.mutprob)
    optimizer = GaOptimizer(params, run.evaluator, problem.constraints,
                            run.rng)
    optimizer.initialize()
    gammas = (0.0,) * len(problem.constraints)
    for generation in range(config.max_generations):
        if generation:
            optimizer.step()
        run.end_generation(generation, optimizer.genomes, optimizer.fitnesses,
                           optimizer.fitnesses, optimizer.order, 0, 0, gammas)
    return run.record("ga", "max_generations", final_mean=None, archive=None,
                      covariance_repairs=0, exhaustions=0)


def run_single(config: RunConfig, seed: int,
               out_dir=None) -> RunRecord:
    """Execute one seeded run and, if out_dir is given, write its CSV."""
    problem = build_problem(config)
    if config.optimizer is None:
        raise ValueError("config must set 'optimizer' for single runs")
    if config.optimizer == "ga":
        record = run_ga(problem, config, seed)
    else:
        record = run_cma(problem, config, seed,
                         use_surrogate=config.optimizer == "cma+surrogate")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        record.write_csv(os.path.join(out_dir, f"run_{seed}.csv"))
        if config.optimizer == "cma+surrogate":
            _atomic_write(os.path.join(out_dir, f"archive_{seed}.csv"),
                          _archive_csv(record.archive))
    return record


def _archive_csv(archive: TrainingArchive) -> str:
    """One LF-terminated row per regression entry: genome, objective."""
    genomes, values = archive.as_arrays()
    lines = [",".join([f"x{i}" for i in range(archive.dim)] + ["objective"])]
    lines.extend(",".join(map(fmt, [*genome, value]))
                 for genome, value in zip(genomes.tolist(), values.tolist()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Batches and comparisons: lists of run records, and the files they make


def default_targets(records: list[RunRecord]) -> list[float]:
    """Ten evenly spaced quantiles of the pooled finite best-so-far
    samples (a run reports inf until its first finite value), or none.

    Targets run from easy (high objective) to hard (low); because
    best-so-far trajectories spend generations where progress is slow,
    empirical quantiles place targets where the optimizers actually
    spend their time.
    """
    pooled = np.concatenate([r.best_so_far() for r in records])
    pooled = pooled[np.isfinite(pooled)]
    if not len(pooled):
        return []
    quantiles = np.quantile(pooled, np.arange(1, 11) / 11.0)
    return sorted(set(float(q) for q in quantiles), reverse=True)


def run_batch(config: RunConfig, out_dir=None) -> list[RunRecord]:
    """Run every configured seed; with `out_dir`, write the per-run CSVs,
    `summary.csv`, `targets.csv` and `summary.txt`."""
    if len(config.seeds) < 2:
        raise ValueError("run_batch needs at least 2 seeds")
    records = [run_single(config, seed, out_dir) for seed in config.seeds]
    if out_dir is not None:
        _write_batch(records, config.targets or default_targets(records),
                     out_dir)
    return records


def _write_batch(records: list[RunRecord], targets: list[float], out_dir):
    best = _aligned(records, RunRecord.best_so_far)
    evals = _aligned(records, RunRecord.true_evaluations)
    _atomic_write(os.path.join(out_dir, "summary.csv"), _csv(
        ["generation", "mean_true_evaluations", "mean_best_objective",
         "std_best_objective"],
        ([str(g), fmt(np.mean(evals[:, g])), fmt(np.mean(best[:, g])),
          fmt(_std(best[:, g]))] for g in range(best.shape[1]))))
    rows = []
    for target in targets:
        reached = _reached(records, target)
        rows.append([fmt(target), str(len(reached)), str(len(records)),
                     fmt(np.mean(reached)) if reached else "not reached"])
    _atomic_write(os.path.join(out_dir, "targets.csv"), _csv(
        ["target_objective", "runs_reached", "total_runs",
         "mean_evaluations_to_target"], rows))
    _atomic_write(os.path.join(out_dir, "summary.txt"),
                  _summary_text(records))


def _aligned(records: list[RunRecord], series) -> np.ndarray:
    """(n_runs, max_generations) of `series(record)`, each run padded
    with its final value (e.g. `RunRecord.best_so_far`)."""
    width = max(len(r.rows) for r in records)
    out = np.empty((len(records), width))
    for i, record in enumerate(records):
        values = series(record)
        out[i, :len(values)] = values
        out[i, len(values):] = values[-1]
    return out


def _std(values: np.ndarray) -> float:
    """Sample standard deviation; nan, by rule, when a value is not finite."""
    return np.std(values, ddof=1) if np.isfinite(values).all() else math.nan


def _reached(records: list[RunRecord], target: float) -> list[int]:
    """Evaluations to `target` of each run that reached it."""
    evals = (evaluations_to_target(r, target) for r in records)
    return [e for e in evals if e is not None]


def _npvs(records: list[RunRecord]) -> np.ndarray:
    """Each well run's final best NPV: its negated raw objective."""
    return -np.array([r.final.best_raw_objective for r in records])


def _summary_text(records: list[RunRecord]) -> str:
    finals = np.array([r.final.best_objective for r in records])
    lines = [
        f"problem: {records[0].problem}",
        f"optimizer: {records[0].optimizer}",
        f"runs: {len(records)} (seeds {[r.seed for r in records]})",
        f"final best objective: median {fmt(np.median(finals))}, "
        f"mean {fmt(np.mean(finals))}, std {fmt(_std(finals))}",
    ]
    if records[0].problem == "well_placement":
        npvs = _npvs(records)
        lines.append(f"final best NPV: median {fmt(np.median(npvs))}, "
                     f"mean {fmt(np.mean(npvs))}")
    lines.extend("  " + run_line(record) for record in records)
    return "\n".join(lines) + "\n"


def run_line(record: RunRecord) -> str:
    """One run's outcome: its final best, true evaluations and stop
    reason, then each nonzero run counter by name."""
    line = (f"seed {record.seed}: best objective "
            f"{fmt(record.final.best_objective)} after "
            f"{record.final.true_evaluations} true evaluations "
            f"({record.termination_reason})")
    for name in ("covariance_repairs", "simulation_failures",
                 "rejection_exhaustions", "nonfinite_evaluations"):
        if count := getattr(record, name):
            line += f", {name} {count}"
    return line


def improvement_pct(record: RunRecord) -> float:
    first = record.rows[0].best_objective
    final = record.final.best_objective
    if not math.isfinite(first) or abs(first) < np.finfo(float).tiny:
        return math.nan
    return (first - final) / abs(first) * 100.0


def compare_optimizers(config: RunConfig,
                       out_dir=None) -> dict[str, list[RunRecord]]:
    """Matched-seed batches of two optimizers, by label; with `out_dir`,
    each batch's files in a subdirectory, `comparison.csv` and
    `report.txt`, every target table with the same targets.

    Comparing an optimizer against itself is allowed (a sanity check);
    the second batch is then labeled with a `#2` suffix.
    """
    if not config.optimizers or len(config.seeds) < 2:
        raise ValueError("config must set 'optimizers' (a pair) and at "
                         "least 2 seeds to compare")
    first, second = config.optimizers
    labels = [first, second if second != first else f"{second}#2"]
    batches, sub_dirs = {}, {}
    for label, name in zip(labels, config.optimizers):
        sub_dirs[label] = (os.path.join(
            out_dir, label.replace("+", "_").replace("#", "_"))
            if out_dir is not None else None)
        batches[label] = [run_single(replace(config, optimizer=name), seed,
                                     sub_dirs[label]) for seed in config.seeds]
    if out_dir is None:
        return batches
    targets = config.targets or default_targets(
        [r for records in batches.values() for r in records])
    for label, records in batches.items():
        _write_batch(records, targets, sub_dirs[label])
    dim = len(batches[first][0].final.best_genome)
    _atomic_write(os.path.join(out_dir, "comparison.csv"), _csv(
        ["optimizer", "seed", "first_generation_best", "final_best",
         "improvement_pct"] + [f"genome_{i}" for i in range(dim)],
        ([label, str(r.seed), fmt(r.rows[0].best_objective),
          fmt(r.final.best_objective), fmt(improvement_pct(r)),
          *map(fmt, r.final.best_genome)]
         for label, records in batches.items() for r in records)))
    _atomic_write(os.path.join(out_dir, "report.txt"),
                  _report_text(batches, targets))
    return batches


def _report_text(batches: dict[str, list[RunRecord]],
                 targets: list[float]) -> str:
    first = next(iter(batches.values()))
    lines = [f"comparison on {first[0].problem} "
             f"({len(first)} matched seeds)"]
    for label, records in batches.items():
        finals = np.array([r.final.best_objective for r in records])
        improvements = [improvement_pct(r) for r in records]
        lines.append(f"{label}: median final objective "
                     f"{fmt(np.median(finals))}, "
                     f"median improvement over first generation "
                     f"{np.median(improvements):.1f}%")
        if records[0].problem == "well_placement":
            lines.append(f"{label}: median final NPV "
                         f"{fmt(np.median(_npvs(records)))}")
    lines.append("")
    lines.append("evaluations to reach target (mean over runs that reached it)")
    lines.append("target".ljust(24) + "".join(n.ljust(18) for n in batches))
    for target in targets:
        row = fmt(target).ljust(23) + " "   # a repr may be 24 long
        for records in batches.values():
            reached = _reached(records, target)
            cell = (f"{np.mean(reached):.1f} ({len(reached)})"
                    if reached else "not reached")
            row += cell.ljust(18)
        lines.append(row)
    return "\n".join(lines) + "\n"
