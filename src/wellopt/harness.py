"""Run orchestration: seeded runs, statistics, CSV outputs.

A run couples one problem (benchmark function or well placement) with
one optimizer (cma, cma+surrogate, ga) and one seed, and logs one row
per generation. Batches repeat runs over seeds and report per-generation
means, standard deviations, and an evaluations-to-target table;
comparisons run two optimizers on matched seeds.

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
                          maybe_set_gammas, mean_1d, penalized,
                          penalty_amount, sample_with_rejection, xi_factors)
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
    genome is evaluated and counted at most once. Each finite counted
    value becomes one regression entry, which keeps reported totals
    reconcilable with archive growth; `nonfinite` counts the others.
    """

    def __init__(self, fn, archive: TrainingArchive):
        self._fn = fn
        self.archive = archive
        self.count = 0
        self.nonfinite = 0

    def __call__(self, genome: np.ndarray) -> float:
        genome = np.asarray(genome, dtype=float)
        key = genome.tobytes()
        value = self.archive.lookup(genome, key)
        if value is None:
            value = float(self._fn(genome))
            self.count += 1
            if not math.isfinite(value):
                self.nonfinite += 1
            self.archive.add(genome, value, key)
        return value


@dataclass
class BuiltProblem:
    name: str
    dim: int
    bounds: np.ndarray
    raw_objective: object
    constraints: list[SumConstraint]
    well_problem: WellPlacementProblem | None = None


def load_bundled_grid() -> ReservoirGrid:
    data = resources.files("wellopt").joinpath("data/default_grid.json")
    return ReservoirGrid.from_json_dict(json.loads(data.read_text()))


def build_problem(config: RunConfig) -> BuiltProblem:
    problem, kind = config.problem, config.problem["kind"]
    if kind == "well_placement":
        grid = (ReservoirGrid.load_json(problem["grid_file"])
                if problem.get("grid_file") else load_bundled_grid())
        well = WellPlacementProblem(grid, **config.problem_args)
        return BuiltProblem(name=kind, dim=well.dim, bounds=well.bounds(),
                            raw_objective=well.raw_objective,
                            constraints=well.constraints() + config.constraints,
                            well_problem=well)
    dim = problem["dimension"]
    center = problem.get("center", 0.0)
    # `sphere` is looked up at call time, where tracing and tests wrap it.
    objective = (rosenbrock if kind == "rosenbrock"
                 else lambda x: sphere(x, center))
    return BuiltProblem(name=kind, dim=dim,
                        bounds=np.array(config.problem_args["bounds"]),
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
    gammas: np.ndarray
    best_genome: np.ndarray


@dataclass
class RunRecord:
    seed: int
    optimizer: str
    problem: str
    dim: int
    n_constraints: int
    rows: list[RunRow]
    termination_reason: str
    final_mean: np.ndarray | None = None
    archive: TrainingArchive | None = None
    covariance_repairs: int = 0
    simulation_failures: int = 0   # proxy runs scored with the sentinel
    nonfinite_evaluations: int = 0   # true evaluations that were NaN or inf
    # candidates kept after MAX_RESAMPLES redraws with a rejected draw
    rejection_exhaustions: int = 0

    @property
    def final(self) -> RunRow:
        return self.rows[-1]

    def best_so_far(self) -> np.ndarray:
        return np.array([row.best_objective for row in self.rows])

    def true_evaluations(self) -> np.ndarray:
        return np.array([row.true_evaluations for row in self.rows])

    def csv_header(self) -> list[str]:
        return (["schema_version", "generation", "true_evaluations",
                 "best_objective", "best_raw_objective", "resampled", "n_ic"]
                + [f"gamma_{j}" for j in range(self.n_constraints)]
                + [f"genome_{i}" for i in range(self.dim)])

    def write_csv(self, path):
        lines = [",".join(self.csv_header())]
        for row in self.rows:
            cells = [str(SCHEMA_VERSION), str(row.generation),
                     str(row.true_evaluations), fmt(row.best_objective),
                     fmt(row.best_raw_objective), str(row.resampled),
                     str(row.n_ic)]
            cells.extend(fmt(g) for g in row.gammas)
            cells.extend(fmt(x) for x in row.best_genome)
            lines.append(",".join(cells))
        _atomic_write(path, "\n".join(lines) + "\n")


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


def run_cma(problem: BuiltProblem, config: RunConfig, seed: int,
            use_surrogate: bool) -> RunRecord:
    rng = np.random.default_rng(seed)
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
    archive = TrainingArchive(dim)
    evaluator = Evaluator(problem.raw_objective, archive)
    settings = config.surrogate or default_surrogate_settings(dim)
    if use_surrogate:
        settings.validate(dim)

    rows: list[RunRow] = []
    best_history: list[float] = []
    best = math.inf
    last_gamma_change = -10 ** 9
    exhaustions = 0

    while True:
        stationary = dist.generation - last_gamma_change > STAGNATION_WINDOW
        reason = check_termination(dist, params, best_history, stationary)
        if reason and not rows:
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
            gammas_before = state.gammas.tolist()
            maybe_set_gammas(state, dist, constraints)
            # per contiguous row: a mean over an axis may add in another order
            q_means = [mean_1d(q) for q in sums]
            maybe_increase_gammas(state, dist, constraints, params, q_means)
            # gamma and xi are frozen for the generation: one amount per
            # candidate, from its row of constraint sums.
            gammas = state.gammas.tolist()
            if gammas != gammas_before:
                last_gamma_change = dist.generation
            xis = xi_factors(dist, constraints).tolist()
            amounts = [penalty_amount(q, gammas, constraints, xis)
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
        # approximate ranking stops only on a best it has evaluated. The
        # first one is reported even when no value is below inf.
        i = order[0]
        if values[i] < best or not rows:
            best = min(best, float(values[i]))
            best_raw, best_genome = float(raw[i]), genomes[i].copy()
        best_history.append(best)
        rows.append(RunRow(generation=dist.generation,
                           true_evaluations=evaluator.count,
                           best_objective=best, best_raw_objective=best_raw,
                           resampled=resamples, n_ic=n_ic,
                           gammas=state.gammas.copy(),
                           best_genome=best_genome))   # shared until replaced

        old_mean = dist.mean
        dist.mean = update_mean(dist, params, genomes, order)
        dist = update_strategy_state(dist, params, genomes, order, old_mean)

    optimizer = "cma+surrogate" if use_surrogate else "cma"
    return RunRecord(seed=seed, optimizer=optimizer, problem=problem.name,
                     dim=dim, n_constraints=len(constraints), rows=rows,
                     termination_reason=reason, final_mean=dist.mean.copy(),
                     archive=archive,
                     covariance_repairs=dist.repairs,
                     nonfinite_evaluations=evaluator.nonfinite,
                     rejection_exhaustions=exhaustions)


def run_ga(problem: BuiltProblem, config: RunConfig, seed: int) -> RunRecord:
    rng = np.random.default_rng(seed)
    params = GaParams(population_size=config.population_size,
                      bounds=problem.bounds,
                      crossprob=config.crossprob, mutprob=config.mutprob)
    evaluator = Evaluator(problem.raw_objective,
                          TrainingArchive(problem.dim))
    optimizer = GaOptimizer(params, evaluator, problem.constraints, rng)
    optimizer.initialize()
    zeros = np.zeros(len(problem.constraints))

    def snapshot(generation: int) -> RunRow:
        return RunRow(generation=generation,
                      true_evaluations=evaluator.count,
                      best_objective=optimizer.best_fitness,
                      best_raw_objective=optimizer.best_fitness,
                      resampled=0, n_ic=0, gammas=zeros.copy(),
                      best_genome=optimizer.best_genome.copy())

    rows = [snapshot(0)]
    for generation in range(1, config.max_generations):
        optimizer.step()
        rows.append(snapshot(generation))
    return RunRecord(seed=seed, optimizer="ga", problem=problem.name,
                     dim=problem.dim, n_constraints=len(problem.constraints),
                     rows=rows, termination_reason="max_generations",
                     nonfinite_evaluations=evaluator.nonfinite)


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
    if problem.well_problem is not None:
        record.simulation_failures = problem.well_problem.simulation_failures
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        record.write_csv(os.path.join(out_dir, f"run_{seed}.csv"))
        if config.optimizer == "cma+surrogate" and record.archive is not None:
            record.archive.save_csv(os.path.join(out_dir,
                                                 f"archive_{seed}.csv"))
    return record


# ---------------------------------------------------------------------------
# Batches and comparisons


@dataclass
class BatchResult:
    optimizer: str
    problem: str
    records: list[RunRecord]
    targets: list[float]

    def aligned(self, series) -> np.ndarray:
        """(n_runs, max_generations) of `series(record)`, each run padded
        with its final value (e.g. `RunRecord.best_so_far`)."""
        width = max(len(r.rows) for r in self.records)
        out = np.empty((len(self.records), width))
        for i, record in enumerate(self.records):
            values = series(record)
            out[i, :len(values)] = values
            out[i, len(values):] = values[-1]
        return out


def default_targets(records: list[RunRecord]) -> list[float]:
    """Ten evenly spaced quantiles of the pooled best-so-far samples.

    Targets run from easy (high objective) to hard (low); because
    best-so-far trajectories spend generations where progress is slow,
    empirical quantiles place targets where the optimizers actually
    spend their time.
    """
    pooled = np.concatenate([r.best_so_far() for r in records])
    quantiles = np.quantile(pooled, np.arange(1, 11) / 11.0)
    return sorted(set(float(q) for q in quantiles), reverse=True)


def run_batch(config: RunConfig, out_dir=None) -> BatchResult:
    """Run every configured seed, then write per-run and summary CSVs."""
    if len(config.seeds) < 2:
        raise ValueError("run_batch needs at least 2 seeds")
    records = [run_single(config, seed, out_dir) for seed in config.seeds]
    targets = config.targets or default_targets(records)
    result = BatchResult(optimizer=config.optimizer,
                         problem=records[0].problem, records=records,
                         targets=targets)
    if out_dir is not None:
        _write_batch_outputs(result, out_dir)
    return result


def _write_batch_outputs(result: BatchResult, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    best = result.aligned(RunRecord.best_so_far)
    evals = result.aligned(RunRecord.true_evaluations)
    lines = ["schema_version,generation,mean_true_evaluations,"
             "mean_best_objective,std_best_objective"]
    for g in range(best.shape[1]):
        lines.append(f"{SCHEMA_VERSION},{g},{fmt(np.mean(evals[:, g]))},"
                     f"{fmt(np.mean(best[:, g]))},"
                     f"{fmt(np.std(best[:, g], ddof=1))}")
    _atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(lines) + "\n")
    _atomic_write(os.path.join(out_dir, "targets.csv"),
                  _targets_table(result.records, result.targets))
    _atomic_write(os.path.join(out_dir, "summary.txt"),
                  batch_summary_text(result))


def _reached(records: list[RunRecord], target: float) -> list[int]:
    """Evaluations to `target` of each run that reached it."""
    evals = (evaluations_to_target(r, target) for r in records)
    return [e for e in evals if e is not None]


def _targets_table(records: list[RunRecord], targets: list[float]) -> str:
    lines = ["schema_version,target_objective,runs_reached,total_runs,"
             "mean_evaluations_to_target"]
    for target in targets:
        reached = _reached(records, target)
        mean = fmt(np.mean(reached)) if reached else "not reached"
        lines.append(f"{SCHEMA_VERSION},{fmt(target)},{len(reached)},"
                     f"{len(records)},{mean}")
    return "\n".join(lines) + "\n"


def batch_summary_text(result: BatchResult) -> str:
    finals = np.array([r.final.best_objective for r in result.records])
    lines = [
        f"problem: {result.problem}",
        f"optimizer: {result.optimizer}",
        f"runs: {len(result.records)} "
        f"(seeds {[r.seed for r in result.records]})",
        f"final best objective: median {fmt(np.median(finals))}, "
        f"mean {fmt(np.mean(finals))}, std {fmt(np.std(finals, ddof=1))}",
    ]
    if result.problem == "well_placement":
        npvs = -np.array([r.final.best_raw_objective for r in result.records])
        lines.append(f"final best NPV: median {fmt(np.median(npvs))}, "
                     f"mean {fmt(np.mean(npvs))}")
    lines.extend("  " + run_line(record) for record in result.records)
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


@dataclass
class ComparisonResult:
    batches: dict[str, BatchResult]
    targets: list[float]


def improvement_pct(record: RunRecord) -> float:
    first = record.rows[0].best_objective
    final = record.final.best_objective
    if abs(first) < np.finfo(float).tiny:
        return math.nan
    return (first - final) / abs(first) * 100.0


def compare_optimizers(config: RunConfig, out_dir=None) -> ComparisonResult:
    """Matched-seed batches of two optimizers plus a comparison report.

    Comparing an optimizer against itself is allowed (a sanity check);
    the second batch is then labeled with a `#2` suffix.
    """
    if not config.optimizers:
        raise ValueError("config must set 'optimizers' (a pair) to compare")
    first, second = config.optimizers
    labels = [first, second if second != first else f"{second}#2"]
    batches = {}
    for label, name in zip(labels, config.optimizers):
        sub_config = replace(config, optimizer=name)
        sub_dir = (os.path.join(out_dir,
                                label.replace("+", "_").replace("#", "_"))
                   if out_dir is not None else None)
        batches[label] = run_batch(sub_config, sub_dir)
    all_records = [r for b in batches.values() for r in b.records]
    targets = config.targets or default_targets(all_records)
    result = ComparisonResult(batches=batches, targets=targets)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(os.path.join(out_dir, "comparison.csv"),
                      _comparison_csv(result))
        _atomic_write(os.path.join(out_dir, "report.txt"),
                      comparison_report_text(result))
    return result


def _comparison_csv(result: ComparisonResult) -> str:
    dim = next(iter(result.batches.values())).records[0].dim
    header = (["schema_version", "optimizer", "seed", "first_generation_best",
               "final_best", "improvement_pct"]
              + [f"genome_{i}" for i in range(dim)])
    lines = [",".join(header)]
    for name, batch in result.batches.items():
        for record in batch.records:
            cells = [str(SCHEMA_VERSION), name, str(record.seed),
                     fmt(record.rows[0].best_objective),
                     fmt(record.final.best_objective),
                     fmt(improvement_pct(record))]
            cells.extend(fmt(x) for x in record.final.best_genome)
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def comparison_report_text(result: ComparisonResult) -> str:
    names = list(result.batches)
    is_well = result.batches[names[0]].problem == "well_placement"
    lines = [f"comparison on {result.batches[names[0]].problem} "
             f"({len(result.batches[names[0]].records)} matched seeds)"]
    for name in names:
        batch = result.batches[name]
        finals = np.array([r.final.best_objective for r in batch.records])
        improvements = [improvement_pct(r) for r in batch.records]
        lines.append(f"{name}: median final objective {fmt(np.median(finals))}, "
                     f"median improvement over first generation "
                     f"{np.median(improvements):.1f}%")
        if is_well:
            npvs = -np.array([r.final.best_raw_objective
                              for r in batch.records])
            lines.append(f"{name}: median final NPV {fmt(np.median(npvs))}")
    lines.append("")
    lines.append("evaluations to reach target (mean over runs that reached it)")
    header = "target".ljust(24) + "".join(n.ljust(18) for n in names)
    lines.append(header)
    for target in result.targets:
        row = fmt(round(target, 6)).ljust(24)
        for name in names:
            reached = _reached(result.batches[name].records, target)
            cell = (f"{np.mean(reached):.1f} ({len(reached)})"
                    if reached else "not reached")
            row += cell.ljust(18)
        lines.append(row)
    return "\n".join(lines) + "\n"
