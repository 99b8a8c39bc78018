"""Run orchestration: config loading, seeded runs, statistics, CSV outputs.

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

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .benchmarks import DEFAULT_BOUNDS, rosenbrock, sphere
from .cma import (STAGNATION_WINDOW, Diagnostics, EvaluationSource,
                  Individual, SearchDistribution, check_termination,
                  default_strategy_params, rank_population,
                  sample_individual, sampling_transform, update_mean,
                  update_strategy_state)
from .constraints import (PenaltyState, SumConstraint, maybe_increase_gammas,
                          maybe_set_gammas, penalty_amount,
                          sample_with_rejection, xi_factors)
# The run loop reads constraint sums from sampling; the name stays in this
# namespace, where the benchmark's tracing looks the layer's calls up.
from .constraints import constraint_violation  # noqa: F401
from .ga import GaOptimizer, GaParams
from .metamodel import (SurrogateSettings, TrainingArchive,
                        approximate_ranking_step, default_surrogate_settings)
from .wells.economics import EconomicParams
from .wells.grid import ReservoirGrid
from .wells.problem import WellLayout, WellPlacementProblem
from .wells.proxy import ProxyParams

SCHEMA_VERSION = 1
OPTIMIZERS = ("cma", "cma+surrogate", "ga")
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


def penalized(constraints: list[SumConstraint], gammas: np.ndarray,
              xis: np.ndarray | None, genome: np.ndarray, raw: float) -> float:
    """raw + mean over constraints of gamma_j * distance_j^2 / xi_j.

    Returns raw exactly when there are no constraints, when every
    distance is zero, and when raw is not finite. The run loop binds the
    first three arguments once per generation, while gamma and xi are
    frozen.
    """
    if not constraints or not math.isfinite(raw):
        return raw
    amount = penalty_amount(genome, gammas, constraints, xis)
    return raw if amount == 0.0 else raw + amount


# ---------------------------------------------------------------------------
# Configuration


def _check_keys(data: dict, allowed: set[str], context: str):
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown)}")


@dataclass
class RunConfig:
    problem: dict
    optimizer: str | None = None
    optimizers: tuple[str, ...] | None = None
    population_size: int | None = None
    max_generations: int = 100
    seeds: tuple[int, ...] = tuple(range(1, 11))
    sigma0: float | None = None
    constraints: list[SumConstraint] = field(default_factory=list)
    rejection_fraction: float = 0.2
    surrogate: SurrogateSettings | None = None
    crossprob: float = 0.7
    mutprob: float = 0.1
    output_dir: str = "runs"
    targets: list[float] | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        _check_keys(data, {
            "problem", "optimizer", "optimizers", "population_size",
            "max_generations", "seeds", "sigma0", "constraints",
            "rejection_fraction", "surrogate", "ga", "output_dir", "targets",
        }, "config")
        problem = dict(data.get("problem") or {})
        kind = problem.get("kind")
        if kind not in ("sphere", "rosenbrock", "well_placement"):
            raise ValueError(f"problem.kind must be one of sphere, "
                             f"rosenbrock, well_placement; got {kind!r}")
        if kind == "well_placement":
            _check_keys(problem, {"kind", "grid_file", "economics", "proxy",
                                  "wells", "min_step_m", "tilt_range"},
                        "problem")
        else:
            _check_keys(problem, {"kind", "dimension", "center", "bounds"},
                        "problem")
            if "dimension" not in problem:
                raise ValueError(f"{kind} problem requires 'dimension'")

        optimizer = data.get("optimizer")
        if optimizer is not None and optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        optimizers = data.get("optimizers")
        if optimizers is not None:
            optimizers = tuple(optimizers)
            if len(optimizers) != 2 or any(o not in OPTIMIZERS
                                           for o in optimizers):
                raise ValueError("optimizers must list exactly two of "
                                 f"{OPTIMIZERS}")

        constraints = []
        for entry in data.get("constraints") or []:
            _check_keys(entry, {"indices", "lower", "upper"}, "constraint")
            constraints.append(SumConstraint(indices=tuple(entry["indices"]),
                                             lower=float(entry["lower"]),
                                             upper=float(entry["upper"])))

        surrogate = None
        if data.get("surrogate") is not None:
            entry = data["surrogate"]
            _check_keys(entry, {"k", "min_archive_size", "max_cycle_fraction"},
                        "surrogate")
            surrogate = SurrogateSettings(
                k=int(entry["k"]),
                min_archive_size=int(entry["min_archive_size"]),
                max_cycle_fraction=float(entry.get("max_cycle_fraction", 0.25)))
            if not 0.0 < surrogate.max_cycle_fraction <= 1.0:
                raise ValueError("surrogate.max_cycle_fraction must lie in "
                                 "(0, 1]")

        ga = dict(data.get("ga") or {})
        _check_keys(ga, {"crossprob", "mutprob"}, "ga")

        seeds = tuple(int(s) for s in data.get("seeds", range(1, 11)))
        if not seeds:
            raise ValueError("seeds must not be empty")
        max_generations = int(data.get("max_generations", 100))
        if max_generations < 1:
            raise ValueError("max_generations must be >= 1")

        population_size = data.get("population_size")
        if population_size is None:
            population_size = 40 if kind == "well_placement" else 8
        population_size = int(population_size)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        rejection_fraction = float(data.get("rejection_fraction", 0.2))
        if not rejection_fraction > 0.0:
            raise ValueError("rejection_fraction must be positive")

        return cls(
            problem=problem,
            optimizer=optimizer,
            optimizers=optimizers,
            population_size=population_size,
            max_generations=max_generations,
            seeds=seeds,
            sigma0=(None if data.get("sigma0") is None
                    else float(data["sigma0"])),
            constraints=constraints,
            rejection_fraction=rejection_fraction,
            surrogate=surrogate,
            crossprob=float(ga.get("crossprob", 0.7)),
            mutprob=float(ga.get("mutprob", 0.1)),
            output_dir=str(data.get("output_dir", "runs")),
            targets=(None if data.get("targets") is None
                     else [float(t) for t in data["targets"]]),
        )

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class BuiltProblem:
    name: str
    dim: int
    bounds: np.ndarray
    raw_objective: object
    constraints: list[SumConstraint]
    well_problem: WellPlacementProblem | None = None

    @property
    def reports_npv(self) -> bool:
        return self.well_problem is not None


def load_bundled_grid() -> ReservoirGrid:
    data = resources.files("wellopt").joinpath("data/default_grid.json")
    return ReservoirGrid.from_json_dict(json.loads(data.read_text()))


def _benchmark_bounds(problem: dict, dim: int) -> np.ndarray:
    bounds = problem.get("bounds")
    if bounds is None:
        bounds = DEFAULT_BOUNDS[problem["kind"]]
    arr = np.asarray(bounds, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError("bounds must be [lo, hi] or one (lo, hi) pair "
                         "per coordinate with lo < hi")
    return arr


def build_problem(config: RunConfig) -> BuiltProblem:
    problem = config.problem
    kind = problem["kind"]
    if kind == "sphere":
        dim = int(problem["dimension"])
        center = float(problem.get("center", 0.0))
        return BuiltProblem(name="sphere", dim=dim,
                            bounds=_benchmark_bounds(problem, dim),
                            raw_objective=lambda x: sphere(x, center),
                            constraints=list(config.constraints))
    if kind == "rosenbrock":
        dim = int(problem["dimension"])
        return BuiltProblem(name="rosenbrock", dim=dim,
                            bounds=_benchmark_bounds(problem, dim),
                            raw_objective=rosenbrock,
                            constraints=list(config.constraints))
    grid = (ReservoirGrid.load_json(problem["grid_file"])
            if problem.get("grid_file") else load_bundled_grid())
    econ_kwargs = dict(problem.get("economics") or {})
    proxy_kwargs = dict(problem.get("proxy") or {})
    layout_spec = problem.get("wells")
    layout = (tuple(WellLayout(role=w["role"],
                               n_deviations=int(w.get("deviations", 1)),
                               n_branches=int(w.get("branches", 0)))
                    for w in layout_spec)
              if layout_spec else None)
    kwargs = {}
    if layout:
        kwargs["layout"] = layout
    if "min_step_m" in problem:
        kwargs["min_step_m"] = float(problem["min_step_m"])
    if "tilt_range" in problem:
        kwargs["tilt_range"] = float(problem["tilt_range"])
    well = WellPlacementProblem(grid, econ=EconomicParams(**econ_kwargs),
                                proxy=ProxyParams(**proxy_kwargs), **kwargs)
    return BuiltProblem(name="well_placement", dim=well.dim,
                        bounds=well.bounds(),
                        raw_objective=well.raw_objective,
                        constraints=well.constraints() + list(config.constraints),
                        well_problem=well)


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
                         lam=params.lam,
                         rejection_fraction=config.rejection_fraction)
    archive = TrainingArchive(dim)
    evaluator = Evaluator(problem.raw_objective, archive)
    settings = config.surrogate or default_surrogate_settings(dim)
    if use_surrogate:
        settings.validate(dim)
    diagnostics = Diagnostics()

    rows: list[RunRow] = []
    best_history: list[float] = []
    best = math.inf
    best_raw = math.nan
    best_genome = mean0.copy()
    reason = ""
    last_gamma_change = -10 ** 9

    while True:
        stationary = (dist.generation - last_gamma_change
                      > STAGNATION_WINDOW)
        decision = check_termination(dist, params, best_history, stationary,
                                     diagnostics)
        if decision.stop:
            reason = decision.reason
            break
        transform = sampling_transform(dist, diagnostics)

        def draw(count):
            return sample_individual(dist, transform, rng, count)

        genomes, sums, resamples, exhaustions = sample_with_rejection(
            draw, params.lam, constraints, config.rejection_fraction)
        diagnostics.rejection_exhaustions += exhaustions
        population = [Individual(genome=genome) for genome in genomes]

        xis = None
        if constraints:
            gammas_before = state.gammas.copy()
            maybe_set_gammas(state, dist, constraints)
            # One np.mean per contiguous row: the pairwise order of a 1-D
            # mean, which a mean over an axis of the 2-D array need not keep.
            q_means = [np.mean(q) for q in sums]
            maybe_increase_gammas(state, dist, constraints, params, q_means)
            if not np.array_equal(state.gammas, gammas_before):
                last_gamma_change = dist.generation
            xis = xi_factors(dist, constraints)
        penalize = functools.partial(penalized, constraints, state.gammas,
                                     xis)

        if use_surrogate and len(archive) >= settings.min_archive_size:
            order, n_ic, _ = approximate_ranking_step(
                population, archive, dist, params, settings, evaluator,
                penalize)
        else:
            for ind in population:
                ind.raw_objective = evaluator(ind.genome)
                ind.penalized_objective = penalize(ind.genome,
                                                   ind.raw_objective)
                ind.evaluated_by = EvaluationSource.TRUE_FUNCTION
            order = rank_population(population)
            n_ic = 0

        state.record_generation(
            np.array([ind.raw_objective for ind in population]))

        for i in order:
            ind = population[i]
            if ind.evaluated_by is EvaluationSource.TRUE_FUNCTION:
                if ind.penalized_objective < best:
                    best = float(ind.penalized_objective)
                    best_raw = float(ind.raw_objective)
                    best_genome = ind.genome.copy()
                break
        best_history.append(best)
        rows.append(RunRow(generation=dist.generation,
                           true_evaluations=evaluator.count,
                           best_objective=best, best_raw_objective=best_raw,
                           resampled=resamples, n_ic=n_ic,
                           gammas=state.gammas.copy(),
                           best_genome=best_genome.copy()))

        old_mean = dist.mean
        dist.mean = update_mean(dist, params, population, order)
        dist = update_strategy_state(dist, params, population, order,
                                     old_mean, diagnostics)

    optimizer = "cma+surrogate" if use_surrogate else "cma"
    return RunRecord(seed=seed, optimizer=optimizer, problem=problem.name,
                     dim=dim, n_constraints=len(constraints), rows=rows,
                     termination_reason=reason, final_mean=dist.mean.copy(),
                     archive=archive,
                     covariance_repairs=diagnostics.covariance_repairs,
                     nonfinite_evaluations=evaluator.nonfinite,
                     rejection_exhaustions=diagnostics.rejection_exhaustions)


def run_ga(problem: BuiltProblem, config: RunConfig, seed: int) -> RunRecord:
    rng = np.random.default_rng(seed)
    params = GaParams(population_size=config.population_size,
                      bounds=problem.bounds,
                      max_generations=config.max_generations,
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


def _targets_table(records: list[RunRecord], targets: list[float]) -> str:
    lines = ["schema_version,target_objective,runs_reached,total_runs,"
             "mean_evaluations_to_target"]
    for target in targets:
        reached = [evaluations_to_target(r, target) for r in records]
        reached = [e for e in reached if e is not None]
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
    for record in result.records:
        line = (f"  seed {record.seed}: "
                f"best {fmt(record.final.best_objective)} "
                f"after {record.final.true_evaluations} evaluations "
                f"({record.termination_reason})")
        if record.covariance_repairs or record.simulation_failures:
            line += (f", covariance_repairs {record.covariance_repairs}, "
                     f"simulation_failures {record.simulation_failures}")
        if record.rejection_exhaustions:
            line += f", rejection_exhaustions {record.rejection_exhaustions}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass
class ComparisonResult:
    config: RunConfig
    batches: dict[str, BatchResult]
    targets: list[float]

    def improvement_pct(self, record: RunRecord) -> float:
        first = record.rows[0].best_objective
        final = record.final.best_objective
        if abs(first) < np.finfo(float).tiny:
            return math.nan
        return (first - final) / abs(first) * 100.0

    def median_final(self, optimizer: str) -> float:
        return float(np.median([r.final.best_objective
                                for r in self.batches[optimizer].records]))

    def median_improvement(self, optimizer: str) -> float:
        return float(np.median([self.improvement_pct(r)
                                for r in self.batches[optimizer].records]))


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
    result = ComparisonResult(config=config, batches=batches, targets=targets)
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
                     fmt(result.improvement_pct(record))]
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
        lines.append(f"{name}: median final objective {fmt(np.median(finals))}, "
                     f"median improvement over first generation "
                     f"{result.median_improvement(name):.1f}%")
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
            reached = [evaluations_to_target(r, target)
                       for r in result.batches[name].records]
            reached = [e for e in reached if e is not None]
            cell = (f"{np.mean(reached):.1f} ({len(reached)})"
                    if reached else "not reached")
            row += cell.ljust(18)
        lines.append(row)
    return "\n".join(lines) + "\n"
