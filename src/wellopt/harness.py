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

import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .benchmarks import DEFAULT_BOUNDS, rosenbrock, sphere
from .cma import (STAGNATION_WINDOW, SearchDistribution, check_termination,
                  default_strategy_params, rank_population,
                  sample_individual, sampling_transform, update_mean,
                  update_strategy_state)
from .constraints import (PenaltyState, SumConstraint, maybe_increase_gammas,
                          maybe_set_gammas, mean_1d, penalized,
                          penalty_amount, sample_with_rejection, xi_factors)
# The run loop reads constraint sums from sampling; the name stays in this
# namespace, where the benchmark's tracing looks the layer's calls up.
from .constraints import constraint_violation  # noqa: F401
from .ga import GaOptimizer, GaParams
from .metamodel import (SurrogateSettings, TrainingArchive,
                        approximate_ranking_step, default_surrogate_settings)
from .wells.economics import EconomicParams
from .wells.grid import ReservoirGrid
from .wells.problem import (DEFAULT_LAYOUT, MIN_STEP_M, TILT_RANGE,
                            WellLayout, WellPlacementProblem)
from .wells.proxy import ProxyParams

SCHEMA_VERSION = 1
OPTIMIZERS = ("cma", "cma+surrogate", "ga")
PROBLEM_KEYS = {"sphere": {"kind", "dimension", "center", "bounds"},
                "rosenbrock": {"kind", "dimension", "bounds"},
                "well_placement": {"kind", "grid_file", "economics", "proxy",
                                   "wells", "min_step_m", "tilt_range"}}
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


# ---------------------------------------------------------------------------
# Configuration


def _check_keys(data: dict, allowed: set[str], context: str,
                required: bool = False):
    """Raise a ValueError unless `data` is an object with only `allowed`
    keys (and all of them if `required`)."""
    if not isinstance(data, dict):
        raise ValueError(f"{context} must be an object; got {data!r}")
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown)}")
    missing = allowed - set(data) if required else ()
    if missing:
        raise ValueError(f"{context} needs keys: {sorted(missing)}")


def _number(value, name: str, integer: bool = False):
    """A config value as float, or as int if `integer`; a string, null,
    list, bool or (for an integer) fraction raises a ValueError naming
    the key."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (not integer or float(value).is_integer())):
        return int(value) if integer else float(value)
    kind = "an integer" if integer else "a number"
    raise ValueError(f"{name} must be {kind}; got {value!r}")


def _items(value, name: str) -> tuple:
    """A config list as a tuple; anything not iterable raises a ValueError
    naming the key."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a list; got {value!r}") from None


def _well_kwargs(problem: dict) -> dict:
    """The checked `WellPlacementProblem` keyword arguments but the grid."""
    grid_file = problem.get("grid_file") or ""
    if not isinstance(grid_file, (str, os.PathLike)):
        raise ValueError(f"problem.grid_file must be a path; got {grid_file!r}")
    kwargs = {name: _number(problem.get(name, default), f"problem.{name}")
              for name, default in (("min_step_m", MIN_STEP_M),
                                    ("tilt_range", TILT_RANGE))}
    for name, key, cls in (("econ", "economics", EconomicParams),
                           ("proxy", "proxy", ProxyParams)):
        section = problem.get(key) or {}
        integer = {f.name: f.type in ("int", int) for f in fields(cls)}
        _check_keys(section, set(integer), key)
        kwargs[name] = cls(**{k: _number(v, f"{key}.{k}", integer[k])
                              for k, v in section.items()})
    wells = _items(problem.get("wells") or (), "wells")
    for well in wells:
        _check_keys(well, {"role", "deviations", "branches"}, "wells entry")
    if wells:
        kwargs["layout"] = tuple(WellLayout(
            w.get("role"),
            _number(w.get("deviations", 1), "wells.deviations", True),
            _number(w.get("branches", 0), "wells.branches", True))
            for w in wells)
    if not 0.0 < kwargs["min_step_m"] < kwargs["econ"].max_well_length_m:
        raise ValueError("problem.min_step_m must lie in (0, "
                         "economics.max_well_length_m); got "
                         f"{kwargs['min_step_m']!r}")
    if not 0.0 < kwargs["tilt_range"] <= math.pi / 2:
        raise ValueError("problem.tilt_range must lie in (0, pi/2]; got "
                         f"{kwargs['tilt_range']!r}")
    return kwargs


def _benchmark_bounds(problem: dict, dim: int) -> list[tuple[float, float]]:
    """The checked (lo, hi) pair of each coordinate."""
    bounds = problem.get("bounds", DEFAULT_BOUNDS[problem["kind"]])
    rows = _items(bounds, "problem.bounds")
    if all(isinstance(row, numbers.Real) for row in rows):
        rows = (rows,) * dim   # one [lo, hi] pair for every coordinate
    pairs = [tuple(_number(v, "problem.bounds")
                   for v in _items(row, "problem.bounds")) for row in rows]
    if len(pairs) != dim or not all(
            len(pair) == 2 and -math.inf < pair[0] < pair[1] < math.inf
            for pair in pairs):
        raise ValueError("problem.bounds must be [lo, hi] or one [lo, hi] "
                         "pair per coordinate, finite with lo < hi; got "
                         f"{bounds!r}")
    return pairs


@dataclass
class RunConfig:
    """A run config that checks and converts its values on construction, so
    `from_dict` results and `dataclasses.replace` copies are checked alike."""

    problem: dict = field(default_factory=dict)
    optimizer: str | None = None
    optimizers: tuple[str, ...] | None = None
    population_size: int | None = None   # None: 40 for wells, 8 otherwise
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
    # what build_problem needs besides the grid, worked out on construction:
    # the WellPlacementProblem keyword arguments, or the bounds
    _problem_args: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.problem or {}, dict):
            raise ValueError(
                f"problem must be an object; got {self.problem!r}")
        self.problem = dict(self.problem or {})
        kind = self.problem.get("kind")
        if kind not in PROBLEM_KEYS:
            raise ValueError(f"problem.kind must be one of "
                             f"{', '.join(PROBLEM_KEYS)}; got {kind!r}")
        _check_keys(self.problem, PROBLEM_KEYS[kind], "problem")
        for key in ("dimension", "center"):
            if key in self.problem:
                self.problem[key] = _number(
                    self.problem[key], f"problem.{key}", key == "dimension")
        if kind == "well_placement":
            self._problem_args = _well_kwargs(self.problem)
            dim = sum(w.dim for w in self._problem_args.get(
                "layout", DEFAULT_LAYOUT))
        else:
            dim = self.problem.get("dimension")
            if dim is None:
                raise ValueError(f"{kind} problem requires 'dimension'")
            if dim < 1:
                raise ValueError(f"problem.dimension must be >= 1; got {dim}")
            self._problem_args = {
                "bounds": _benchmark_bounds(self.problem, dim)}

        if self.optimizer not in (None, *OPTIMIZERS):
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.optimizers is not None:
            self.optimizers = _items(self.optimizers, "optimizers")
            if len(self.optimizers) != 2 or any(o not in OPTIMIZERS
                                                for o in self.optimizers):
                raise ValueError("optimizers must list exactly two of "
                                 f"{OPTIMIZERS}")

        for name in ("crossprob", "mutprob"):
            setattr(self, name, _number(getattr(self, name), f"ga.{name}"))
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"ga.{name} must lie in [0, 1]")
        self.seeds = tuple(_number(s, "seeds", integer=True)
                           for s in _items(self.seeds, "seeds"))
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        self.max_generations = _number(self.max_generations,
                                       "max_generations", integer=True)
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.population_size is None:
            self.population_size = 40 if kind == "well_placement" else 8
        self.population_size = _number(self.population_size,
                                       "population_size", integer=True)
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        self.rejection_fraction = _number(self.rejection_fraction,
                                          "rejection_fraction")
        if not self.rejection_fraction > 0.0:
            raise ValueError("rejection_fraction must be positive")
        if self.sigma0 is not None:
            self.sigma0 = _number(self.sigma0, "sigma0")
            if not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
                raise ValueError("sigma0 must be finite and positive")
        if self.targets is not None:
            self.targets = [_number(t, "targets")
                            for t in _items(self.targets, "targets")]
            if not all(map(math.isfinite, self.targets)):
                raise ValueError("targets must be finite")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path; got "
                             f"{self.output_dir!r}")
        self.output_dir = str(self.output_dir)

        for c in self.constraints:
            if max(c.indices) >= dim:
                raise ValueError(f"constraint indices must be below the "
                                 f"problem's dimension {dim}; got "
                                 f"{list(c.indices)}")
        if self.surrogate is not None:
            self.surrogate.validate(dim)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse a JSON config document; construction checks its values."""
        ga_keys = {"crossprob", "mutprob"}
        _check_keys(data, {f.name for f in fields(cls) if f.init} - ga_keys
                    | {"ga"}, "config")
        parsed = dict(data)
        ga = parsed.pop("ga", None) or {}
        _check_keys(ga, ga_keys, "ga")
        parsed["constraints"] = []
        for c in _items(data.get("constraints") or (), "constraints"):
            _check_keys(c, {"indices", "lower", "upper"}, "constraint",
                        required=True)
            indices = _items(c["indices"], "constraint indices")
            parsed["constraints"].append(SumConstraint(
                tuple(_number(i, "constraint indices", True) for i in indices),
                _number(c["lower"], "constraint lower"),
                _number(c["upper"], "constraint upper")))
        if (entry := data.get("surrogate")) is not None:
            _check_keys(entry, {"k", "min_archive_size"}, "surrogate",
                        required=True)
            parsed["surrogate"] = SurrogateSettings(
                _number(entry["k"], "surrogate.k", True),
                _number(entry["min_archive_size"],
                        "surrogate.min_archive_size", True))
        return cls(**parsed, **ga)

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


def load_bundled_grid() -> ReservoirGrid:
    data = resources.files("wellopt").joinpath("data/default_grid.json")
    return ReservoirGrid.from_json_dict(json.loads(data.read_text()))


def build_problem(config: RunConfig) -> BuiltProblem:
    problem, kind = config.problem, config.problem["kind"]
    if kind == "well_placement":
        grid = (ReservoirGrid.load_json(problem["grid_file"])
                if problem.get("grid_file") else load_bundled_grid())
        well = WellPlacementProblem(grid, **config._problem_args)
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
                        bounds=np.array(config._problem_args["bounds"]),
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
