"""Run configuration: a JSON config document, parsed and checked at load."""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields

from .benchmarks import DEFAULT_BOUNDS
from .constraints import SumConstraint
from .metamodel import SurrogateSettings
from .wells.economics import EconomicParams
from .wells.problem import WellLayout
from .wells.proxy import INJECTOR, PRODUCER, ProxyParams

MIN_STEP_M = 50.0    # default lower bound of a bore step's length
TILT_RANGE = 0.15    # default polar-angle half-range about pi/2
DEFAULT_LAYOUT = (WellLayout(INJECTOR, 1, 0), WellLayout(PRODUCER, 1, 0))
OPTIMIZERS = ("cma", "cma+surrogate", "ga")
PROBLEM_KEYS = {"sphere": {"kind", "dimension", "center", "bounds"},
                "rosenbrock": {"kind", "dimension", "bounds"},
                "well_placement": {"kind", "grid_file", "economics", "proxy",
                                   "wells", "min_step_m", "tilt_range"}}


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


def _section(data: dict, cls, key: str, required: bool = False):
    """The config object `key` as a `cls` dataclass of finite numbers."""
    integer = {f.name: f.type in ("int", int) for f in fields(cls)}
    _check_keys(data, set(integer), key, required)
    values = {k: _number(v, f"{key}.{k}", integer[k])
              for k, v in data.items()}
    for k, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{key}.{k} must be finite; got {v!r}")
    return cls(**values)


def _constraint(entry: dict) -> SumConstraint:
    """A JSON constraint entry {"indices", "lower", "upper"}, checked."""
    _check_keys(entry, {"indices", "lower", "upper"}, "constraint",
                required=True)
    indices = _items(entry["indices"], "constraint indices")
    return SumConstraint(
        tuple(_number(i, "constraint indices", True) for i in indices),
        _number(entry["lower"], "constraint lower"),
        _number(entry["upper"], "constraint upper"))


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
        kwargs[name] = _section(problem.get(key) or {}, cls, key)
    wells = _items(problem.get("wells") or (), "wells")
    for well in wells:
        _check_keys(well, {"role", "deviations", "branches"}, "wells entry")
    kwargs["layout"] = tuple(WellLayout(
        w.get("role"),
        _number(w.get("deviations", 1), "wells.deviations", True),
        _number(w.get("branches", 0), "wells.branches", True))
        for w in wells) or DEFAULT_LAYOUT
    if {w.role for w in kwargs["layout"]} != {INJECTOR, PRODUCER}:
        raise ValueError("wells must hold at least one producer and one "
                         f"injector; got {[w.get('role') for w in wells]}")
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
    `from_dict` results and `dataclasses.replace` copies are checked alike.
    `constraints` and `surrogate` may be given in their JSON form."""

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
    # the WellPlacementProblem keyword arguments, or "bounds" and "center"
    problem_args: dict = field(init=False, repr=False, compare=False)

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
            self.problem_args = _well_kwargs(self.problem)
            dim = sum(w.dim for w in self.problem_args["layout"])
        else:
            dim = self.problem.get("dimension")
            if dim is None:
                raise ValueError(f"{kind} problem requires 'dimension'")
            if dim < 1:
                raise ValueError(f"problem.dimension must be >= 1; got {dim}")
            self.problem_args = {
                "bounds": _benchmark_bounds(self.problem, dim),
                "center": self.problem.get("center", 0.0)}

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
        # numpy seeds from ints >= 0; batch statistics count each run once
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct and non-negative; got "
                             f"{list(self.seeds)}")
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
            if not self.targets:
                raise ValueError("targets must not be empty; leave the key "
                                 "out for the default targets")
            if not all(map(math.isfinite, self.targets)):
                raise ValueError("targets must be finite")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path; got "
                             f"{self.output_dir!r}")
        self.output_dir = str(self.output_dir)

        self.constraints = [
            c if isinstance(c, SumConstraint) else _constraint(c)
            for c in _items(self.constraints or (), "constraints")]
        for c in self.constraints:
            if max(c.indices) >= dim:
                raise ValueError(f"constraint indices must be below the "
                                 f"problem's dimension {dim}; got "
                                 f"{list(c.indices)}")
        if self.surrogate is not None:
            if not isinstance(self.surrogate, SurrogateSettings):
                self.surrogate = _section(self.surrogate, SurrogateSettings,
                                          "surrogate", required=True)
            self.surrogate.validate(dim)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse a JSON config document: check its top-level keys and
        flatten `ga`; construction parses and checks the values."""
        ga_keys = {"crossprob", "mutprob"}
        _check_keys(data, {f.name for f in fields(cls) if f.init} - ga_keys
                    | {"ga"}, "config")
        parsed = dict(data)
        ga = parsed.pop("ga", None) or {}
        _check_keys(ga, ga_keys, "ga")
        return cls(**parsed, **ga)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
