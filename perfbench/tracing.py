"""Probes and span tracing for the benchmark, installed from outside the package.

Every wrapper is installed where the caller looks the name up: a function
the run loop calls is replaced in `wellopt.harness`, one the surrogate
calls in `wellopt.metamodel`, and so on. The span is named after the layer
that owns the callee, e.g. `constraints.sample_with_rejection`, even though
it is installed in `wellopt.harness`. Nothing under `src/` is edited and
every patch is undone when its `Patcher` closes.

The end-to-end runs carry only two probes: a clock around the true
objective and a timestamp per generation row (with the machine-speed
probes taken there). The traced run adds one span per wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("harness", "cma", "constraints", "metamodel", "ga", "wells",
          "benchmarks")
# Root span of one seeded run: the harness loop (run_cma or run_ga).
RUN_SPAN = "harness.run"

# (module, attribute) -> layer of the callee. The module is the caller's.
WRAPPED_CALLS = {
    "wellopt.harness": {
        "check_termination": "cma",
        "sampling_transform": "cma",
        "sample_individual": "cma",
        "rank_population": "cma",
        "update_mean": "cma",
        "update_strategy_state": "cma",
        "default_strategy_params": "cma",
        "sample_with_rejection": "constraints",
        "maybe_set_gammas": "constraints",
        "maybe_increase_gammas": "constraints",
        "constraint_violation": "constraints",
        "xi_factors": "constraints",
        "penalty_amount": "constraints",
        "approximate_ranking_step": "metamodel",
        "sphere": "benchmarks",
    },
    "wellopt.metamodel": {
        "select_neighbors": "metamodel",
        "fit_local_model": "metamodel",
    },
    "wellopt.ga": {
        "ga_generation": "ga",
        "repair": "ga",
        "constraint_violation": "constraints",
    },
    "wellopt.wells.problem": {
        "decode_well": "wells",
        "check_geometry": "wells",
        "simulate": "wells",
        "drilling_cost": "wells",
        "npv": "wells",
    },
    "wellopt.wells.proxy": {
        "productivity_index": "wells",
        "drainable_oil_barrels": "wells",
    },
}

# Spans of the penalty path (everything in `constraints` the CMA loop calls
# besides rejection sampling).
PENALTY_SPANS = ("constraints.penalty_amount", "constraints.xi_factors",
                 "constraints.maybe_set_gammas",
                 "constraints.maybe_increase_gammas",
                 "constraints.constraint_violation",
                 "constraints.record_generation")


def objective_span(is_well: bool) -> str:
    """Span name of the true objective: a `WellPlacementProblem` method, or
    the harness lambda around a benchmark function."""
    return "wells.objective" if is_well else "harness.objective"


class Patcher:
    """Sets attributes and puts the originals back on close."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def close(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ObjectiveClock:
    """Wraps the true objective and sums the time spent inside it."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, genome):
        start = time.perf_counter()
        try:
            return self.fn(genome)
        finally:
            self.seconds += time.perf_counter() - start


class GenerationClock:
    """Per-generation wall times of one run, with speed probes taken
    between generations.

    Both optimizer loops build exactly one `RunRow` per generation, so
    building a row ends one generation and starts the next. There, at most
    once per `interval_s`, the clock runs `probe()`; the probe's own time
    is cut out of the generation times and counted in `paused_s`.
    """

    def __init__(self, probe, interval_s: float):
        self.probe = probe
        self.interval_s = interval_s
        self.gen_s: list[float] = []
        self.probes: list[float] = []
        self.paused_s = 0.0
        self._start = self._last_probe = 0.0

    def start(self):
        self._start = self._last_probe = time.perf_counter()

    def install(self, patcher: Patcher):
        import wellopt.harness as harness

        row_type = harness.RunRow
        clock = time.perf_counter

        def stamped_row(*args, **kwargs):
            now = clock()
            self.gen_s.append(now - self._start)
            if now - self._last_probe >= self.interval_s:
                self.probes.append(self.probe())
                self._last_probe = clock()
                self.paused_s += self._last_probe - now
                now = self._last_probe
            self._start = now
            return row_type(*args, **kwargs)

        patcher.set(harness, "RunRow", stamped_row)


class Tracer:
    """In-memory spans (name, start, end, parent) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return fn recording one span per call.

        `on_result(args, result)` may return a label; the counter
        `name.label` is then incremented.
        """
        nid = self._name_id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                label = on_result(args, result)
                if label:
                    counts[f"{name}.{label}"] += 1
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _positive(args, result):
    return "positive" if result > 0.0 else None


def _moved(args, result):
    return "moved" if result is not args[0] else None


def install_tracing(patcher: Patcher, tracer: Tracer):
    """Wrap every boundary call listed in WRAPPED_CALLS, plus the memo,
    the penalty history, the GA optimizer's steps and numpy's
    eigensolvers. A name that no longer exists raises AttributeError, so
    a traced run fails rather than reporting a layer it cannot see."""
    import wellopt.harness as harness

    hooks = {"constraints.penalty_amount": _positive, "ga.repair": _moved}
    for module_name, calls in WRAPPED_CALLS.items():
        module = importlib.import_module(module_name)
        for attr, layer in calls.items():
            name = f"{layer}.{attr}"
            patcher.set(module, attr, tracer.wrap(name, getattr(module, attr),
                                                  hooks.get(name)))

    class CountingEvaluator(harness.Evaluator):
        def __call__(self, genome):
            tracer.counts["harness.memo_requests"] += 1
            return super().__call__(genome)

    patcher.set(harness, "Evaluator", CountingEvaluator)

    # Classes the run loop instantiates: replaced by subclasses whose
    # methods record spans.
    for attr, layer, methods in (
            ("PenaltyState", "constraints", ("record_generation",)),
            ("GaOptimizer", "ga", ("initialize", "step"))):
        cls = getattr(harness, attr)
        patcher.set(harness, attr, type(f"Traced{attr}", (cls,), {
            method: tracer.wrap(f"{layer}.{method}", getattr(cls, method))
            for method in methods}))

    for solver in ("eigh", "eigvalsh"):
        patcher.set(np.linalg, solver,
                    tracer.wrap(f"cma.{solver}", getattr(np.linalg, solver)))


class SpanTable:
    """Aggregates over the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; summed over all spans it equals the root spans' duration.
    """

    def __init__(self, tracer: Tracer):
        data = tracer.arrays()
        self.names = tracer.names
        self.name_id = data["name_id"]
        self.parent = data["parent"]
        self.duration = data["end"] - data["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.duration[has_parent],
                            minlength=len(self.duration))
        self.self_time = self.duration - child
        self.parent_name_id = np.full(len(self.duration), -1, dtype=np.int32)
        self.parent_name_id[has_parent] = self.name_id[self.parent[has_parent]]

    def _mask(self, name: str, parents: tuple[str, ...] | None = None):
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if parents is not None:
            ids = [self.names.index(p) for p in parents if p in self.names]
            mask &= np.isin(self.parent_name_id, ids)
        return mask

    def count(self, name: str, parents=None) -> int:
        """Calls of `name`, optionally only those made directly by one of
        the `parents` spans."""
        return int(self._mask(name, parents).sum())

    def total(self, name: str, parents=None) -> float:
        return float(self.duration[self._mask(name, parents)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def self_by_layer(self) -> dict[str, float]:
        layer_of = np.array([LAYERS.index(name.split(".")[0])
                             for name in self.names], dtype=np.intp)
        totals = np.bincount(layer_of[self.name_id], weights=self.self_time,
                             minlength=len(LAYERS))
        return dict(zip(LAYERS, (float(t) for t in totals)))


def layer_metrics(table: SpanTable, counts: Counter, problem, config,
                  optimizer: str, runs: list, scale: float,
                  sim_failures: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced runs, times at the reference speed
    (`scale` converts measured seconds). Metrics of a layer that did not
    run read 0."""
    from wellopt.metamodel import default_surrogate_settings

    gens = sum(len(r.rows) for r in runs) or 1
    ms, us = 1e3 * scale, 1e6 * scale

    def ratio(num, den):
        return num / den if den else 0.0

    def per_gen(seconds):
        return ms * seconds / gens

    is_well = problem.well_problem is not None
    objective = objective_span(is_well)
    n_obj = table.count(objective)
    obj_us = table.durations(objective) * us
    values = {
        "wells.eval_us_p50": (float(np.percentile(obj_us, 50))
                              if is_well and n_obj else 0.0, "us"),
        "wells.eval_us_p90": (float(np.percentile(obj_us, 90))
                              if is_well and n_obj else 0.0, "us"),
    }
    for short, span in (("decode", "wells.decode_well"),
                        ("check_geometry", "wells.check_geometry"),
                        ("productivity_index", "wells.productivity_index"),
                        ("drainable_oil", "wells.drainable_oil_barrels"),
                        ("npv", "wells.npv")):
        values[f"wells.{short}_us"] = (ratio(us * table.total(span), n_obj),
                                       "us")

    rank = "metamodel.approximate_ranking_step"
    n_rank = table.count(rank)
    fits = table.count("metamodel.fit_local_model")
    # Every prediction and every true evaluation inside the ranking step is
    # penalized once, so predictions = penalty calls - true evaluations.
    predictions = (table.count("constraints.penalty_amount", (rank,))
                   - table.count(objective, (rank,)))
    surrogate_n_ic = []
    if optimizer == "cma+surrogate":
        settings = config.surrogate or default_surrogate_settings(problem.dim)
        for record in runs:
            previous = 0
            for row in record.rows:
                if previous >= settings.min_archive_size:
                    surrogate_n_ic.append(row.n_ic)
                previous = row.true_evaluations

    # constraint_violation also runs inside GA repair; only the CMA loop's
    # calls belong to the penalty path.
    penalty_s = sum(table.total(name, (RUN_SPAN,))
                    if name == "constraints.constraint_violation"
                    else table.total(name) for name in PENALTY_SPANS)
    penalty_calls = table.count("constraints.penalty_amount")
    breed_s = (table.total("ga.ga_generation")
               - table.total(objective, ("ga.ga_generation",)))
    requests = counts.get("harness.memo_requests", 0)
    true_evals = sum(r.rows[-1].true_evaluations for r in runs)

    values.update({
        "wells.geometry_short_circuit_ratio": (
            1.0 - ratio(table.count("wells.simulate"), n_obj)
            if is_well and n_obj else 0.0, "ratio"),
        "wells.simulation_failures": (sim_failures, "count"),
        "metamodel.rank_ms_per_gen": (ratio(ms * table.total(rank), n_rank),
                                      "ms"),
        "metamodel.fits_per_gen": (ratio(fits, n_rank), "count"),
        "metamodel.fit_us": (ratio(us * table.total(
            "metamodel.fit_local_model"), fits), "us"),
        "metamodel.neighbors_us": (ratio(
            us * table.total("metamodel.select_neighbors"),
            table.count("metamodel.select_neighbors")), "us"),
        "metamodel.cache_hit_ratio": (1.0 - ratio(fits, predictions)
                                      if predictions > 0 else 0.0, "ratio"),
        "metamodel.n_ic_per_gen": (float(np.mean(surrogate_n_ic))
                                   if surrogate_n_ic else 0.0, "count"),
        "metamodel.fit_failures": (
            counts.get("metamodel.fit_local_model.raised", 0)
            + counts.get("metamodel.select_neighbors.raised", 0), "count"),
        "metamodel.archive_size": (ratio(sum(
            len(r.archive) for r in runs if r.archive is not None),
            len(runs)), "count"),
        "cma.sample_ms_per_gen": (per_gen(
            table.total("cma.sampling_transform")
            + table.total("cma.sample_individual")), "ms"),
        "cma.update_ms_per_gen": (per_gen(
            table.total("cma.update_mean")
            + table.total("cma.update_strategy_state")
            + table.total("cma.rank_population")), "ms"),
        "cma.termination_ms_per_gen": (per_gen(
            table.total("cma.check_termination")), "ms"),
        "cma.eigh_per_gen": ((table.count("cma.eigh")
                              + table.count("cma.eigvalsh")) / gens,
                             "count"),
        "cma.covariance_repairs": (ratio(sum(
            r.covariance_repairs for r in runs), len(runs)), "count"),
        "constraints.sample_ms_per_gen": (per_gen(table.self_total(
            "constraints.sample_with_rejection")), "ms"),
        "constraints.accept_ratio": (ratio(
            table.count("constraints.sample_with_rejection"),
            table.count("cma.sample_individual")), "ratio"),
        "constraints.penalty_ms_per_gen": (per_gen(penalty_s), "ms"),
        "constraints.penalty_calls_per_gen": (penalty_calls / gens,
                                              "count"),
        "constraints.penalized_ratio": (ratio(
            counts.get("constraints.penalty_amount.positive", 0),
            penalty_calls), "ratio"),
        "harness.memo_hit_ratio": (1.0 - ratio(true_evals, requests)
                                   if requests else 0.0, "ratio"),
        "ga.breed_ms_per_gen": (per_gen(breed_s), "ms"),
        "ga.repair_us": (ratio(us * table.total("ga.repair"),
                               table.count("ga.repair")), "us"),
        "ga.repairs_per_gen": (counts.get("ga.repair.moved", 0) / gens,
                               "count"),
    })
    for layer, seconds in table.self_by_layer().items():
        values[f"{layer}.self_ms_per_gen"] = (per_gen(seconds), "ms")
    return values
