"""Run-level properties over small random runs.

Each example is one small CMA-ES (surrogate on or off) or GA run on a
sphere or Rosenbrock with random bounds (some nearly degenerate), random
sum constraints (some with a tiny feasible volume), sometimes a
constraint index past the dimension, and sometimes an objective that is
NaN or +-inf on a random slab; or one small CMA-ES or GA run on the
well-placement problem with a random layout of one or two wells per
role, each with up to two deviations and a branch. A run either fails with a ValueError (or,
for the GA, a NoFeasiblePointError) before its first true evaluation or
keeps every run-level promise: best-so-far is finite (inf before the
first finite value) and never rises, true evaluations never fall and
count every objective call, a generation spends at most lambda
evaluations (a surrogate one 1 + n_ic), the reported genome re-evaluates
to the reported value, and a rerun with the same seed writes the same
CSV bytes. A CMA-ES run's true evaluations are also the
archive size plus the non-finite ones.
"""

import dataclasses
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellopt.ga import NoFeasiblePointError
from wellopt.harness import RunConfig, build_problem, run_cma, run_ga
from wellopt.metamodel import basis_size

NONFINITE = (math.nan, math.inf, -math.inf)


@st.composite
def small_runs(draw):
    n = draw(st.integers(2, 6))
    lows = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    widths = draw(st.lists(st.floats(0.5, 20.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        # one nearly degenerate coordinate: a thin start, or one too
        # ill-conditioned to run
        widths[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [1e-3, 1e-5, 1e-9]))
    bounds = [[lo, lo + w] for lo, w in zip(lows, widths)]
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        indices = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=n, unique=True))
        lo = sum(bounds[i][0] for i in indices)
        hi = sum(bounds[i][1] for i in indices)
        center = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        # the feasible part of the box: a fair share or a sliver
        half = draw(st.sampled_from([1e-9, 0.05, 0.5])) * (hi - lo)
        if not center - half < center + half:
            continue
        constraints.append({"indices": sorted(indices),
                            "lower": center - half, "upper": center + half})
    if draw(st.booleans()) and draw(st.booleans()):
        constraints.append({"indices": [draw(st.integers(n, n + 2))],
                            "lower": 0.0, "upper": 1.0})
    optimizer = draw(st.sampled_from(["cma", "cma+surrogate", "ga"]))
    data = {"problem": {"kind": draw(st.sampled_from(["sphere",
                                                      "rosenbrock"])),
                        "dimension": n, "bounds": bounds},
            "optimizer": optimizer,
            "population_size": draw(st.integers(4, 8)),
            "max_generations": draw(st.integers(2, 12)),
            "constraints": constraints}
    if optimizer == "cma+surrogate":
        k = basis_size(n) + draw(st.integers(0, 3))
        data["surrogate"] = {"k": k, "min_archive_size": k}
    region = None
    if draw(st.booleans()):
        axis = draw(st.integers(0, n - 1))
        a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                    max_size=2)))
        lo, hi = bounds[axis]
        region = (axis, lo + a * (hi - lo), lo + b * (hi - lo),
                  draw(st.sampled_from(NONFINITE)))
    return data, region, draw(st.integers(0, 2 ** 16))


class Objective:
    """The built objective, non-finite on a slab of one coordinate; keeps
    every value it returned, in call order."""

    def __init__(self, fn, region):
        self.fn = fn
        self.region = region
        self.values = []

    def __call__(self, genome):
        value = self.fn(genome)
        if self.region is not None:
            axis, lo, hi, bad = self.region
            if lo <= genome[axis] <= hi:
                value = bad
        self.values.append(value)
        return value


def run(data, region, seed, csv_path):
    """(record, objective) of one run, or (None, objective) when it raised
    a ValueError or NoFeasiblePointError; objective is None when the
    config did not load."""
    try:
        config = RunConfig.from_dict(data)
    except ValueError:
        return None, None
    problem = build_problem(config)
    objective = Objective(problem.raw_objective, region)
    problem = dataclasses.replace(problem, raw_objective=objective)
    try:
        if data["optimizer"] == "ga":
            record = run_ga(problem, config, seed)
        else:
            record = run_cma(problem, config, seed, use_surrogate=data[
                "optimizer"] == "cma+surrogate")
    except (ValueError, NoFeasiblePointError):
        return None, objective
    record.write_csv(csv_path)
    return record, objective


def bits(value):
    return np.float64(math.nan if math.isnan(value) else value).tobytes()


# a GA whose every value is NaN reports its genome with that value
ALL_NAN_GA = ({"problem": {"kind": "sphere", "dimension": 2,
                           "bounds": [[0.0, 1.0], [0.0, 1.0]]},
               "optimizer": "ga", "population_size": 4,
               "max_generations": 2, "constraints": []},
              (0, 0.0, 1.0, math.nan), 0)
# a CMA-ES run that is -inf inside the box reports inf for its first two
# generations, which sample nothing else, and then a finite value
MINUS_INF_CMA = ({**ALL_NAN_GA[0], "optimizer": "cma", "max_generations": 3},
                 (0, 0.0, 1.0, -math.inf), 1)


@st.composite
def well_runs(draw):
    """A well-placement run; the surrogate's k is out of reach at these
    budgets, so only plain CMA-ES and the GA."""
    wells = [{"role": role, "deviations": draw(st.integers(0, 2)),
              "branches": draw(st.integers(0, 1))}
             for role in ("injector", "producer")
             for _ in range(draw(st.integers(1, 2)))]
    data = {"problem": {"kind": "well_placement", "wells": wells},
            "optimizer": draw(st.sampled_from(["cma", "ga"])),
            "population_size": draw(st.integers(4, 8)),
            "max_generations": draw(st.integers(2, 6))}
    return data, None, draw(st.integers(0, 2 ** 16))


@settings(max_examples=200, deadline=None)
@given(case=small_runs())
@example(case=ALL_NAN_GA)
@example(case=MINUS_INF_CMA)
def test_small_runs_keep_their_promises(case):
    keeps_its_promises(*case)


# a CMA-ES run with a branched producer beside a straight injector
BRANCHED_PRODUCER = ({"problem": {"kind": "well_placement", "wells": [
                          {"role": "injector", "deviations": 1},
                          {"role": "producer", "deviations": 2,
                           "branches": 1}]},
                      "optimizer": "cma", "population_size": 6,
                      "max_generations": 4}, None, 3)


@settings(max_examples=40, deadline=None)
@given(case=well_runs())
@example(case=BRANCHED_PRODUCER)
def test_well_runs_keep_their_promises(case):
    keeps_its_promises(*case)


def keeps_its_promises(data, region, seed):
    """Run a case twice and check every run-level promise above."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run_{i}.csv") for i in (1, 2)]
        record, objective = run(data, region, seed, paths[0])
        if record is None:   # rejected before the first generation
            assert objective is None or objective.values == []
            return
        assert run(data, region, seed, paths[1])[0] is not None
        with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
            assert first.read() == second.read()

    rows = record.rows
    best = record.best_so_far()
    assert all(math.isfinite(b) or b == math.inf for b in best)
    assert all(b <= a for a, b in zip(best, best[1:]))
    evaluations = record.true_evaluations()
    assert all(b >= a for a, b in zip(evaluations, evaluations[1:]))
    final = rows[-1]
    assert final.true_evaluations == len(objective.values)
    if data["optimizer"] != "ga":
        assert (final.true_evaluations
                == len(record.archive) + record.nonfinite_evaluations)
    lam = data["population_size"]
    previous = 0
    for row in rows:
        spent = row.true_evaluations - previous
        finite_before = sum(map(math.isfinite, objective.values[:previous]))
        if (data["optimizer"] == "cma+surrogate"
                and finite_before >= data["surrogate"]["min_archive_size"]):
            assert spent == 1 + row.n_ic <= lam
        else:
            assert row.n_ic == 0 and spent <= lam
        previous = row.true_evaluations
    reported = final.best_raw_objective
    assert bits(objective(final.best_genome)) == bits(reported)
