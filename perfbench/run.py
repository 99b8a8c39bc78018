#!/usr/bin/env python3
"""wellopt benchmark: end-to-end cost and quality per workload, and a
traced per-layer split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload well_cma --seed 1 --seconds 20 --trace 0

One process runs one workload. It imports `wellopt` from `src/` (nothing
is installed), measures set-up in fresh child processes, runs the
workload's seeded runs until `--seconds` are used up (at least one pass
over its seeds), checks every run's output and prints each metric by name
and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics; `--trace 1` reruns one pass with span tracing and
reports the per-layer metrics. Times are given at a fixed reference
machine speed (see speed.py). Details land in `perfbench/out/`.

    python3 perfbench/run.py --record-golden 1-10

writes the CSV digests of workload seeds 1..10 of every workload, with the
environment fingerprint, to `perfbench/golden.json`.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier timings on a shared machine, and the digests
# may depend on it, so it is part of the fingerprint.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
# Set-up children per benchmark run, half before the timed runs and half
# after them, so they sample the machine at two moments.
SETUP_REPEATS = 10
WARMUP_GENERATIONS = 6
# Speed probes during a timed run, at generation boundaries: the machine
# changes speed within a run, so probes at its two ends alone misjudge it.
PROBE_INTERVAL_S = 0.1
# The traced run uses the first seeds only: per-layer shares settle with
# far fewer runs than the quality metrics need, and a short traced run
# keeps the benchmark's total time in budget.
TRACE_RUNS = 8

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Times import plus build_problem in a fresh interpreter.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from wellopt import harness
harness.build_problem(harness.RunConfig.load(sys.argv[2]))
print(time.perf_counter() - start)
"""


class CheckoutError(RuntimeError):
    """The directory is not a wellopt source checkout."""


def import_wellopt():
    """Import `wellopt` from this checkout's src/ and nowhere else."""
    if not (SRC / "wellopt" / "harness.py").is_file():
        raise CheckoutError(f"no wellopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wellopt
    if Path(wellopt.__file__).resolve().parent != (SRC / "wellopt").resolve():
        raise CheckoutError(f"wellopt imported from {wellopt.__file__}, "
                            f"not from {SRC}")
    import wellopt.harness
    return wellopt.harness


# ---------------------------------------------------------------------------
# Environment fingerprint


def _blas_libraries() -> list[dict]:
    """BLAS libraries mapped into this process, with thread count and
    OpenBLAS kernel where the library reports them."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "blas" in Path(line.split()[-1]).name.lower()})
    libs = []
    for path in paths:
        entry = {"library": Path(path).name}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                 None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None or config is None:
                    continue
                getter.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = getter()
                entry["config"] = config().decode()
                break
            if "threads" in entry:
                break
        libs.append(entry)
    return libs


def fingerprint() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's BLAS)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# Seeded runs


@dataclasses.dataclass
class RunResult:
    """One seeded run. Raw times in seconds; `scale` converts them to the
    reference machine speed."""

    seed: int
    wall_s: float
    objective_s: float
    gen_s: list[float]
    scale: float
    generations: int
    true_evals: int
    digest: str
    final_best: float = math.nan      # quality scalars, set by run_pass
    evals_to_target: int = 0
    reached: bool = False
    failures: list[str] = dataclasses.field(default_factory=list)


def load_workload(harness, workload: Workload, max_generations: int | None):
    config = harness.RunConfig.load(ROOT / workload.config)
    config = dataclasses.replace(
        config, optimizer=workload.optimizer,
        max_generations=max_generations or workload.max_generations)
    return config, harness.build_problem(config)


def run_once(harness, problem, config, optimizer: str, seed: int):
    if optimizer == "ga":
        return harness.run_ga(problem, config, seed)
    return harness.run_cma(problem, config, seed,
                           use_surrogate=optimizer == "cma+surrogate")


def csv_digest(record, path: Path) -> str:
    record.write_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def timed_run(harness, problem, config, workload, seed, csv_dir):
    """One seeded run with the two end-to-end probes installed; returns
    its timings and its record."""
    clock = tracing.ObjectiveClock(problem.raw_objective)
    timed_problem = dataclasses.replace(problem, raw_objective=clock)
    gens = tracing.GenerationClock(speed.probe, PROBE_INTERVAL_S)
    before = speed.probe()
    with tracing.Patcher() as patcher:
        gens.install(patcher)
        start = time.perf_counter()
        gens.start()
        record = run_once(harness, timed_problem, config, workload.optimizer,
                          seed)
        wall = time.perf_counter() - start - gens.paused_s
    scale = speed.factor([before, *gens.probes, speed.probe()])
    return RunResult(seed=seed, wall_s=wall, objective_s=clock.seconds,
                     gen_s=gens.gen_s, scale=scale,
                     generations=len(record.rows),
                     true_evals=record.rows[-1].true_evaluations,
                     digest=csv_digest(record, csv_dir / f"run_{seed}.csv")
                     ), record


def check_record(problem, config, workload: Workload, record) -> list[str]:
    """Output checks of one run; each returned string is one failure."""
    from wellopt.metamodel import default_surrogate_settings
    from wellopt.wells.problem import GEOMETRY_PENALTY_BASE

    failures = []
    rows = record.rows
    best = [row.best_objective for row in rows]
    if any(b > a for a, b in zip(best, best[1:])):
        failures.append("best-so-far increased")
    if workload.optimizer != "ga":
        archive = record.archive
        if archive is None or len(archive) != rows[-1].true_evaluations:
            failures.append("evaluation count differs from archive size")
    if workload.optimizer == "cma+surrogate":
        settings = config.surrogate or default_surrogate_settings(problem.dim)
        previous = 0
        for row in rows:
            spent = row.true_evaluations - previous
            if previous >= settings.min_archive_size and not (
                    spent == 1 + row.n_ic <= config.population_size):
                failures.append(f"generation {row.generation} spent {spent} "
                                f"true evaluations with n_ic={row.n_ic}")
                break
            previous = row.true_evaluations
    final = rows[-1]
    if problem.well_problem is not None and not (
            math.isfinite(final.best_raw_objective)
            and final.best_raw_objective < GEOMETRY_PENALTY_BASE):
        failures.append(f"final well genome not in-grid with finite NPV: "
                        f"{final.best_raw_objective!r}")
    again = problem.raw_objective(final.best_genome)
    if again != final.best_raw_objective:
        failures.append(f"final genome re-evaluates to {again!r}, run "
                        f"reported {final.best_raw_objective!r}")
    return failures


def evals_to_target(record, target: float) -> tuple[int, bool]:
    """True evaluations until best-so-far first reaches target; a run that
    never does counts all its evaluations. Also says whether it reached."""
    for row in record.rows:
        if row.best_objective <= target:
            return row.true_evaluations, True
    return record.rows[-1].true_evaluations, False


def per_seed(results: list[RunResult], value) -> list[float]:
    """Median over repeats of `value(result)`, one entry per seed."""
    by_seed: dict[int, list[float]] = {}
    for result in results:
        by_seed.setdefault(result.seed, []).append(value(result))
    return [statistics.median(v) for v in by_seed.values()]


def run_pass(harness, problem, config, workload, seeds, csv_dir
             ) -> tuple[list[RunResult], int]:
    """Every seed once; returns the results and the number that raised.

    Each run's record is checked and reduced to its quality scalars at
    once, so no more than one record is alive at a time.
    """
    results, raised = [], 0
    for seed in seeds:
        try:
            result, record = timed_run(harness, problem, config, workload,
                                       seed, csv_dir)
        except Exception:
            traceback.print_exc()
            raised += 1
            continue
        try:
            result.failures = check_record(problem, config, workload, record)
        except Exception as exc:
            traceback.print_exc()
            result.failures = [f"check raised {exc!r}"]
        result.final_best = record.rows[-1].best_objective
        result.evals_to_target, result.reached = evals_to_target(
            record, workload.target)
        del record
        results.append(result)
    return results, raised


def warm_up(harness, problem, config, workload, seeds):
    """One short run so lazy imports and caches are filled before timing."""
    warm = dataclasses.replace(
        config, max_generations=min(config.max_generations,
                                    WARMUP_GENERATIONS))
    run_once(harness, problem, warm, workload.optimizer, seeds[-1] + 1)


def measure_setup(workload: Workload, repeats: int
                  ) -> list[tuple[float, float]]:
    """Import plus build_problem, each in a fresh interpreter; returns
    (raw seconds, scale to the reference speed) per child, the scale from
    speed probes run just before and after the child."""
    samples = []
    for _ in range(repeats):
        before = speed.probe()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC),
             str(ROOT / workload.config)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append((float(proc.stdout), speed.factor([before,
                                                          speed.probe()])))
    return samples


def lower_half_mean(values) -> float:
    """Mean of the smaller half: set-up times only ever get slower than
    the machine's best, by page faults and other tenants."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, len(ordered) // 2)])


def break_even_ms(results: list[RunResult], lam: int) -> float:
    """Library time per true evaluation the surrogate avoided, in ms.

    The library time of a run is its wall time minus the time inside the
    true objective; the avoided evaluations are lambda * G - true_evals.
    Above this cost per evaluation the surrogate pays for itself.
    """
    def one(r):
        avoided = lam * r.generations - r.true_evals
        library_ms = 1e3 * r.scale * (r.wall_s - r.objective_s)
        return library_ms / avoided if avoided > 0 else 0.0
    return statistics.fmean(per_seed(results, one))


# ---------------------------------------------------------------------------
# Modes


def end_to_end(args, harness, workload, config, problem, seeds, csv_dir):
    setup = measure_setup(workload, SETUP_REPEATS // 2)
    warm_up(harness, problem, config, workload, seeds)
    deadline = time.perf_counter() + args.seconds
    results, raised, passes = [], 0, 0
    while True:
        pass_start = time.perf_counter()
        batch, failed = run_pass(harness, problem, config, workload, seeds,
                                 csv_dir)
        results += batch
        raised += failed
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
    setup += measure_setup(workload, SETUP_REPEATS - SETUP_REPEATS // 2)
    if not results:
        raise RuntimeError("every run raised")

    first = {r.seed: r for r in reversed(results)}
    for result in results:
        if result.digest != first[result.seed].digest:
            result.failures.append("CSV differs between repeats of one seed")
    failed_runs = raised + sum(1 for r in results if r.failures)
    runs = [first[s] for s in seeds if s in first]

    def timings(scaled: bool) -> dict:
        def s(r):
            return r.scale if scaled else 1.0
        gen_ms = [1e3 * s(r) * g for r in results for g in r.gen_s]
        return {
            "setup_s": lower_half_mean(t * (k if scaled else 1.0)
                                       for t, k in setup),
            "run_s": statistics.fmean(per_seed(
                results, lambda r: s(r) * r.wall_s)),
            "gen_ms_p50": float(np.percentile(gen_ms, 50)),
            "gen_ms_p90": float(np.percentile(gen_ms, 90)),
            "overhead_ms_per_gen": statistics.fmean(per_seed(
                results, lambda r: 1e3 * s(r) * (r.wall_s - r.objective_s)
                / r.generations)),
        }

    values = {name: (value, "s" if name.endswith("_s") else "ms")
              for name, value in timings(scaled=True).items()}
    values.update({
        "true_evals": (statistics.fmean(r.true_evals for r in runs),
                       "count"),
        "evals_to_target": (statistics.fmean(r.evals_to_target
                                             for r in runs), "count"),
        "final_best": (statistics.fmean(r.final_best for r in runs)
                       - workload.floor, "objective"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    })
    detail = {
        "passes": passes,
        "gen_ms_samples": sum(len(r.gen_s) for r in results),
        "raw_unscaled": timings(scaled=False),
        "speed_scale": {"setup_median": statistics.median(
                            k for _, k in setup),
                        "runs_median": statistics.median(
                            r.scale for r in results)},
        "targets_reached": f"{sum(r.reached for r in runs)} of {len(runs)}",
        "seeds": seeds,
        "setup_samples_s_and_scale": setup,
        "run_s_per_seed": per_seed(results, lambda r: r.scale * r.wall_s),
        "final_best_objective": {
            "mean": statistics.fmean(r.final_best for r in runs),
            "median": statistics.median(r.final_best for r in runs),
            "floor": workload.floor},
        "digests": {str(r.seed): r.digest for r in runs},
        "failures": {str(r.seed): r.failures for r in results if r.failures},
    }
    if workload.optimizer == "cma+surrogate":
        detail["break_even_ms"] = break_even_ms(results,
                                                config.population_size)
    return values, detail, len(results) + raised, failed_runs


def traced(args, harness, workload, config, problem, seeds, csv_dir):
    warm_up(harness, problem, config, workload, seeds)
    plain, raised = run_pass(harness, problem, config, workload, seeds,
                             csv_dir)
    if not plain:
        raise RuntimeError("every run raised")

    tracer = tracing.Tracer()
    is_well = problem.well_problem is not None
    traced_problem = dataclasses.replace(
        problem, raw_objective=tracer.wrap(tracing.objective_span(is_well),
                                           problem.raw_objective))
    failures_before = problem.well_problem.simulation_failures if is_well else 0
    records, walls, scales = {}, {}, {}
    traced_dir = csv_dir / "traced"
    traced_dir.mkdir(exist_ok=True)
    run_loop = tracer.wrap(tracing.RUN_SPAN, run_once)
    with tracing.Patcher() as patcher:
        tracing.install_tracing(patcher, tracer)
        for seed in seeds:
            before = speed.probe()
            start = time.perf_counter()
            try:
                record = run_loop(harness, traced_problem, config,
                                  workload.optimizer, seed)
            except Exception:
                traceback.print_exc()
                raised += 1
                continue
            walls[seed] = time.perf_counter() - start
            scales[seed] = speed.factor([before, speed.probe()])
            records[seed] = record
    sim_failures = (problem.well_problem.simulation_failures - failures_before
                    if is_well else 0)

    mismatched = [r.seed for r in plain if r.seed in records
                  and csv_digest(records[r.seed],
                                 traced_dir / f"run_{r.seed}.csv") != r.digest]
    failed_runs = (raised + sum(1 for r in plain if r.failures)
                   + len(mismatched))

    table = tracing.SpanTable(tracer)
    tracer.save(OUT / f"{workload.name}-seed{args.seed}-spans.npz")
    scale = statistics.fmean(scales.values()) if scales else 1.0
    metrics = tracing.layer_metrics(
        table, tracer.counts, problem, config, workload.optimizer,
        list(records.values()), scale, sim_failures)
    untraced = [r.scale * r.wall_s for r in plain if r.seed in records]
    traced_s = [scales[s] * walls[s] for s in records]
    metrics["metamodel.break_even_ms"] = (
        break_even_ms(plain, config.population_size)
        if workload.optimizer == "cma+surrogate" else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(traced_s) / statistics.fmean(untraced)
        if traced_s else 0.0, "ratio")
    metrics["trace.self_coverage"] = (
        sum(table.self_by_layer().values()) / sum(walls.values())
        if walls else 0.0, "ratio")
    detail = {
        "seeds": seeds,
        "spans": len(table.duration),
        "speed_scale": scale,
        "trace_digest_mismatch": mismatched,
        "span_totals_s": {name: table.total(name) for name in table.names},
        "span_counts": {name: table.count(name) for name in table.names},
        "counts": dict(tracer.counts),
        "failures": {str(r.seed): r.failures for r in plain if r.failures},
    }
    return metrics, detail, len(plain) + len(records) + raised, failed_runs


# ---------------------------------------------------------------------------
# Golden digests


def compare_golden(workload: Workload, seed: int, digests: dict[str, str],
                   fp: dict) -> str:
    """Compare with the recorded digests; a mismatch is reported only."""
    if not GOLDEN.is_file():
        return "no golden file"
    golden = json.loads(GOLDEN.read_text())
    recorded_fp = golden["fingerprint"]
    if recorded_fp != fp:
        differs = sorted(k for k in set(fp) | set(recorded_fp)
                         if fp.get(k) != recorded_fp.get(k))
        return f"not comparable: fingerprint differs in {differs}"
    recorded = golden["digests"].get(workload.name, {}).get(str(seed))
    if recorded is None:
        return f"no golden digests for seed {seed}"
    changed = [s for s, d in digests.items() if recorded.get(s) != d]
    if changed:
        return f"CHANGED for {len(changed)} of {len(digests)} runs: {changed}"
    return f"match ({len(digests)} runs)"


def record_golden(harness, seeds_spec: str):
    first, _, last = seeds_spec.partition("-")
    csv_dir = OUT / "golden"
    csv_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload in WORKLOADS.values():
        config, problem = load_workload(harness, workload, None)
        digests[workload.name] = {}
        for seed in range(int(first), int(last or first) + 1):
            digests[workload.name][str(seed)] = {
                str(run_seed): csv_digest(
                    run_once(harness, problem, config, workload.optimizer,
                             run_seed),
                    csv_dir / f"{workload.name}_{run_seed}.csv")
                for run_seed in workload.seeds(seed)}
            print(f"{workload.name} seed {seed} recorded", flush=True)
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(),
                                  "digests": digests}, indent=1) + "\n")


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-generations", type=int,
                        help="override the workload's generation cap "
                             "(smoke test; skips the golden comparison)")
    parser.add_argument("--record-golden", metavar="FIRST-LAST",
                        help="record CSV digests for these workload seeds")
    args = parser.parse_args(argv)
    if args.record_golden is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness = import_wellopt()
    except (CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden(harness, args.record_golden)
        return 0

    workload = WORKLOADS[args.workload]
    if not (ROOT / workload.config).is_file():
        print(f"perfbench: missing {workload.config}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    config, problem = load_workload(harness, workload, args.max_generations)
    seeds = workload.seeds(args.seed,
                           min(workload.runs, TRACE_RUNS) if args.trace
                           else None)
    csv_dir = OUT / f"csv-{workload.name}-seed{args.seed}"
    csv_dir.mkdir(exist_ok=True)
    fp = fingerprint()

    mode = traced if args.trace else end_to_end
    values, detail, attempted, failed = mode(args, harness, workload, config,
                                             problem, seeds, csv_dir)
    if not args.trace:
        detail["golden"] = ("skipped: generation cap overridden"
                            if args.max_generations is not None else
                            compare_golden(workload, args.seed,
                                           detail["digests"], fp))
        detail["digests_sha256"] = hashlib.sha256(
            json.dumps(detail["digests"], sort_keys=True).encode()).hexdigest()

    metrics = {}
    for metric in declared:
        value, unit = values[metric["name"]]
        if unit != metric["unit"]:
            raise RuntimeError(f"{metric['name']}: unit {unit} is not the "
                               f"declared {metric['unit']}")
        metrics[metric["name"]] = {"value": float(value), "unit": unit}

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(seeds)} seeds x {workload.optimizer}, cap "
          f"{config.max_generations} generations, lambda "
          f"{config.population_size}")
    print(f"fingerprint {json.dumps(fp)} cpu {cpu_model()!r}")
    raw = detail.get("raw_unscaled", {})
    for name, entry in metrics.items():
        note = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}{note}")
    for key in ("gen_ms_samples", "passes", "speed_scale", "targets_reached",
                "break_even_ms", "golden", "digests_sha256", "spans",
                "trace_digest_mismatch", "failures"):
        if key in detail:
            print(f"  {key}: {detail[key]}")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, "fingerprint": fp,
                              "cpu": cpu_model(), "detail": detail},
                             indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
