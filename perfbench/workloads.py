"""The benchmark's workloads: which shipped config, which optimizer arm,
how many generations and seeded runs, and the target for evals_to_target.
Why each workload is in the benchmark is stated in BENCHMARK.json.

Each benchmark run of a workload derives its optimizer seeds from the
workload seed: seeds 1000 * seed + i for i in range(runs). Targets are
objective values (lower is better; -NPV on the well problem), chosen so
that most seeded runs reach them before the generation cap: a run that
does not counts all its true evaluations.

final_best is the mean over seeds of the final best objective minus the
workload's floor: a round value twelve or more ten-seed interquartile
ranges of that mean below it, so that its spread stays under a third of
its 0.25 bound (perfbench/README.md gives the figures).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str            # shipped config, relative to the checkout root
    optimizer: str         # "cma", "cma+surrogate" or "ga"
    max_generations: int   # generation cap of every seeded run
    runs: int              # seeded runs per benchmark run
    target: float          # objective threshold for evals_to_target
    floor: float           # final_best is measured from here

    def seeds(self, seed: int, runs: int | None = None) -> list[int]:
        return [1000 * seed + i for i in range(runs or self.runs)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="well_cma",
        config="configs/well_cma_vs_ga.json",
        optimizer="cma",
        max_generations=24,
        runs=32,
        target=-1.8e9,
        floor=-2.7e9),
    Workload(
        name="well_surrogate",
        config="configs/well_cma_surrogate.json",
        optimizer="cma+surrogate",
        max_generations=12,
        runs=16,
        target=-1.4e9,
        floor=-2.5e9),
    Workload(
        name="sphere_constrained",
        config="configs/constrained_sphere.json",
        optimizer="cma",
        max_generations=500,
        runs=32,
        target=16.5,
        floor=15.0),
    Workload(
        name="well_ga",
        config="configs/well_cma_vs_ga.json",
        optimizer="ga",
        max_generations=40,
        runs=40,
        target=-1.0e9,
        floor=-2.9e9),
)}
