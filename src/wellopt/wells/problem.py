"""Well placement as a constrained minimization problem.

Decodes genomes into well geometry, scores them with -NPV on the proxy
simulator, and exposes the feasibility structure two ways: box and
length limits that fit the sum-of-subset interval form go to the
adaptive penalization / rejection machinery (and to GA repair), while
the remaining nonlinear requirement (every defining point inside the
grid, which depends on angles) is enforced in the objective itself with
a large additive penalty sloped by the out-of-bounds distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constraints import SumConstraint
from .economics import EconomicParams, drilling_cost, npv
from .geometry import (WellGeometry, check_geometry, decode_well,
                       genome_dimension)
from .grid import ReservoirGrid
from .proxy import INJECTOR, PRODUCER, ProxyParams, simulate

GEOMETRY_PENALTY_BASE = 1.0e9
GEOMETRY_PENALTY_SLOPE = 1.0e6   # per length unit of out-of-bounds distance


@dataclass(frozen=True)
class WellLayout:
    role: str
    n_deviations: int = 1
    n_branches: int = 0

    def __post_init__(self):
        if self.role not in (INJECTOR, PRODUCER):
            raise ValueError(f"unknown well role {self.role!r}")
        if self.n_deviations < 0 or self.n_branches < 0:
            raise ValueError("deviation/branch counts must be non-negative")

    @property
    def dim(self) -> int:
        return genome_dimension(self.n_deviations, self.n_branches)


DEFAULT_LAYOUT = (WellLayout(INJECTOR, 1, 0), WellLayout(PRODUCER, 1, 0))


class WellPlacementProblem:
    """One injector/producer pattern on a reservoir grid.

    The genome concatenates one block per well in layout order. Bounds
    keep heels inside the grid, bore lengths within (min_step_m,
    max_well_length_m), bores near-horizontal (polar angle within
    tilt_range of pi/2, matching a thin reservoir), and azimuths in
    (-pi, pi).
    """

    def __init__(self, grid: ReservoirGrid,
                 econ: EconomicParams | None = None,
                 proxy: ProxyParams | None = None,
                 layout: tuple[WellLayout, ...] = DEFAULT_LAYOUT,
                 min_step_m: float = 50.0,
                 tilt_range: float = 0.15):
        self.grid = grid
        self.econ = econ or EconomicParams()
        self.proxy = proxy or ProxyParams()
        self.layout = tuple(layout)
        if not any(w.role == PRODUCER for w in self.layout):
            raise ValueError("layout needs at least one producer")
        if not any(w.role == INJECTOR for w in self.layout):
            raise ValueError("layout needs at least one injector")
        self.min_step_m = min_step_m
        self.tilt_range = tilt_range
        self.simulation_failures = 0

    @property
    def dim(self) -> int:
        return sum(w.dim for w in self.layout)

    def bounds(self) -> np.ndarray:
        extent = self.grid.extent
        z_margin = min(0.15 * extent[2], 20.0)
        r_hi = self.econ.max_well_length_m
        lo_t, hi_t = math.pi / 2 - self.tilt_range, math.pi / 2 + self.tilt_range
        rows = []
        for well in self.layout:
            rows.append((0.0, extent[0]))
            rows.append((0.0, extent[1]))
            rows.append((z_margin, extent[2] - z_margin))
            for _ in range(well.n_deviations):
                rows.append((self.min_step_m, r_hi))
                rows.append((lo_t, hi_t))
                rows.append((-math.pi, math.pi))
            for _ in range(well.n_branches):
                rows.append((1.0, r_hi))          # arc-length offset l
                rows.append((self.min_step_m, r_hi))
                rows.append((lo_t, hi_t))
                rows.append((-math.pi, math.pi))
        return np.array(rows)

    def constraints(self) -> list[SumConstraint]:
        """Heel box limits (one coordinate each) and per-well length."""
        extent = self.grid.extent
        out = []
        offset = 0
        for well in self.layout:
            for axis in range(3):
                out.append(SumConstraint(indices=(offset + axis,),
                                         lower=0.0, upper=extent[axis]))
            r_indices = []
            pos = offset + 3
            for _ in range(well.n_deviations):
                r_indices.append(pos)
                pos += 3
            for _ in range(well.n_branches):
                r_indices.append(pos + 1)
                pos += 4
            if r_indices:
                out.append(SumConstraint(indices=tuple(r_indices), lower=1.0,
                                         upper=self.econ.max_well_length_m))
            offset += well.dim
        return out

    def decode(self, genome: np.ndarray) -> list[tuple[WellGeometry, str]]:
        genome = np.asarray(genome, dtype=float)
        if genome.shape != (self.dim,):
            raise ValueError(f"genome must have length {self.dim}")
        wells = []
        offset = 0
        for well in self.layout:
            geometry = decode_well(genome[offset:offset + well.dim],
                                   well.n_deviations, well.n_branches)
            wells.append((geometry, well.role))
            offset += well.dim
        return wells

    def raw_objective(self, genome: np.ndarray) -> float:
        """-NPV for in-grid wells; a sloped large penalty otherwise.

        Length violations are not penalized here: they are expressed as
        sum constraints and handled by the configured constraint
        machinery (adaptive penalization for CMA-ES, repair for the GA).
        """
        return self._score(self.decode(genome))[0]

    def _score(self, wells: list[tuple[WellGeometry, str]]):
        """(objective, verdicts, profile, drilling cost) of decoded wells;
        profile and cost are None unless the proxy ran successfully."""
        extent = self.grid.invariants.extent   # Python floats
        verdicts = [check_geometry(geometry, extent,
                                   self.econ.max_well_length_m)
                    for geometry, _ in wells]
        out_of_bounds = sum(v.out_of_bounds_distance for v in verdicts)
        if out_of_bounds > 0.0:
            return (GEOMETRY_PENALTY_BASE
                    + GEOMETRY_PENALTY_SLOPE * out_of_bounds,
                    verdicts, None, None)
        try:
            profile = simulate(wells, self.grid, self.econ, self.proxy)
            cost = drilling_cost([g for g, _ in wells], self.econ)
            return -npv(profile, self.econ, cost), verdicts, profile, cost
        except (ValueError, FloatingPointError, ZeroDivisionError):
            # worst-case sentinel: never preferable to any scored candidate
            self.simulation_failures += 1
            return 10.0 * GEOMETRY_PENALTY_BASE, verdicts, None, None

    def evaluate_detail(self, genome: np.ndarray) -> dict:
        """Full breakdown used by the CLI `evaluate` subcommand."""
        from .proxy import productivity_index

        wells = self.decode(genome)
        objective, verdicts, profile, cost = self._score(wells)
        detail = {
            "wells": [
                {
                    "role": role,
                    "heel": geometry.heel.tolist(),
                    "toe": geometry.toe.tolist(),
                    "total_length_m": geometry.total_length,
                    "productivity_index": productivity_index(geometry,
                                                             self.grid),
                    "feasible": verdict.feasible,
                    "length_excess_m": verdict.length_excess,
                    "out_of_bounds_m": verdict.out_of_bounds_distance,
                }
                for (geometry, role), verdict in zip(wells, verdicts)
            ],
            "objective": objective,
        }
        if profile is not None:
            detail["production"] = {
                "oil_bbl": profile.oil.tolist(),
                "gas_bbl": profile.gas.tolist(),
                "water_bbl": profile.water.tolist(),
                "cumulative_oil_bbl": profile.cumulative_oil,
            }
            detail["drilling_cost"] = cost
            detail["npv"] = -objective
        return detail
