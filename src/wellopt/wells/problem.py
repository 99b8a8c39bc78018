"""Well placement as a constrained minimization problem.

Decodes genomes into well geometry, scores them with -NPV on the proxy
simulator, and exposes the feasibility structure two ways: box and
length limits that fit the sum-of-subset interval form go to the
adaptive penalization / rejection machinery (and to GA repair), while
the remaining nonlinear requirement (every defining point inside the
grid, which depends on angles) is enforced in the objective itself with
a large additive penalty sloped by the out-of-bounds distance.

The proxy is separable per well, so each layout well has a memo: two
`functools.lru_cache` functions of its genome block's bytes, pure given
the problem's fixed grid and proxy parameters. `decoded` gives the
geometry (frozen, so a cached well cannot change) and its
`check_geometry` out-of-bounds distance; `terms` gives the well's
`proxy.well_terms`, asked for only once the whole genome is in the grid.
`lru_cache` never stores a call that raised, so a block whose terms fail
fails, and is counted, on every evaluation. Drilling cost and well
spacing are recomputed each time, from the lengths a decoded well
computes once, so every sum keeps its order and its bits. A GA child
changes one coordinate of a parent and often keeps a parent's block (on
`well_ga` about half the PI and drainage computations repeat one);
CMA-ES never repeats a block and only pays the misses. Each cache holds
the WELL_MEMO_SIZE most recently used blocks: a GA's parents are the
previous population, so 128 compute as few terms as an unbounded memo,
while 4,096 raise the benchmark's peak RSS from 62 to 69 MB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..constraints import SumConstraint
from .economics import EconomicParams, drilling_cost, npv
from .geometry import check_geometry, decode_well, genome_dimension
from .grid import ReservoirGrid
from .proxy import INJECTOR, PRODUCER, ProxyParams, simulate, well_terms

GEOMETRY_PENALTY_BASE = 1.0e9
GEOMETRY_PENALTY_SLOPE = 1.0e6   # per length unit of out-of-bounds distance
WELL_MEMO_SIZE = 128


@dataclass(frozen=True)
class WellLayout:
    role: str
    n_deviations: int
    n_branches: int

    def __post_init__(self):
        if self.role not in (INJECTOR, PRODUCER):
            raise ValueError(f"unknown well role {self.role!r}")
        if self.n_deviations < 0 or self.n_branches < 0:
            raise ValueError("deviation/branch counts must be non-negative")

    @property
    def dim(self) -> int:
        return genome_dimension(self.n_deviations, self.n_branches)


def _well_memo(well: WellLayout, grid: ReservoirGrid, proxy: ProxyParams):
    """`decoded(key)` and `terms(key)` of one layout well's block bytes."""

    @functools.lru_cache(WELL_MEMO_SIZE)
    def decoded(key: bytes):
        geometry = decode_well(np.frombuffer(key), well.n_deviations,
                               well.n_branches)
        return geometry, check_geometry(geometry, grid.invariants.extent)

    @functools.lru_cache(WELL_MEMO_SIZE)
    def terms(key: bytes):
        return well_terms(decoded(key)[0], well.role, grid, proxy)

    return decoded, terms


class WellPlacementProblem:
    """One injector/producer pattern on a reservoir grid.

    The layout holds both roles, as `RunConfig` checks, and the genome
    concatenates one block per well in layout order, `dim` coordinates
    in all. Bounds keep heels inside the grid, bore lengths within
    (min_step_m, max_well_length_m), bores near-horizontal (polar angle
    within tilt_range of pi/2, matching a thin reservoir), and azimuths
    in (-pi, pi). The grid and proxy parameters stay fixed for the
    problem's life: its per-well memo holds values derived from them.
    """

    def __init__(self, grid: ReservoirGrid, econ: EconomicParams,
                 proxy: ProxyParams, layout: tuple[WellLayout, ...],
                 min_step_m: float, tilt_range: float):
        self.grid = grid
        self.econ = econ
        self.proxy = proxy
        self.layout = tuple(layout)
        self.min_step_m = min_step_m
        self.tilt_range = tilt_range
        self.simulation_failures = 0
        # each layout well's genome block bounds, decoded and terms
        self._memo = []
        offset = 0
        for well in self.layout:
            self._memo.append((offset, offset + well.dim, *_well_memo(
                well, self.grid, self.proxy)))
            offset += well.dim
        self.dim = offset

    def bounds(self) -> np.ndarray:
        extent = self.grid.invariants.extent
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
        extent = self.grid.invariants.extent
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

    def raw_objective(self, genome: np.ndarray) -> float:
        """-NPV for in-grid wells; a sloped large penalty otherwise.

        Length violations are not penalized here: they are expressed as
        sum constraints and handled by the configured constraint
        machinery (adaptive penalization for CMA-ES, repair for the GA).
        """
        return self._score(genome)[0]

    @np.errstate(under="ignore")   # as by default, whatever the caller set
    def _score(self, genome: np.ndarray):
        """(objective, each well's (geometry, out-of-bounds distance),
        terms, profile, drilling cost); the last three are None unless the
        proxy ran successfully. The proxy's one underflow policy: scored as
        by numpy's default; any other raised floating-point error fails."""
        keys = [genome[start:stop].tobytes()   # bit-exact: -0.0 != 0.0
                for start, stop, _, _ in self._memo]
        wells = [decoded(key) for key, (_, _, decoded, _)
                 in zip(keys, self._memo)]
        out_of_bounds = sum(distance for _, distance in wells)
        if not out_of_bounds == 0.0:   # a NaN distance is out too
            return (GEOMETRY_PENALTY_BASE
                    + GEOMETRY_PENALTY_SLOPE * out_of_bounds,
                    wells, None, None, None)
        geometries = [geometry for geometry, _ in wells]
        try:
            terms = [terms_of(key) for key, (_, _, _, terms_of)
                     in zip(keys, self._memo)]
            profile = simulate([(g, w.role) for g, w
                                in zip(geometries, self.layout)],
                               self.econ, self.proxy, terms)
            cost = drilling_cost(geometries, self.econ)
            objective = -npv(profile, self.econ, cost)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            # worst-case sentinel: never preferable to any scored candidate
            self.simulation_failures += 1
            return 10.0 * GEOMETRY_PENALTY_BASE, wells, None, None, None
        return objective, wells, terms, profile, cost

    def evaluate_detail(self, genome: np.ndarray) -> dict:
        """Full breakdown used by the CLI `evaluate` subcommand."""
        from .proxy import productivity_index

        objective, wells, terms, profile, cost = self._score(genome)
        if terms is None:   # a well out of the grid, or a failed run
            terms = [(productivity_index(g, self.grid), None)
                     for g, _ in wells]
        max_length = self.econ.max_well_length_m
        details = []
        for (geometry, out_of_bounds), (pi, _), well in zip(
                wells, terms, self.layout):
            length = geometry.total_length
            details.append({
                "role": well.role,
                "heel": list(geometry.heel),
                "toe": list(geometry.toe),
                "total_length_m": length,
                "productivity_index": pi,
                "feasible": out_of_bounds == 0.0 and length < max_length,
                "length_excess_m": max(0.0, length - max_length),
                "out_of_bounds_m": out_of_bounds,
            })
        detail = {"wells": details, "objective": objective}
        if profile is not None:
            detail["production"] = {
                "oil_bbl": list(profile.oil),
                "gas_bbl": list(profile.gas),
                "water_bbl": list(profile.water),
                "cumulative_oil_bbl": profile.cumulative_oil,
            }
            detail["drilling_cost"] = cost
            detail["npv"] = -objective
        return detail
