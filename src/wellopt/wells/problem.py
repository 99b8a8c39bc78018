"""Well placement as a constrained minimization problem.

Decodes genomes into well geometry, scores them with -NPV on the proxy
simulator, and exposes the feasibility structure two ways: box and
length limits that fit the sum-of-subset interval form go to the
adaptive penalization / rejection machinery (and to GA repair), while
the remaining nonlinear requirement (every defining point inside the
grid, which depends on angles) is enforced in the objective itself with
a large additive penalty sloped by the out-of-bounds distance.

The proxy is separable per well, so the problem keeps a small memo per
layout well, keyed by the bytes of that well's genome block: the decoded
geometry (read-only arrays), its geometry verdict and, once the whole
genome was in the grid and simulated without failure, its
`proxy.well_terms`. Drilling cost and well spacing are recomputed on
every evaluation, so every sum keeps its order and its bits. A GA child
changes one coordinate of a parent, so it often keeps a parent's block:
on the `well_ga` benchmark (workload seed 1, 20,404 true evaluations)
47% of the PI computations and 50% of the drainable-oil ones repeat a
block, which the memo skips; CMA-ES samples continuously and never
repeats one (0% on `well_cma` and `well_surrogate`), so it only pays the
misses (a few microseconds per evaluation). Each memo holds the 128
(WELL_MEMO_SIZE) most recently used blocks: a GA's parents are the
previous population, so an unbounded memo computes no fewer terms.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..constraints import SumConstraint
from .economics import EconomicParams, drilling_cost, npv
from .geometry import (GeometryVerdict, WellGeometry, check_geometry,
                       decode_well, genome_dimension)
from .grid import ReservoirGrid
from .proxy import INJECTOR, PRODUCER, ProxyParams, simulate, well_terms

GEOMETRY_PENALTY_BASE = 1.0e9
GEOMETRY_PENALTY_SLOPE = 1.0e6   # per length unit of out-of-bounds distance
# Entries kept per layout well, least recently used dropped first. A GA
# child copies its well blocks from parents in the previous population,
# so a short memo catches nearly every repeat: on `well_ga` 128 entries
# compute as few proxy terms as an unbounded memo, while 4,096 raise the
# benchmark's peak RSS from 62 to 69 MB (its bound is 5%).
WELL_MEMO_SIZE = 128


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


class _WellEntry:
    """One well block's decoded geometry (read-only arrays) and verdict;
    `terms` is its `proxy.well_terms`, kept after the first successful
    in-grid simulation. A slotted class: a dataclass costs set-up time."""

    __slots__ = ("geometry", "verdict", "terms")

    def __init__(self, geometry: WellGeometry, verdict: GeometryVerdict):
        self.geometry = geometry
        self.verdict = verdict
        self.terms: tuple[float, float | None] | None = None


class WellPlacementProblem:
    """One injector/producer pattern on a reservoir grid.

    The genome concatenates one block per well in layout order. Bounds
    keep heels inside the grid, bore lengths within (min_step_m,
    max_well_length_m), bores near-horizontal (polar angle within
    tilt_range of pi/2, matching a thin reservoir), and azimuths in
    (-pi, pi). The grid, economics and proxy parameters stay fixed for
    the problem's life: its per-well memo holds values derived from them.
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
        # each layout well with the bounds of its genome block
        self._blocks = []
        offset = 0
        for well in self.layout:
            self._blocks.append((well, offset, offset + well.dim))
            offset += well.dim
        self.dim = offset
        self._memo = [OrderedDict() for _ in self.layout]

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

    def _entries(self, genome: np.ndarray) -> list[_WellEntry]:
        """The memo entry of each well block of a genome, in layout order;
        a block seen for the first time is decoded and checked."""
        genome = np.asarray(genome, dtype=float)
        if genome.shape != (self.dim,):
            raise ValueError(f"genome must have length {self.dim}")
        extent = self.grid.invariants.extent   # Python floats
        entries = []
        for (well, start, stop), memo in zip(self._blocks, self._memo):
            block = genome[start:stop]
            key = block.tobytes()   # bit-exact: -0.0 and 0.0 differ
            entry = memo.get(key)
            if entry is None:
                geometry = decode_well(block, well.n_deviations,
                                       well.n_branches)
                geometry.mainbore.setflags(write=False)
                for branch in geometry.branches:
                    branch.start.setflags(write=False)
                    branch.end.setflags(write=False)
                entry = memo[key] = _WellEntry(geometry, check_geometry(
                    geometry, extent, self.econ.max_well_length_m))
                if len(memo) > WELL_MEMO_SIZE:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
            entries.append(entry)
        return entries

    def raw_objective(self, genome: np.ndarray) -> float:
        """-NPV for in-grid wells; a sloped large penalty otherwise.

        Length violations are not penalized here: they are expressed as
        sum constraints and handled by the configured constraint
        machinery (adaptive penalization for CMA-ES, repair for the GA).
        """
        return self._score(genome)[0]

    def _score(self, genome: np.ndarray):
        """(objective, memo entries, profile, drilling cost) of a genome;
        profile and cost are None unless the proxy ran successfully."""
        entries = self._entries(genome)
        out_of_bounds = sum(e.verdict.out_of_bounds_distance
                            for e in entries)
        if out_of_bounds > 0.0:
            return (GEOMETRY_PENALTY_BASE
                    + GEOMETRY_PENALTY_SLOPE * out_of_bounds,
                    entries, None, None)
        wells = [(e.geometry, w.role) for e, w in zip(entries, self.layout)]
        try:
            terms = [well_terms(geometry, role, self.grid, self.proxy)
                     if e.terms is None else e.terms
                     for e, (geometry, role) in zip(entries, wells)]
            profile = simulate(wells, self.grid, self.econ, self.proxy,
                               terms)
            cost = drilling_cost([g for g, _ in wells], self.econ)
            objective = -npv(profile, self.econ, cost)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            # worst-case sentinel: never preferable to any scored candidate
            self.simulation_failures += 1
            return 10.0 * GEOMETRY_PENALTY_BASE, entries, None, None
        for entry, well_term in zip(entries, terms):
            entry.terms = well_term   # kept only from a successful run
        return objective, entries, profile, cost

    def evaluate_detail(self, genome: np.ndarray) -> dict:
        """Full breakdown used by the CLI `evaluate` subcommand."""
        from .proxy import productivity_index

        objective, entries, profile, cost = self._score(genome)
        detail = {
            "wells": [
                {
                    "role": well.role,
                    "heel": e.geometry.heel.tolist(),
                    "toe": e.geometry.toe.tolist(),
                    "total_length_m": e.geometry.total_length,
                    # the scored term; computed here when the proxy did
                    # not run (a well out of the grid, a failed run)
                    "productivity_index": (
                        productivity_index(e.geometry, self.grid)
                        if e.terms is None else e.terms[0]),
                    "feasible": e.verdict.feasible,
                    "length_excess_m": e.verdict.length_excess,
                    "out_of_bounds_m": e.verdict.out_of_bounds_distance,
                }
                for e, well in zip(entries, self.layout)
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
