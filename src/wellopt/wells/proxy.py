"""Deterministic flow proxy standing in for a reservoir simulator.

The proxy reduces two-phase recovery to a handful of documented closed
forms:

* Productivity index (PI): for each well, the sum over traversed grid
  cells of permeability times intersected segment length.
* Drainable oil N_d: total phi * S_o * cell volume, weighted by
  exp(-distance to the producer polyline / drainage radius) and
  converted to barrels. Oil rates are linear in N_d before depletion.
* Depletion: each period produces a fraction of the remaining drainable
  oil. The fraction is eta0 times a producer-deliverability saturation
  term PI_p / (PI_p + pi_half), times an injector-support term that
  blends a primary-recovery floor with saturating injector PI and
  injector-producer connectivity exp(-D_ip / connectivity_length).
* Water cut: rises logistically with the recovery fraction; breakthrough
  comes earlier (the logistic midpoint shifts down) the closer the
  injector sits to the producer. Produced water is
  oil * wc / (1 - wc), gas is a fixed ratio times oil (zero by default).

Period 0 is a drilling period with no production.

Cost: the grid is read-only and the values the proxy reads on every call
(cell centres, oil in place, grid planes, extent) are computed once per
grid (`ReservoirGrid.invariants`). Cell intersections and drainage
distances are numpy passes whose bits must match a per-piece loop and a
row-wise norm; decoding and the geometry check (`wells/geometry.py`)
work on Python floats whose bits must match their numpy forms; the
depletion recurrence runs on Python floats and the water cut is one
array pass, bit for bit the per-period numpy loop; tests/test_wells.py
keeps the loop and numpy versions as the reference.
Traced `well_cma` benchmark run (seed 1, 2-core x86-64 host, one BLAS
thread): 142 us median per objective evaluation; per evaluation, 9 us
decoding, 8 us geometry checks, 38 us productivity indices (both
wells), 31 us drainable oil and 6 us NPV.

Per-well terms: a well's PI and a producer's drainable oil depend on
that well's geometry alone. `well_terms` computes them and
`simulate(..., terms=...)` takes them back, in well order, and sums them
as it would its own, so a caller may cache them per well with the same
bits (`wells/problem.py` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economics import EconomicParams, ProductionProfile
from .geometry import WellGeometry
from .grid import GridInvariants, ReservoirGrid

BARRELS_PER_M3 = 6.2898

INJECTOR = "injector"
PRODUCER = "producer"


@dataclass
class ProxyParams:
    drainage_radius_m: float = 420.0
    base_depletion_rate: float = 0.35  # eta0, per period
    pi_half: float = 2.0e5             # PI saturation scale
    primary_recovery_floor: float = 0.30
    connectivity_length_m: float = 2500.0
    water_cut_max: float = 0.95
    water_cut_steepness: float = 9.0
    breakthrough_half_min: float = 0.20
    breakthrough_half_span: float = 0.45
    breakthrough_length_m: float = 1400.0
    gas_oil_ratio: float = 0.0

    def __post_init__(self):
        for name in ("drainage_radius_m", "pi_half", "connectivity_length_m",
                     "breakthrough_length_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        for name in ("base_depletion_rate", "primary_recovery_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.water_cut_max < 1.0:
            raise ValueError("water_cut_max must lie in [0, 1)")
        if not self.gas_oil_ratio >= 0.0:
            raise ValueError("gas_oil_ratio must be non-negative")


_NO_PIECES = (np.empty(0, dtype=int), np.empty(0))


def _segment_pieces(start: np.ndarray, end: np.ndarray,
                    inv: GridInvariants) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the cells one segment crosses, and the length of
    the segment inside each, in order along the segment.

    The segment is first clipped to the grid box; the clipped piece is
    then cut at every grid-plane crossing and each sub-piece assigned to
    the cell containing its midpoint.
    """
    direction = end - start
    length = math.sqrt(direction.dot(direction))
    if not length > 0.0:   # a NaN segment crosses no cell
        return _NO_PIECES
    s = start.tolist()
    dv = direction.tolist()
    t_lo, t_hi = 0.0, 1.0
    overflow = False
    for axis in range(3):
        d = dv[axis]
        if d == 0.0:
            if not 0.0 <= s[axis] <= inv.extent[axis]:
                return _NO_PIECES
            continue
        # Python floats overflow to +-inf silently; every grid-plane time
        # of this axis lies between t0 and t1
        t0 = (0.0 - s[axis]) / d
        t1 = (inv.extent[axis] - s[axis]) / d
        overflow = overflow or math.isinf(t0) or math.isinf(t1)
        t_lo = max(t_lo, min(t0, t1))
        t_hi = min(t_hi, max(t0, t1))
    if t_lo >= t_hi:
        return _NO_PIECES
    if overflow:
        # a direction component so small (subnormal) that plane times
        # overflow: an infinite time is no crossing inside the segment,
        # and the midpoints may underflow. Same operations, same bits.
        with np.errstate(over="ignore", under="ignore"):
            return _cut_pieces(start, direction, s, dv, length, t_lo, t_hi,
                               inv)
    return _cut_pieces(start, direction, s, dv, length, t_lo, t_hi, inv)


def _cut_pieces(start: np.ndarray, direction: np.ndarray, s: list[float],
                dv: list[float], length: float, t_lo: float, t_hi: float,
                inv: GridInvariants) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of `_segment_pieces` between its clip times; `s` and
    `dv` are `start` and `direction` as floats."""
    cuts = [np.array([t_lo, t_hi])]
    for axis in range(3):
        d = dv[axis]
        if d == 0.0:
            continue
        ts = (inv.planes[axis] - s[axis]) / d
        cuts.append(ts[(t_lo < ts) & (ts < t_hi)])
    cuts = np.sort(np.concatenate(cuts))
    distinct = np.empty(cuts.shape[0], dtype=bool)
    distinct[0] = True
    np.not_equal(cuts[1:], cuts[:-1], out=distinct[1:])
    cuts = cuts[distinct]

    a, b = cuts[:-1], cuts[1:]
    mid = start + (0.5 * (a + b))[:, None] * direction
    idx = np.floor(mid / inv.cell_size).astype(int)
    np.minimum(idx, inv.max_index, out=idx)
    np.maximum(idx, 0, out=idx)
    return idx @ inv.strides, (b - a) * length


def segment_cell_intersections(start: np.ndarray, end: np.ndarray,
                               grid: ReservoirGrid
                               ) -> list[tuple[tuple[int, int, int], float]]:
    """Cells crossed by one segment, with the length inside each cell."""
    flat, lengths = _segment_pieces(np.asarray(start, dtype=float),
                                    np.asarray(end, dtype=float),
                                    grid.invariants)
    cells = zip(*(c.tolist() for c in np.unravel_index(flat, grid.dims)))
    return list(zip(cells, lengths.tolist()))


def productivity_index(well: WellGeometry, grid: ReservoirGrid) -> float:
    """Sum over traversed cells of permeability times in-cell length."""
    inv = grid.invariants
    total = 0.0
    for start, end in well.segments():
        flat, lengths = _segment_pieces(start, end, inv)
        # a sequential sum: np.sum adds pairwise, in another order
        for term in (inv.permeability[flat] * lengths).tolist():
            total += term
    return total


def _segment_distance(inv: GridInvariants, start: np.ndarray,
                      end: np.ndarray) -> np.ndarray:
    """Distance of every cell centre to one segment.

    Works column by column; the squared norm is summed as
    (ex^2 + ey^2) + ez^2, the order of a row-wise norm of (n, 3) rows.
    """
    cx, cy, cz = inv.center_columns
    d = end - start
    denom = float(d @ d)
    sx, sy, sz = start.tolist()
    if denom == 0.0:
        ex, ey, ez = cx - sx, cy - sy, cz - sz
    else:
        # one matrix product, as in a row-wise projection: BLAS may fuse
        # its multiply-adds, so a column-wise sum could differ in the bits
        t = np.clip((inv.centers - start) @ d / denom, 0.0, 1.0)
        dx, dy, dz = d.tolist()
        ex, ey, ez = t * dx, t * dy, t * dz
        for e, c, s in ((ex, cx, sx), (ey, cy, sy), (ez, cz, sz)):
            e += s
            np.subtract(c, e, out=e)
    for e in (ex, ey, ez):
        np.multiply(e, e, out=e)
    ex += ey
    ex += ez
    return np.sqrt(ex, out=ex)


def _distance_to_polyline(inv: GridInvariants,
                          well: WellGeometry) -> np.ndarray:
    """Distance of every cell centre to the nearest drilled segment."""
    segments = well.segments()
    if not segments:
        return np.full(inv.oil_in_place.shape[0], np.inf)
    best = _segment_distance(inv, *segments[0])
    for start, end in segments[1:]:
        np.minimum(best, _segment_distance(inv, start, end), out=best)
    return best


def drainable_oil_barrels(producer: WellGeometry, grid: ReservoirGrid,
                          params: ProxyParams) -> float:
    """phi * S_o volume in the producer's decaying drainage neighborhood."""
    inv = grid.invariants
    weights = _distance_to_polyline(inv, producer)
    np.negative(weights, out=weights)
    weights /= params.drainage_radius_m
    np.exp(weights, out=weights)
    weights *= inv.oil_in_place
    return float(np.sum(weights)) * BARRELS_PER_M3


def _midpoint(well: WellGeometry) -> np.ndarray:
    return 0.5 * (well.heel + well.toe)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """|a - b|, the bits of np.linalg.norm of the 1-D difference."""
    v = a - b
    return math.sqrt(v.dot(v))


def well_terms(well: WellGeometry, role: str, grid: ReservoirGrid,
               params: ProxyParams) -> tuple[float, float | None]:
    """The proxy's per-well terms: the productivity index and, for a
    producer, the drainable oil (None for an injector). Both depend on
    this well's geometry alone, so a caller may keep them per well."""
    pi = productivity_index(well, grid)
    if role != PRODUCER:
        return pi, None
    return pi, drainable_oil_barrels(well, grid, params)


def simulate(wells: list[tuple[WellGeometry, str]], grid: ReservoirGrid,
             econ: EconomicParams, params: ProxyParams | None = None,
             terms: list[tuple[float, float | None]] | None = None
             ) -> ProductionProfile:
    """Run the proxy for one producer/injector pattern.

    `wells` pairs each geometry with its role ("injector" or
    "producer"). Multiple wells per role aggregate by summed PI, summed
    drainable oil, and the minimum injector-producer midpoint distance.
    `terms` holds each well's `well_terms`, in `wells` order, when the
    caller has them already; they are computed otherwise.
    """
    params = params or ProxyParams()
    producers = [w for w, role in wells if role == PRODUCER]
    injectors = [w for w, role in wells if role == INJECTOR]
    if not producers or not injectors:
        raise ValueError("need at least one producer and one injector")

    if terms is None:
        terms = [well_terms(w, role, grid, params) for w, role in wells]
    # each sum runs in well order, whether the terms were kept or not
    pi_prod = sum(pi for (pi, _), (_, role) in zip(terms, wells)
                  if role == PRODUCER)
    pi_inj = sum(pi for (pi, _), (_, role) in zip(terms, wells)
                 if role == INJECTOR)
    drainable = sum(oil for (_, oil), (_, role) in zip(terms, wells)
                    if role == PRODUCER)

    n = econ.periods + 1
    oil = np.zeros(n)
    gas = np.zeros(n)
    water = np.zeros(n)
    if pi_prod <= 0.0 or drainable <= 0.0:
        return ProductionProfile(oil=oil, gas=gas, water=water)

    spacing = min(_distance(_midpoint(p), _midpoint(i))
                  for p in producers for i in injectors)
    deliverability = pi_prod / (pi_prod + params.pi_half)
    injector_strength = (pi_inj / (pi_inj + params.pi_half)
                         * np.exp(-spacing / params.connectivity_length_m))
    support = (params.primary_recovery_floor
               + (1.0 - params.primary_recovery_floor) * injector_strength)
    eta = float(params.base_depletion_rate * deliverability * support)

    breakthrough_half = (params.breakthrough_half_min
                         + params.breakthrough_half_span
                         * (1.0 - np.exp(-spacing / params.breakthrough_length_m)))

    # the recurrence of periods 1..Y on Python floats, then the water cut
    # of all periods at once (np.exp: math.exp differs in the last bit on
    # some arguments)
    q_oil, recovery = [], []
    cumulative = 0.0
    for _ in range(1, n):
        q = eta * (drainable - cumulative)
        q_oil.append(q)
        recovery.append(cumulative / drainable)
        cumulative += q
    q_oil, recovery = np.array(q_oil), np.array(recovery)
    wc = params.water_cut_max / (1.0 + np.exp(
        -params.water_cut_steepness * (recovery - breakthrough_half)))
    oil[1:] = q_oil
    water[1:] = q_oil * wc / (1.0 - wc)
    gas[1:] = params.gas_oil_ratio * q_oil
    return ProductionProfile(oil=oil, gas=gas, water=water)
