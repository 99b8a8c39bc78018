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
(cell centres, oil in place, permeability, grid planes, extent) are
computed once per grid (`ReservoirGrid.invariants`). Drainage distances
are numpy passes over every cell whose bits must match a row-wise norm;
a segment's (N, 3) offsets are filled by column (a broadcast is slower).
A segment crosses a few cells only, so its cell intersections are one
loop on Python floats (numpy's per-call cost on arrays of 2 to 50
elements made a numpy form slower) whose bits must match the per-piece
numpy loop; decoding and the geometry check (`wells/geometry.py`) work
on Python floats whose bits must match their numpy forms, and the readers
here unpack a decoded well's Python-float points as they are;
`geometry.dot_norm` is the one 3-vector length with numpy's BLAS bits (a
branch, a segment, the well spacing); `simulate`'s
tail (spacing, depletion recurrence, water cut) runs on Python floats with
one np.exp for both spacing terms and one for the water cuts, bit for bit
the per-period numpy loop; tests/test_wells.py keeps the loop and numpy
versions as the reference. Underflow follows the objective's one policy
(`WellPlacementProblem._score`).

Per-well terms: a well's PI and a producer's drainable oil depend on
that well's geometry alone. `well_terms` computes them, a caller keeps
them per well (`wells/problem.py` memoizes them per genome block), and
`simulate` takes them, in well order, and sums them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economics import EconomicParams, ProductionProfile
from .geometry import Point, WellGeometry, dot_norm
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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("base_depletion_rate", "primary_recovery_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.water_cut_max < 1.0:
            raise ValueError("water_cut_max must lie in [0, 1)")
        if not self.gas_oil_ratio >= 0.0:
            raise ValueError("gas_oil_ratio must be non-negative")


def _segment_pieces(start: Point, end: Point,
                    inv: GridInvariants) -> list[tuple[int, float]]:
    """Flat index of each cell one segment crosses and the segment's
    length inside it, in order along the segment.

    The segment is clipped to the grid box; the clipped piece is cut at
    every grid-plane crossing and each sub-piece assigned to the cell
    containing its midpoint. On Python floats, which overflow and
    underflow silently: a subnormal direction component puts that axis's
    plane crossings at +-inf, so none lies inside the segment, and a NaN
    midpoint coordinate (from a NaN or infinite endpoint) takes index 0
    on its axis.
    """
    sx, sy, sz = start
    ex, ey, ez = end
    dx, dy, dz = d = (ex - sx, ey - sy, ez - sz)
    length = dot_norm(start, end)
    if length == 0.0:
        return []
    t_lo, t_hi = 0.0, 1.0
    for sa, da, size in zip(start, d, inv.extent):
        if da == 0.0:
            if not 0.0 <= sa <= size:
                return []
            continue
        t0 = (0.0 - sa) / da
        t1 = (size - sa) / da
        t_lo = max(t_lo, min(t0, t1))
        t_hi = min(t_hi, max(t0, t1))
    if t_lo >= t_hi:
        return []
    cuts = [t_lo, t_hi]
    for sa, da, planes in zip(start, d, inv.planes):
        if da != 0.0:
            cuts += [t for p in planes
                     if t_lo < (t := (p - sa) / da) < t_hi]
    cuts.sort()

    (cx, cy, cz), (mx, my, mz) = inv.cell_size, inv.max_index
    kx, ky, _ = inv.strides
    pieces = []
    a = t_lo
    for b in cuts:
        if b == a:      # t_lo itself, or a repeated crossing
            continue
        h = 0.5 * (a + b)
        x = (sx + h * dx) / cx
        y = (sy + h * dy) / cy
        z = (sz + h * dz) / cz
        # clamped to [0, max] (NaN takes 0), then floored by int()
        i = int(x if 0.0 <= x <= mx else mx if x > mx else 0.0)
        j = int(y if 0.0 <= y <= my else my if y > my else 0.0)
        k = int(z if 0.0 <= z <= mz else mz if z > mz else 0.0)
        pieces.append((i * kx + j * ky + k, (b - a) * length))
        a = b
    return pieces


def productivity_index(well: WellGeometry, grid: ReservoirGrid) -> float:
    """Sum over traversed cells of permeability times in-cell length."""
    inv = grid.invariants
    permeability = inv.permeability
    total = 0.0
    for start, end in well.segments():
        for flat, piece in _segment_pieces(start, end, inv):
            total += permeability[flat] * piece
    return total


def _segment_distance(inv: GridInvariants, start: Point,
                      end: Point) -> np.ndarray:
    """Distance of every cell centre to one segment.

    Works column by column; the squared norm is summed as
    (ex^2 + ey^2) + ez^2, the order of a row-wise norm of (n, 3) rows.
    """
    cx, cy, cz = inv.center_columns
    sx, sy, sz = start
    dx, dy, dz = end[0] - sx, end[1] - sy, end[2] - sz
    d = np.array([dx, dy, dz])
    denom = float(d @ d)
    if denom == 0.0:
        ex, ey, ez = cx - sx, cy - sy, cz - sz
    else:
        # one product of row-major (N, 3) offsets as in a row-wise projection
        # (BLAS may fuse multiply-adds), filled by column: numpy runs
        # `centers - start` as one short loop per row
        offsets = np.empty((len(cx), 3))
        for axis, (c, s) in enumerate(((cx, sx), (cy, sy), (cz, sz))):
            np.subtract(c, s, out=offsets[:, axis])
        t = offsets @ d
        t /= denom
        np.clip(t, 0.0, 1.0, out=t)
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
    return weights.sum().item() * BARRELS_PER_M3


def _midpoint(well: WellGeometry) -> Point:
    """0.5 * (heel + toe) on Python floats, whose underflow is silent."""
    (hx, hy, hz), (tx, ty, tz) = well.heel, well.toe
    return (0.5 * (hx + tx), 0.5 * (hy + ty), 0.5 * (hz + tz))


def well_terms(well: WellGeometry, role: str, grid: ReservoirGrid,
               params: ProxyParams) -> tuple[float, float | None]:
    """The proxy's per-well terms: the productivity index and, for a
    producer, the drainable oil (None for an injector). Both depend on
    this well's geometry alone, so a caller may keep them per well."""
    pi = productivity_index(well, grid)
    if role != PRODUCER:
        return pi, None
    return pi, drainable_oil_barrels(well, grid, params)


def simulate(wells: list[tuple[WellGeometry, str]], econ: EconomicParams,
             params: ProxyParams, terms: list[tuple[float, float | None]]
             ) -> ProductionProfile:
    """Run the proxy for one producer/injector pattern.

    `wells` pairs each geometry with its role, at least one "injector"
    and one "producer", and `terms` holds each well's `well_terms`, in
    `wells` order. Multiple wells per role aggregate by summed PI, summed
    drainable oil, and the minimum injector-producer midpoint distance.
    """
    producers = [w for w, role in wells if role == PRODUCER]
    injectors = [w for w, role in wells if role == INJECTOR]

    pi_prod = sum(pi for (pi, _), (_, role) in zip(terms, wells)
                  if role == PRODUCER)
    pi_inj = sum(pi for (pi, _), (_, role) in zip(terms, wells)
                 if role == INJECTOR)
    drainable = sum(oil for (_, oil), (_, role) in zip(terms, wells)
                    if role == PRODUCER)

    n = econ.periods + 1
    if pi_prod <= 0.0 or drainable <= 0.0:
        return ProductionProfile(oil=[0.0] * n, gas=[0.0] * n,
                                 water=[0.0] * n)

    spacing = min(dot_norm(_midpoint(i), _midpoint(p))
                  for p in producers for i in injectors)
    # np.exp of a list: math.exp differs in the last bit on some arguments
    connectivity, breakthrough = np.exp(
        [-spacing / params.connectivity_length_m,
         -spacing / params.breakthrough_length_m]).tolist()
    deliverability = pi_prod / (pi_prod + params.pi_half)
    injector_strength = pi_inj / (pi_inj + params.pi_half) * connectivity
    support = (params.primary_recovery_floor
               + (1.0 - params.primary_recovery_floor) * injector_strength)
    eta = params.base_depletion_rate * deliverability * support
    breakthrough_half = (params.breakthrough_half_min + (1.0 - breakthrough)
                         * params.breakthrough_half_span)

    oil, exponents = [0.0], []
    cumulative = 0.0
    for _ in range(1, n):
        q = eta * (drainable - cumulative)
        oil.append(q)
        exponents.append(-params.water_cut_steepness
                         * (cumulative / drainable - breakthrough_half))
        cumulative += q
    water = [0.0]
    for q, e in zip(oil[1:], np.exp(exponents).tolist()):
        wc = params.water_cut_max / (1.0 + e)
        water.append(q * wc / (1.0 - wc))
    gas = [0.0, *(params.gas_oil_ratio * q for q in oil[1:])]
    return ProductionProfile(oil=oil, gas=gas, water=water)
