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
on Python floats whose bits must match their numpy forms; the depletion
recurrence runs on Python floats and the water cut is one array pass,
bit for bit the per-period numpy loop; tests/test_wells.py keeps the
loop and numpy versions as the reference.

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


def _segment_pieces(start: np.ndarray, end: np.ndarray,
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
    sx, sy, sz = s = start.tolist()
    ex, ey, ez = end.tolist()
    dx, dy, dz = d = [ex - sx, ey - sy, ez - sz]
    direction = np.array(d)
    length = math.sqrt(direction.dot(direction))   # np.linalg.norm's bits
    if length == 0.0:
        return []
    t_lo, t_hi = 0.0, 1.0
    for sa, da, size in zip(s, d, inv.extent):
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
    for sa, da, planes in zip(s, d, inv.planes):
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


def segment_cell_intersections(start: np.ndarray, end: np.ndarray,
                               grid: ReservoirGrid
                               ) -> list[tuple[tuple[int, int, int], float]]:
    """Cells crossed by one segment, with the length inside each cell."""
    inv = grid.invariants
    kx, ky, _ = inv.strides
    pieces = _segment_pieces(np.asarray(start, dtype=float),
                             np.asarray(end, dtype=float), inv)
    return [((flat // kx, flat % kx // ky, flat % ky), piece)
            for flat, piece in pieces]


def productivity_index(well: WellGeometry, grid: ReservoirGrid) -> float:
    """Sum over traversed cells of permeability times in-cell length."""
    inv = grid.invariants
    permeability = inv.permeability
    total = 0.0
    for start, end in well.segments():
        for flat, piece in _segment_pieces(start, end, inv):
            total += permeability[flat] * piece
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
        # one product of row-major (N, 3) offsets as in a row-wise projection
        # (BLAS may fuse multiply-adds), filled by column: numpy runs
        # `centers - start` as one short loop per row
        offsets = np.empty(inv.centers.shape)
        for axis, (c, s) in enumerate(((cx, sx), (cy, sy), (cz, sz))):
            np.subtract(c, s, out=offsets[:, axis])
        t = offsets @ d
        t /= denom
        np.clip(t, 0.0, 1.0, out=t)
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
    return weights.sum().item() * BARRELS_PER_M3


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
