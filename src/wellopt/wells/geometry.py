"""Multilateral well geometry: genome encoding, decoding, grid check.

A well genome starts with the heel's Cartesian coordinates, followed by
one spherical step (r, theta, phi) per mainbore deviation, followed by
one (l, r, theta, phi) quadruple per branch, where l is the arc length
from the heel to the branch start along the mainbore. theta is the polar
angle measured from the +z axis (depth increases downward), phi the
azimuth from +x; each step is expressed in the global Cartesian frame.

A decoded well is frozen: its points are (x, y, z) tuples of Python
floats, so it can be kept and shared, and its lengths are computed once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..floats import pairwise_sum

Point = tuple[float, float, float]


def _norm(dx: float, dy: float, dz: float) -> float:
    """One row of np.linalg.norm(rows, axis=1), with its bits: the squares
    are added as (dx^2 + dy^2) + dz^2."""
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def dot_norm(a: Point, b: Point) -> float:
    """|b - a| with the bits of np.linalg.norm of the 1-D difference v,
    which numpy takes as sqrt(v.dot(v)): BLAS may fuse the dot's
    multiply-adds, so the row-wise `_norm` can differ in the last bit."""
    v = np.array([b[0] - a[0], b[1] - a[1], b[2] - a[2]])
    return math.sqrt(v.dot(v))


def _steps(points: Sequence[Point]) -> list[Point]:
    """np.diff of the polyline points along the rows."""
    return [(b[0] - a[0], b[1] - a[1], b[2] - a[2])
            for a, b in zip(points, points[1:])]


@dataclass(frozen=True)
class Branch:
    start_arclength: float
    start: Point
    end: Point

    @cached_property
    def length(self) -> float:
        return dot_norm(self.start, self.end)


@dataclass(frozen=True)
class WellGeometry:
    """Decoded polyline form of one well."""

    mainbore: tuple[Point, ...]   # n_deviations + 1 points, heel first
    branches: tuple[Branch, ...]

    @property
    def heel(self) -> Point:
        return self.mainbore[0]

    @property
    def toe(self) -> Point:
        return self.mainbore[-1]

    @cached_property
    def mainbore_length(self) -> float:
        return pairwise_sum([_norm(*step) for step in _steps(self.mainbore)])

    @cached_property
    def total_length(self) -> float:
        return self.mainbore_length + sum(b.length for b in self.branches)

    def segments(self) -> list[tuple[Point, Point]]:
        """All drilled segments: mainbore pieces then branches."""
        segs = list(zip(self.mainbore, self.mainbore[1:]))
        segs.extend((b.start, b.end) for b in self.branches)
        return segs


def _point_at_arclength(points: Sequence[Point], arclength: float) -> Point:
    """The point at an arc length from the heel along the polyline
    `points`, the arc length clamped to [0, total length]."""
    steps = _steps(points)
    lengths = [_norm(*step) for step in steps]
    s = min(max(arclength, 0.0), pairwise_sum(lengths))
    for i, seg_len in enumerate(lengths):
        if s <= seg_len or i == len(lengths) - 1:
            t = s / seg_len if seg_len > 0 else 0.0
            (x, y, z), (dx, dy, dz) = points[i], steps[i]
            return (x + t * dx, y + t * dy, z + t * dz)
        s -= seg_len
    return points[-1]


def block_coordinates(n_deviations: int, n_branches: int) -> tuple[str, ...]:
    """Each coordinate's name in a well's block, in `decode_well`'s order."""
    return (("x", "y", "z") + ("r", "theta", "phi") * n_deviations
            + ("l", "r", "theta", "phi") * n_branches)


def decode_well(genome_slice: np.ndarray, n_deviations: int,
                n_branches: int) -> WellGeometry:
    """Turn one well's `block_coordinates` slice, a float64 array, into
    Cartesian geometry. Underflow follows the objective's policy
    (`wells/problem.py`)."""
    coords = genome_slice.tolist()
    # numpy's float64 trig, not the math module's: numpy may use its own
    # SIMD routines, whose bits can differ from the C library's
    sines = np.sin(genome_slice).tolist()
    cosines = np.cos(genome_slice).tolist()

    def step(at: int) -> Point:
        """The Cartesian step of the (r, theta, phi) at coords[at]."""
        r, sin_theta = coords[at], sines[at + 1]
        return (r * (sin_theta * cosines[at + 2]),
                r * (sin_theta * sines[at + 2]),
                r * cosines[at + 1])

    points = [(coords[0], coords[1], coords[2])]
    offset = 3
    for _ in range(n_deviations):
        (x, y, z), (dx, dy, dz) = points[-1], step(offset)
        points.append((x + dx, y + dy, z + dz))
        offset += 3
    branches = []
    for _ in range(n_branches):
        start = _point_at_arclength(points, coords[offset])
        (x, y, z), (dx, dy, dz) = start, step(offset + 1)
        branches.append(Branch(start_arclength=coords[offset], start=start,
                               end=(x + dx, y + dy, z + dz)))
        offset += 4
    return WellGeometry(mainbore=tuple(points), branches=tuple(branches))


def check_geometry(geometry: WellGeometry, extent: Sequence[float]) -> float:
    """How far one well lies outside the grid box [0, extent]: the summed
    Euclidean distance of its defining points to the box, 0.0 inside."""
    lx, ly, lz = extent
    distances = []
    # heel, deviation points, toe and branch ends
    for x, y, z in (*geometry.mainbore, *(b.end for b in geometry.branches)):
        # point minus its clamp onto the box; a NaN stays NaN, as in
        # np.clip, and the sign of a zero is squared away
        distances.append(_norm(x - (0.0 if x < 0.0 else lx if x > lx else x),
                               y - (0.0 if y < 0.0 else ly if y > ly else y),
                               z - (0.0 if z < 0.0 else lz if z > lz else z)))
    return pairwise_sum(distances)
