"""Multilateral well geometry: genome encoding, decoding, feasibility.

A well genome starts with the heel's Cartesian coordinates, followed by
one spherical step (r, theta, phi) per mainbore deviation, followed by
one (l, r, theta, phi) quadruple per branch, where l is the arc length
from the heel to the branch start along the mainbore. theta is the polar
angle measured from the +z axis (depth increases downward), phi the
azimuth from +x; each step is expressed in the global Cartesian frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def genome_dimension(n_deviations: int, n_branches: int, n_wells: int = 1) -> int:
    """Coordinates needed for n_wells wells of identical layout."""
    if min(n_deviations, n_branches, n_wells) < 0:
        raise ValueError("counts must be non-negative")
    return n_wells * (3 * (1 + n_deviations) + 4 * n_branches)


def spherical_step(r: float, theta: float, phi: float) -> np.ndarray:
    return r * np.array([np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi),
                         np.cos(theta)])


@dataclass
class Branch:
    start_arclength: float
    start: np.ndarray
    end: np.ndarray

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))


@dataclass
class WellGeometry:
    """Decoded polyline form of one well."""

    mainbore: np.ndarray          # (n_deviations + 1, 3) points, heel first
    branches: list[Branch]

    @property
    def heel(self) -> np.ndarray:
        return self.mainbore[0]

    @property
    def toe(self) -> np.ndarray:
        return self.mainbore[-1]

    @property
    def mainbore_length(self) -> float:
        steps = np.diff(self.mainbore, axis=0)
        return float(np.sum(np.linalg.norm(steps, axis=1)))

    @property
    def total_length(self) -> float:
        return self.mainbore_length + sum(b.length for b in self.branches)

    def segments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """All drilled segments: mainbore pieces then branches."""
        segs = [(self.mainbore[i], self.mainbore[i + 1])
                for i in range(len(self.mainbore) - 1)]
        segs.extend((b.start, b.end) for b in self.branches)
        return segs

    def defining_points(self) -> np.ndarray:
        """Heel, deviation points, toe, and branch end points."""
        points = [self.mainbore]
        if self.branches:
            points.append(np.array([b.end for b in self.branches]))
        return np.vstack(points)


def point_at_arclength(mainbore: np.ndarray, arclength: float) -> np.ndarray:
    """Point on the mainbore polyline at a given arc length from the heel.

    The arc length is clamped to [0, total length]; values landing on a
    vertex interpolate trivially within the containing segment.
    """
    steps = np.diff(mainbore, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    total = float(np.sum(lengths))
    s = min(max(arclength, 0.0), total)
    for i, seg_len in enumerate(lengths):
        if s <= seg_len or i == len(lengths) - 1:
            t = s / seg_len if seg_len > 0 else 0.0
            return mainbore[i] + t * steps[i]
        s -= seg_len
    return mainbore[-1]


def decode_well(genome_slice: np.ndarray, n_deviations: int,
                n_branches: int) -> WellGeometry:
    """Turn one well's genome slice into Cartesian geometry."""
    g = np.asarray(genome_slice, dtype=float)
    expected = genome_dimension(n_deviations, n_branches)
    if g.shape != (expected,):
        raise ValueError(f"expected genome slice of length {expected}, "
                         f"got {g.shape}")
    points = np.empty((n_deviations + 1, 3))
    points[0] = g[:3]
    offset = 3
    for i in range(n_deviations):
        r, theta, phi = g[offset:offset + 3]
        points[i + 1] = points[i] + spherical_step(r, theta, phi)
        offset += 3
    branches = []
    for _ in range(n_branches):
        l, r, theta, phi = g[offset:offset + 4]
        start = point_at_arclength(points, l)
        branches.append(Branch(start_arclength=float(l), start=start,
                               end=start + spherical_step(r, theta, phi)))
        offset += 4
    return WellGeometry(mainbore=points, branches=branches)


def encode_well(geometry: WellGeometry) -> np.ndarray:
    """Inverse of decode_well, with angles in canonical ranges.

    theta lands in [0, pi] and phi in (-pi, pi], so decoding then
    re-encoding a genome written in those ranges round-trips.
    """
    parts = [geometry.heel]
    for i in range(len(geometry.mainbore) - 1):
        parts.append(_step_to_spherical(geometry.mainbore[i + 1]
                                        - geometry.mainbore[i]))
    for branch in geometry.branches:
        parts.append([branch.start_arclength])
        parts.append(_step_to_spherical(branch.end - branch.start))
    return np.concatenate([np.atleast_1d(np.asarray(p, float)) for p in parts])


def _step_to_spherical(step: np.ndarray) -> np.ndarray:
    r = float(np.linalg.norm(step))
    if r == 0.0:
        return np.array([0.0, 0.0, 0.0])
    theta = float(np.arccos(np.clip(step[2] / r, -1.0, 1.0)))
    phi = float(np.arctan2(step[1], step[0]))
    return np.array([r, theta, phi])


@dataclass
class GeometryVerdict:
    feasible: bool
    length_excess: float
    out_of_bounds_distance: float


def check_geometry(geometry: WellGeometry, extent: np.ndarray,
                   max_length: float) -> GeometryVerdict:
    """Feasibility of one well against the grid box and length cap.

    A well is inside the reservoir when all its defining points are; the
    out-of-bounds measure is the summed Euclidean distance of offending
    points to the box [0, extent]. Length excess is max(0, total - L_max).
    """
    extent = np.asarray(extent, dtype=float)
    points = geometry.defining_points()
    clamped = np.clip(points, 0.0, extent)
    distances = np.linalg.norm(points - clamped, axis=1)
    out_of_bounds = float(np.sum(distances))
    total_length = geometry.total_length
    excess = max(0.0, total_length - max_length)
    feasible = out_of_bounds == 0.0 and total_length < max_length
    return GeometryVerdict(feasible=feasible, length_excess=excess,
                           out_of_bounds_distance=out_of_bounds)
