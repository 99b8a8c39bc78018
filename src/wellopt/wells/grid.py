"""Synthetic reservoir grid: per-cell rock/fluid fields plus JSON I/O.

The bundled demonstration grid mirrors a 19 x 28 x 5 block layout and is
generated from a fixed seed with two high-porosity, high-oil-saturation
lobes, so repository runs are reproducible from the data file alone.

A grid is immutable: its fields cannot be rebound and its arrays are
read-only copies, so the values derived from it once (`invariants`)
cannot go stale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_DIMS = (19, 28, 5)
DEFAULT_CELL_SIZE = (180.0, 180.0, 24.0)
GRID_SCHEMA_VERSION = 1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class GridInvariants:
    """Values the flow proxy reads on every evaluation, derived once from
    a grid. The drainage kernels read read-only arrays; the cell
    intersections read tuples of Python numbers."""

    __slots__ = ("center_columns", "oil_in_place", "permeability",
                 "cell_size", "max_index", "strides", "extent", "planes")

    def __init__(self, grid: "ReservoirGrid"):
        nx, ny, nz = grid.dims
        cells = np.indices(grid.dims).reshape(3, -1)   # per axis, C order
        self.center_columns = tuple(   # each cell's centre, per axis
            _read_only((index + 0.5) * size)
            for index, size in zip(cells, grid.cell_size))
        self.oil_in_place = _read_only(   # phi * S_o * cell volume
            (grid.porosity * grid.oil_saturation).ravel()
            * float(np.prod(grid.cell_size)))
        self.permeability = tuple(grid.permeability.ravel().tolist())
        self.cell_size = grid.cell_size
        # floats, to clamp float cell coordinates without a conversion
        self.max_index = (nx - 1.0, ny - 1.0, nz - 1.0)
        self.strides = (ny * nz, nz, 1)                  # C-order flat index
        self.extent = tuple(n * size   # physical box size (Lx, Ly, Lz)
                            for n, size in zip(grid.dims, grid.cell_size))
        # interior grid planes per axis
        self.planes = tuple(tuple((np.arange(1, n) * size).tolist())
                            for n, size in zip(grid.dims, grid.cell_size))


@dataclass(frozen=True)
class ReservoirGrid:
    dims: tuple[int, int, int]
    cell_size: tuple[float, float, float]
    porosity: np.ndarray          # (nx, ny, nz), in (0, 1)
    oil_saturation: np.ndarray    # (nx, ny, nz), in [0, 1]
    permeability: np.ndarray      # (nx, ny, nz), positive proxy values
    top_elevation: np.ndarray     # (nx, ny) depth of the top surface

    def __post_init__(self):
        def store(name, value):
            object.__setattr__(self, name, value)

        store("dims", tuple(int(d) for d in self.dims))
        store("cell_size", tuple(float(s) for s in self.cell_size))
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be 3 values >= 1; got {self.dims}")
        sizes = self.cell_size   # dims >= 1: each s > 0, a finite extent
        if len(sizes) != 3 or not all(0.0 < d * s < math.inf
                                      for d, s in zip(self.dims, sizes)):
            raise ValueError("cell_size must be 3 positive values with a "
                             f"finite extent dims * cell_size; got {sizes}")
        shape = self.dims
        for name in ("porosity", "oil_saturation", "permeability"):
            arr = _read_only(np.array(getattr(self, name), dtype=float))
            store(name, arr)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        store("top_elevation",
              _read_only(np.array(self.top_elevation, dtype=float)))
        if self.top_elevation.shape != shape[:2]:
            raise ValueError("top_elevation must have shape (nx, ny)")
        if np.any(self.porosity <= 0) or np.any(self.porosity >= 1):
            raise ValueError("porosity must lie strictly inside (0, 1)")
        if np.any(self.oil_saturation < 0) or np.any(self.oil_saturation > 1):
            raise ValueError("oil_saturation must lie in [0, 1]")
        if np.any(self.permeability <= 0):
            raise ValueError("permeability must be positive")

    @cached_property
    def invariants(self) -> GridInvariants:
        """The proxy's per-grid values, computed on first use."""
        return GridInvariants(self)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": GRID_SCHEMA_VERSION,
            "dims": list(self.dims),
            "cell_size": list(self.cell_size),
            "porosity": self.porosity.ravel().tolist(),
            "oil_saturation": self.oil_saturation.ravel().tolist(),
            "permeability": self.permeability.ravel().tolist(),
            "top_elevation": self.top_elevation.ravel().tolist(),
        }

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReservoirGrid":
        keys = ("dims", "cell_size", "porosity", "oil_saturation",
                "permeability", "top_elevation")
        if not (isinstance(data, dict) and data.keys() >= set(keys)):
            raise ValueError(f"a grid file is a JSON object with keys {keys}")
        # a document without the key (a hand-written one) is this version
        version = data.get("schema_version", GRID_SCHEMA_VERSION)
        if version != GRID_SCHEMA_VERSION:
            raise ValueError(f"grid schema_version must be "
                             f"{GRID_SCHEMA_VERSION}; got {version!r}")
        for name, kinds, what in (("dims", int, "integers"),
                                  ("cell_size", (int, float), "numbers")):
            values = data[name]
            if not (isinstance(values, list) and all(
                    isinstance(v, kinds) and not isinstance(v, bool)
                    for v in values)):
                raise ValueError(f"{name} must be a list of {what}; "
                                 f"got {values!r}")
        dims = tuple(data["dims"])
        def cube(name):
            return np.array(data[name], dtype=float).reshape(dims)
        return cls(dims=dims, cell_size=tuple(data["cell_size"]),
                   porosity=cube("porosity"),
                   oil_saturation=cube("oil_saturation"),
                   permeability=cube("permeability"),
                   top_elevation=np.array(data["top_elevation"],
                                          dtype=float).reshape(dims[:2]))

    @classmethod
    def load_json(cls, path) -> "ReservoirGrid":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def generate_synthetic_grid(seed: int) -> ReservoirGrid:
    """Deterministic DEFAULT_DIMS field model with two rich lobes and a
    gentle dome.

    Porosity and oil saturation are smooth backgrounds plus two Gaussian
    lobes at fixed fractional positions; the permeability proxy tracks
    porosity exponentially with mild seeded noise.
    """
    rng = np.random.default_rng(seed)
    dims = DEFAULT_DIMS
    nx, ny, nz = dims
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    zs = (np.arange(nz) + 0.5) / nz
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")

    def lobe(cx, cy, cz, sx, sy, sz):
        return np.exp(-(((gx - cx) / sx) ** 2
                        + ((gy - cy) / sy) ** 2
                        + ((gz - cz) / sz) ** 2))

    rich = lobe(0.28, 0.70, 0.45, 0.16, 0.14, 0.55)
    lean = 0.75 * lobe(0.72, 0.25, 0.55, 0.13, 0.15, 0.55)
    structure = rich + lean

    porosity = 0.08 + 0.16 * structure + 0.01 * rng.standard_normal(dims)
    porosity = np.clip(porosity, 0.02, 0.35)
    oil_saturation = 0.35 + 0.45 * structure + 0.02 * rng.standard_normal(dims)
    oil_saturation = np.clip(oil_saturation, 0.05, 0.92)
    permeability = 50.0 * np.exp(12.0 * (porosity - 0.12)
                                 + 0.10 * rng.standard_normal(dims))

    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    top_elevation = (2300.0 + 60.0 * ((cx - 0.5) ** 2 + (cy - 0.5) ** 2)
                     - 15.0 * np.cos(2 * np.pi * cx))
    return ReservoirGrid(dims=dims, cell_size=DEFAULT_CELL_SIZE,
                         porosity=porosity, oil_saturation=oil_saturation,
                         permeability=permeability,
                         top_elevation=top_elevation)
