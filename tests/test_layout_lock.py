"""A lock on the values the well problem derives from its layout and grid.

The problem's dimension, its bounds and its sum constraints follow from
the order of the coordinates in a well's genome block; the proxy's
`GridInvariants` follow from the grid's fields. Each case below is
serialized exactly (array bytes, dtype, C-contiguity and the read-only
flag of each array, the Python type of each tuple element, the `repr`
of each float) and its SHA-256 compared with a literal digest, so a
refactor of how these values are derived must keep them bit for bit.

The grids are the bundled grid, loaded from its JSON file, and two
built here from literal fields with unequal cell sizes. None is made by
`generate_synthetic_grid`, whose `np.exp` may round differently on
another CPU.
"""

import hashlib
from importlib import resources

import numpy as np
import pytest

from wellopt.harness import RunConfig
from wellopt.wells import (INJECTOR, PRODUCER, ReservoirGrid, WellLayout,
                           WellPlacementProblem)


def serialize(value) -> str:
    """An exact text form of a value: arrays with their bytes and flags,
    tuples and lists element by element with each element's type."""
    if isinstance(value, np.ndarray):
        return (f"ndarray({value.dtype.str},{value.shape},"
                f"C={value.flags.c_contiguous},W={value.flags.writeable},"
                f"{value.tobytes().hex()})")
    if isinstance(value, (tuple, list)):
        inner = ",".join(serialize(v) for v in value)
        return f"{type(value).__name__}[{inner}]"
    return f"{type(value).__name__}:{value!r}"


def digest(value) -> str:
    return hashlib.sha256(serialize(value).encode()).hexdigest()


def bundled_grid() -> ReservoirGrid:
    path = resources.files("wellopt").joinpath("data/default_grid.json")
    with resources.as_file(path) as file:
        return ReservoirGrid.load_json(file)


def small_grid() -> ReservoirGrid:
    """3 x 2 x 2 cells of 37.7 x 91.3 x 4.1 length units."""
    return ReservoirGrid(
        dims=(3, 2, 2), cell_size=(37.7, 91.3, 4.1),
        porosity=[[[0.11, 0.23], [0.19, 0.07]],
                  [[0.31, 0.17], [0.29, 0.13]],
                  [[0.05, 0.27], [0.21, 0.33]]],
        oil_saturation=[[[0.61, 0.43], [0.57, 0.39]],
                        [[0.71, 0.53], [0.47, 0.83]],
                        [[0.37, 0.67], [0.59, 0.49]]],
        permeability=[[[12.5, 80.25], [33.0, 7.75]],
                      [[150.0, 61.5], [99.9, 18.2]],
                      [[5.1, 240.0], [44.4, 71.3]]],
        top_elevation=[[2301.5, 2299.25], [2310.0, 2305.75],
                       [2298.125, 2303.5]])


def column_grid() -> ReservoirGrid:
    """1 x 2 x 4 cells of 250 x 0.3 x 17.9 length units (integer sizes
    on one axis)."""
    return ReservoirGrid(
        dims=(1, 2, 4), cell_size=(250, 0.3, 17.9),
        porosity=[[[0.15, 0.25, 0.35, 0.45], [0.55, 0.65, 0.75, 0.85]]],
        oil_saturation=[[[0.0, 0.1, 0.2, 1.0], [0.3, 0.9, 0.4, 0.8]]],
        permeability=[[[1.0, 2.0, 3.0, 4.0], [1e-3, 0.7, 1e3, 6.5]]],
        top_elevation=[[1000.0, 1001.1]])


GRIDS = {"bundled": bundled_grid, "small": small_grid,
         "column": column_grid}
INVARIANT_FIELDS = ("center_columns", "oil_in_place", "permeability",
                    "cell_size", "max_index", "strides", "extent", "planes")
INVARIANT_DIGESTS = {
    "bundled":
        "6102120fe3ffa39f7b87aa986164ff39482cc607ff2d2cdb2d30cc5163bae8cd",
    "small":
        "acfa0bc57bad7ca46e850fff363a3bd1b3d3650b6f575f6b66d8d70fcadd60a6",
    "column":
        "6030a6a46f48d5699a923b8c63965cb7956706c52eb305a1e06b035fbd6c5699",
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_invariants_keep_their_bits_and_types(name):
    invariants = GRIDS[name]().invariants
    fields = [(field, getattr(invariants, field))
              for field in INVARIANT_FIELDS]
    assert digest(fields) == INVARIANT_DIGESTS[name]


LAYOUTS = {
    "default": None,
    "inj0,0-prod2,1": ((INJECTOR, 0, 0), (PRODUCER, 2, 1)),
    "inj3,2-prod0,3": ((INJECTOR, 3, 2), (PRODUCER, 0, 3)),
    "inj2,0-prod1,1-prod0,0": ((INJECTOR, 2, 0), (PRODUCER, 1, 1),
                               (PRODUCER, 0, 0)),
}
PROBLEM_DIGESTS = {
    "default":
        "d14a725e7de4588c139be6b28a47b8dd28607c1ece9f58c36874e16a04a5d39f",
    "inj0,0-prod2,1":
        "b3f248a612f9391139d47d3a4e5778c121f53393744770a14c601e82432d8fce",
    "inj3,2-prod0,3":
        "71f250d7f2d7af76dad27a79a860f067ab090cd78eb5d6cf60c01de906167dbc",
    "inj2,0-prod1,1-prod0,0":
        "85f917518cfbbe6a3be7e8f20609175a95245489fa785334f84a007835ac43be",
}


def problem(layout) -> WellPlacementProblem:
    """The configured well problem on the bundled grid, with `layout`
    (role, deviations, branches) wells, or the default layout for None."""
    args = RunConfig(problem={"kind": "well_placement"}).problem_args
    if layout is not None:
        args["layout"] = tuple(WellLayout(*well) for well in layout)
    return WellPlacementProblem(bundled_grid(), **args)


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_dimension_bounds_and_constraints_keep_their_bits(name):
    p = problem(LAYOUTS[name])
    constraints = [(c.indices, c.lower, c.upper) for c in p.constraints()]
    for _, lower, upper in constraints:
        assert type(lower) is float and type(upper) is float
    assert digest((p.dim, p.bounds(), constraints)) == PROBLEM_DIGESTS[name]
