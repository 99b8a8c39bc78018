"""Well-placement demonstration problem: geometry, grid, economics, proxy."""

from .economics import (FEET_PER_METER, EconomicParams, ProductionProfile,
                        drilling_cost, npv)
from .geometry import (Branch, WellGeometry, block_coordinates,
                       check_geometry, decode_well)
from .grid import ReservoirGrid, generate_synthetic_grid
from .problem import WellLayout, WellPlacementProblem
from .proxy import (INJECTOR, PRODUCER, ProxyParams, drainable_oil_barrels,
                    productivity_index, simulate)
