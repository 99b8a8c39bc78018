"""Well-placement demonstration problem: geometry, grid, economics, proxy."""

from .economics import (FEET_PER_METER, EconomicParams, ProductionProfile,
                        drilling_cost, npv)
from .geometry import (Branch, WellGeometry, check_geometry, decode_well,
                       genome_dimension)
from .grid import ReservoirGrid, generate_synthetic_grid
from .problem import WellLayout, WellPlacementProblem
from .proxy import (INJECTOR, PRODUCER, ProxyParams, drainable_oil_barrels,
                    productivity_index, simulate)
