"""Net present value and drilling cost for multilateral wells.

Revenue is the discounted sum over periods of per-phase volumes times
per-phase prices (water carries a negative price, i.e. a handling cost).
Drilling cost follows the empirical length-diameter form
A * d_w * ln(l) * l per bore, evaluated in feet, plus a fixed milling
cost per lateral junction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ..floats import pairwise_sum
from .geometry import WellGeometry

FEET_PER_METER = 3.28084


@dataclass
class EconomicParams:
    oil_price: float = 60.0          # $ per barrel
    water_cost: float = -4.0         # $ per barrel (negative = cost)
    gas_price: float = 0.0
    annual_discount_rate: float = 0.0
    periods: int = 11                # number of discount periods Y
    cost_constant_a: float = 1000.0  # field-specific drilling constant A
    wellbore_diameter_m: float = 0.1
    junction_cost: float = 1.0e5
    max_well_length_m: float = 900.0

    def __post_init__(self):
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if self.wellbore_diameter_m <= 0:
            raise ValueError("wellbore diameter must be positive")
        # above 1 m, the lower end of each well's length constraint
        if not self.max_well_length_m > 1.0:
            raise ValueError("max_well_length_m must be > 1; "
                             f"got {self.max_well_length_m!r}")


@dataclass
class ProductionProfile:
    """Per-period phase volumes in barrels, periods 0..Y inclusive; the
    proxy gives lists of Python floats, which `npv` reads as they are."""

    oil: list[float]
    gas: list[float]
    water: list[float]

    def __post_init__(self):
        for name in ("oil", "gas", "water"):   # NaN is not negative
            if any(v < 0.0 for v in getattr(self, name)):
                raise ValueError(f"{name} volumes must be non-negative")

    @property
    def cumulative_oil(self) -> float:
        return float(np.sum(self.oil))


def _bore_cost(length_m: float, econ: EconomicParams) -> float:
    """A * d_w * ln(l) * l with lengths in feet; ln floored at zero."""
    length_ft = length_m * FEET_PER_METER
    if length_ft <= 0:
        return 0.0
    diameter_ft = econ.wellbore_diameter_m * FEET_PER_METER
    return (econ.cost_constant_a * diameter_ft
            * max(0.0, np.log(length_ft)) * length_ft)


def drilling_cost(wells: list[WellGeometry], econ: EconomicParams) -> float:
    """Drilling and completion cost for all wells and their junctions."""
    total = 0.0
    for well in wells:
        total += _bore_cost(well.mainbore_length, econ)
        for branch in well.branches:
            total += _bore_cost(branch.length, econ)
            total += econ.junction_cost
    return total


@cache
def _discount(rate: float, periods: int) -> tuple[float, ...]:
    """Discount factors (1 + rate)^-t of periods t = 0..periods."""
    return tuple(((1.0 + rate) ** (-np.arange(periods + 1))).tolist())


def npv(profile: ProductionProfile, econ: EconomicParams,
        cost: float) -> float:
    """Discounted phase revenues of periods 0..Y minus the drilling cost,
    on Python floats summed in np.sum's order."""
    discount = _discount(econ.annual_discount_rate, econ.periods)
    return pairwise_sum([
        d * (o * econ.oil_price + g * econ.gas_price + w * econ.water_cost)
        for d, o, g, w in zip(discount, profile.oil, profile.gas,
                              profile.water, strict=True)]) - cost
