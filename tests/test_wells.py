import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellopt.harness import RunConfig, load_bundled_grid
from wellopt.wells import (FEET_PER_METER, INJECTOR, PRODUCER, Branch,
                           EconomicParams, ProductionProfile, ProxyParams,
                           ReservoirGrid, WellGeometry, WellLayout,
                           WellPlacementProblem, check_geometry, decode_well,
                           drainable_oil_barrels, drilling_cost,
                           generate_synthetic_grid, genome_dimension, npv,
                           productivity_index, simulate)
from wellopt.wells.economics import _bore_cost
from wellopt.wells.geometry import _point_at_arclength
from wellopt.wells.problem import GEOMETRY_PENALTY_BASE
from wellopt.wells.proxy import (BARRELS_PER_M3, _midpoint, _segment_pieces,
                                 well_terms)


def point(xyz) -> tuple[float, float, float]:
    """A coordinate triple as the library's Point: a tuple of floats."""
    return tuple(np.asarray(xyz, dtype=float).tolist())


def points(rows) -> tuple:
    """Rows of coordinates as a tuple of Points."""
    return tuple(map(point, rows))


def straight_well(start, end):
    return WellGeometry(mainbore=points([start, end]), branches=())


def simulate_wells(wells, grid, econ, params=None):
    """`simulate` with each well's `well_terms` worked out here."""
    params = params or ProxyParams()
    return simulate(wells, econ, params,
                    [well_terms(w, role, grid, params) for w, role in wells])


# Views over the library's private forms and an inverse of decode_well,
# which the library does not need; kept verbatim as the tests' readers.
def segment_cell_intersections(start: np.ndarray, end: np.ndarray,
                               grid: ReservoirGrid
                               ) -> list[tuple[tuple[int, int, int], float]]:
    """Cells crossed by one segment, with the length inside each cell."""
    inv = grid.invariants
    kx, ky, _ = inv.strides
    pieces = _segment_pieces(point(start), point(end), inv)
    return [((flat // kx, flat % kx // ky, flat % ky), piece)
            for flat, piece in pieces]


def point_at_arclength(mainbore: np.ndarray, arclength: float) -> np.ndarray:
    """Point on the mainbore polyline at a given arc length from the heel.

    The arc length is clamped to [0, total length]; values landing on a
    vertex interpolate trivially within the containing segment.
    """
    points = np.asarray(mainbore, dtype=float).tolist()
    return np.array(_point_at_arclength(points, arclength))


def defining_points(geometry: WellGeometry) -> np.ndarray:
    """Heel, deviation points, toe, and branch end points."""
    points = [geometry.mainbore]
    if geometry.branches:
        points.append(np.array([b.end for b in geometry.branches]))
    return np.vstack(points)


def encode_well(geometry: WellGeometry) -> np.ndarray:
    """Inverse of decode_well, with angles in canonical ranges.

    theta lands in [0, pi] and phi in (-pi, pi], so decoding then
    re-encoding a genome written in those ranges round-trips.
    """
    mainbore = np.array(geometry.mainbore)
    parts = [mainbore[0]]
    for i in range(len(mainbore) - 1):
        parts.append(_step_to_spherical(mainbore[i + 1] - mainbore[i]))
    for branch in geometry.branches:
        parts.append([branch.start_arclength])
        parts.append(_step_to_spherical(np.subtract(branch.end,
                                                    branch.start)))
    return np.concatenate([np.atleast_1d(np.asarray(p, float)) for p in parts])


def _step_to_spherical(step: np.ndarray) -> np.ndarray:
    r = float(np.linalg.norm(step))
    if r == 0.0:
        return np.array([0.0, 0.0, 0.0])
    theta = float(np.arccos(np.clip(step[2] / r, -1.0, 1.0)))
    phi = float(np.arctan2(step[1], step[0]))
    return np.array([r, theta, phi])


class TestGenomeDimension:
    def test_reference_unilateral_pair(self):
        assert genome_dimension(1, 0) == 6

    def test_heel_only(self):
        assert genome_dimension(0, 0) == 3

    def test_deviations_and_branches(self):
        assert genome_dimension(2, 1) == 3 * 3 + 4

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WellLayout(PRODUCER, -1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            RunConfig({"kind": "well_placement", "wells": [
                {"role": "injector"}, {"role": "producer", "branches": -1}]})


class TestDecode:
    def test_axis_aligned_deviation(self):
        g = np.array([0.0, 0.0, 0.0, 10.0, math.pi / 2, 0.0])
        well = decode_well(g, 1, 0)
        assert np.allclose(well.toe, [10.0, 0.0, 0.0], atol=1e-12)

    def test_polar_axis_step_is_vertical(self):
        g = np.array([1.0, 2.0, 3.0, 7.0, 0.0, 1.234])
        well = decode_well(g, 1, 0)
        assert np.allclose(well.toe, [1.0, 2.0, 10.0], atol=1e-12)

    def test_mainbore_length_equals_sum_of_radii(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_dev = int(rng.integers(1, 5))
            parts = [rng.uniform(0, 100, 3)]
            radii = []
            for _ in range(n_dev):
                r = float(rng.uniform(1, 50))
                radii.append(r)
                parts.append([r, rng.uniform(0.1, math.pi - 0.1),
                              rng.uniform(-3, 3)])
            g = np.concatenate([np.atleast_1d(np.asarray(p, float))
                                for p in parts])
            well = decode_well(g, n_dev, 0)
            # oracle: recompute length from decoded points
            recomputed = sum(
                float(np.linalg.norm(np.subtract(well.mainbore[i + 1],
                                                 well.mainbore[i])))
                for i in range(n_dev))
            assert well.mainbore_length == pytest.approx(sum(radii), rel=1e-12)
            assert well.mainbore_length == pytest.approx(recomputed, rel=1e-12)

    def test_branch_start_interpolates_along_mainbore(self):
        g = np.array([0.0, 0.0, 0.0,
                      10.0, math.pi / 2, 0.0,
                      4.0, 5.0, math.pi / 2, math.pi / 2])
        well = decode_well(g, 1, 1)
        branch = well.branches[0]
        assert np.allclose(branch.start, [4.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(branch.end, [4.0, 5.0, 0.0], atol=1e-12)
        assert well.total_length == pytest.approx(15.0)

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_dev = int(rng.integers(1, 4))
            n_br = int(rng.integers(0, 3))
            parts = [rng.uniform(-50, 50, 3)]
            for _ in range(n_dev):
                parts.append([rng.uniform(1, 40),
                              rng.uniform(0.05, math.pi - 0.05),
                              rng.uniform(-math.pi + 0.05, math.pi - 0.05)])
            total = sum(p[0] for p in parts[1:])
            for _ in range(n_br):
                parts.append([rng.uniform(0, total), rng.uniform(1, 30),
                              rng.uniform(0.05, math.pi - 0.05),
                              rng.uniform(-math.pi + 0.05, math.pi - 0.05)])
            g = np.concatenate([np.atleast_1d(np.asarray(p, float))
                                for p in parts])
            well = decode_well(g, n_dev, n_br)
            back = encode_well(well)
            assert np.allclose(back, g, rtol=1e-12, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_dev=st.integers(0, 3), n_br=st.integers(0, 2))
    def test_encode_decode_round_trip_property(self, data, n_dev, n_br):
        n_br = n_br if n_dev else 0
        radius = st.floats(50.0, 2000.0)
        # arccos loses relative accuracy next to the poles
        theta = st.floats(0.1, math.pi - 0.1)
        phi = st.floats(-math.pi, math.pi, exclude_min=True)
        genome = [data.draw(st.floats(0.0, 5000.0)) for _ in range(3)]
        for _ in range(n_dev):
            genome += [data.draw(radius), data.draw(theta), data.draw(phi)]
        for _ in range(n_br):
            genome += [data.draw(st.floats(0.0, 2000.0)), data.draw(radius),
                       data.draw(theta), data.draw(phi)]
        genome = np.array(genome)
        is_phi = np.zeros(genome.shape, dtype=bool)
        is_phi[5:3 + 3 * n_dev:3] = True
        is_phi[3 + 3 * n_dev + 3::4] = True
        well = decode_well(genome, n_dev, n_br)
        back = encode_well(well)
        diff = back - genome
        # phi next to -pi may come back as +pi: compare it on the circle
        diff[is_phi] = (diff[is_phi] + math.pi) % (2 * math.pi) - math.pi
        tolerance = 1e-12 * np.maximum(np.abs(genome), 1.0)
        assert np.all(np.abs(diff) <= tolerance)
        again = decode_well(back, n_dev, n_br)
        assert defining_points(again) == pytest.approx(
            defining_points(well), rel=1e-12, abs=1e-9)
        twice = decode_well(genome, n_dev, n_br)
        assert np.array_equal(defining_points(twice), defining_points(well))

    def test_point_at_arclength_clamps(self):
        mainbore = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert np.allclose(point_at_arclength(mainbore, -5.0), [0, 0, 0])
        assert np.allclose(point_at_arclength(mainbore, 999.0), [10, 0, 0])
        assert np.allclose(point_at_arclength(mainbore, 10.0), [10, 0, 0])


def assert_frozen_floats(geometry):
    """A decoded well's form: tuples of Points, each three Python floats."""
    assert type(geometry.mainbore) is tuple
    assert type(geometry.branches) is tuple
    ends = [p for b in geometry.branches for p in (b.start, b.end)]
    for p in [*geometry.mainbore, *ends]:
        assert type(p) is tuple and len(p) == 3
        assert all(type(v) is float for v in p), p
    assert all(type(b.start_arclength) is float for b in geometry.branches)


class TestDecodedWellType:
    @pytest.mark.parametrize("n_dev, n_br", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_decode_well_returns_frozen_python_floats(self, n_dev, n_br):
        rng = np.random.default_rng(10 * n_dev + n_br)
        genome = rng.uniform(0.1, 3.0, genome_dimension(n_dev, n_br))
        well = decode_well(genome, n_dev, n_br)
        assert_frozen_floats(well)
        for name in ("mainbore", "branches"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(well, name, ())
        for branch in well.branches:
            with pytest.raises(dataclasses.FrozenInstanceError):
                branch.start = branch.end
        lengths = [well.mainbore_length, well.total_length,
                   *(b.length for b in well.branches)]
        assert all(type(length) is float for length in lengths)

    def test_lengths_are_computed_once(self, monkeypatch):
        import wellopt.wells.geometry as geometry_module

        well = decode_well(np.array([0.0, 0.0, 0.0, 10.0, 1.0, 0.5,
                                     4.0, 5.0, 1.5, 1.5]), 1, 1)
        first = (well.mainbore_length, well.total_length,
                 well.branches[0].length)
        monkeypatch.setattr(geometry_module, "pairwise_sum", None)
        monkeypatch.setattr(geometry_module, "dot_norm", None)
        assert (well.mainbore_length, well.total_length,
                well.branches[0].length) == first


class TestCheckGeometry:
    EXTENT = np.array([100.0, 100.0, 50.0])

    def test_inside_and_short_is_feasible(self):
        well = straight_well([10, 10, 10], [60, 10, 10])
        assert check_geometry(well, self.EXTENT) == 0.0

    def test_heel_outside_is_infeasible(self):
        well = straight_well([-10, 10, 10], [60, 10, 10])
        assert check_geometry(well, self.EXTENT) == pytest.approx(10.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rows = rng.uniform(-20, 120, (3, 3))
            well = WellGeometry(mainbore=points(rows), branches=())
            # oracle: explicit point-in-box check
            inside = all(
                0 <= p[k] <= self.EXTENT[k] for p in rows for k in range(3))
            assert (check_geometry(well, self.EXTENT) == 0.0) == inside


class TestDrillingCost:
    def test_no_wells_costs_nothing(self):
        assert drilling_cost([], EconomicParams()) == 0.0

    def test_e_foot_mainbore_fixture(self):
        length_m = math.e / FEET_PER_METER
        well = straight_well([0, 0, 0], [length_m, 0, 0])
        cost = drilling_cost([well], EconomicParams())
        # A * d_w(ft) * ln(e) * e = 1000 * 0.328084 * 1 * e
        assert cost == pytest.approx(1000.0 * 0.328084 * math.e, rel=1e-9)

    def test_short_bore_log_floored(self):
        well = straight_well([0, 0, 0], [0.1, 0, 0])   # about 0.33 ft
        assert drilling_cost([well], EconomicParams()) == 0.0

    def test_branch_adds_exactly_one_junction_cost(self):
        econ = EconomicParams()
        plain = straight_well([0, 0, 0], [100.0, 0, 0])
        branch = Branch(start_arclength=50.0, start=(50.0, 0.0, 0.0),
                        end=(50.0, 40.0, 0.0))
        lateral = WellGeometry(mainbore=plain.mainbore, branches=(branch,))
        base = drilling_cost([plain], econ)
        with_branch = drilling_cost([lateral], econ)
        length_ft = 40.0 * FEET_PER_METER
        bore = (econ.cost_constant_a * econ.wellbore_diameter_m
                * FEET_PER_METER * math.log(length_ft) * length_ft)
        assert with_branch - base == pytest.approx(bore + econ.junction_cost,
                                                   rel=1e-12)

    def test_strictly_increasing_beyond_three_feet(self):
        econ = EconomicParams()
        lengths_m = np.linspace(3.0 / FEET_PER_METER, 1000.0, 60)
        costs = [drilling_cost([straight_well([0, 0, 0], [l, 0, 0])], econ)
                 for l in lengths_m]
        assert np.all(np.diff(costs) > 0)


class TestNpv:
    def test_zero_production_is_minus_cost(self):
        econ = EconomicParams(periods=3)
        profile = ProductionProfile(oil=np.zeros(4), gas=np.zeros(4),
                                    water=np.zeros(4))
        assert npv(profile, econ, cost=123456.0) == -123456.0

    def test_single_period_fixture(self):
        econ = EconomicParams(periods=1)
        profile = ProductionProfile(oil=np.array([0.0, 1e6]),
                                    gas=np.zeros(2), water=np.zeros(2))
        assert npv(profile, econ, cost=0.0) == pytest.approx(6e7)

    def test_matches_discounting_loop_oracle(self):
        rng = np.random.default_rng(3)
        econ = EconomicParams(annual_discount_rate=0.1, periods=7)
        for _ in range(30):
            oil = rng.uniform(0, 1e5, 8)
            gas = rng.uniform(0, 1e4, 8)
            water = rng.uniform(0, 1e5, 8)
            cost = float(rng.uniform(0, 1e6))
            profile = ProductionProfile(oil=oil, gas=gas, water=water)
            expected = -cost
            for n in range(8):
                expected += (oil[n] * 60.0 + gas[n] * 0.0 + water[n] * -4.0) \
                    / (1.1 ** n)
            assert npv(profile, econ, cost) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_monotonicity_in_phases(self):
        econ = EconomicParams(periods=2)
        base = ProductionProfile(oil=np.array([0.0, 50.0, 50.0]),
                                 gas=np.zeros(3),
                                 water=np.array([0.0, 10.0, 10.0]))
        value = npv(base, econ, 0.0)
        more_oil = ProductionProfile(oil=np.array([0.0, 60.0, 50.0]),
                                     gas=np.zeros(3), water=base.water)
        more_water = ProductionProfile(oil=base.oil, gas=np.zeros(3),
                                       water=np.array([0.0, 20.0, 10.0]))
        assert npv(more_oil, econ, 0.0) > value
        assert npv(more_water, econ, 0.0) < value

    def test_negative_volumes_rejected(self):
        with pytest.raises(ValueError):
            ProductionProfile(oil=np.array([-1.0]), gas=np.zeros(1),
                              water=np.zeros(1))


@pytest.fixture(scope="module")
def grid():
    return load_bundled_grid()


class TestGrid:
    def test_bundled_matches_regeneration(self, grid):
        regen = generate_synthetic_grid(7)
        assert grid.dims == regen.dims
        assert np.allclose(grid.porosity, regen.porosity, rtol=0, atol=1e-15)
        assert np.allclose(grid.oil_saturation, regen.oil_saturation,
                           rtol=0, atol=1e-15)
        assert np.allclose(grid.permeability, regen.permeability,
                           rtol=1e-15)

    def test_json_round_trip(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        grid.save_json(path)
        loaded = ReservoirGrid.load_json(path)
        assert loaded.dims == grid.dims
        assert np.array_equal(loaded.porosity, grid.porosity)
        assert np.array_equal(loaded.permeability, grid.permeability)
        assert np.array_equal(loaded.top_elevation, grid.top_elevation)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirGrid(dims=(2, 2, 1), cell_size=(1, 1, 1),
                          porosity=np.full((2, 2, 1), 1.5),
                          oil_saturation=np.full((2, 2, 1), 0.5),
                          permeability=np.ones((2, 2, 1)),
                          top_elevation=np.zeros((2, 2)))

    @pytest.mark.parametrize("change, name", [
        ({"cell_size": [180.0, 180.0, 0.0]}, "cell_size"),
        ({"cell_size": [180.0, 180.0, math.nan]}, "cell_size"),
        ({"cell_size": [180.0, 180.0, math.inf]}, "cell_size"),
        ({"cell_size": [180.0, -180.0, 24.0]}, "cell_size"),
        ({"cell_size": [1e307, 180.0, 24.0]}, "cell_size"),   # extent 1.9e308
        ({"dims": [0, 2, 2], "porosity": [], "oil_saturation": [],
          "permeability": [], "top_elevation": []}, "dims"),
        ({"dims": [2, 2], "cell_size": [180.0, 180.0],
          "porosity": [0.2] * 4, "oil_saturation": [0.5] * 4,
          "permeability": [1.0] * 4, "top_elevation": [0.0] * 4}, "dims"),
        ({"cell_size": [180.0, 180.0]}, "cell_size"),
        ({"porosity": None}, "porosity"),   # None: the key is left out
        (None, "porosity"),                 # the object inside a JSON list
        ({"dims": 5}, "dims"),
        ({"cell_size": 5}, "cell_size"),
        ({"dims": [19, 28, "x"]}, "dims"),
        ({"cell_size": [180, "a", 24]}, "cell_size"),
    ], ids=["zero", "nan", "inf", "negative", "extent-overflow",
            "zero-dims", "two-dims", "two-cell-sizes", "no-porosity",
            "list", "scalar-dims", "scalar-cell-size", "string-in-dims",
            "string-in-cell-size"])
    def test_bad_cell_size_or_dims_rejected_at_load(self, tmp_path, grid,
                                                    change, name):
        """A malformed grid file fails at load with a ValueError that
        names the field at fault."""
        document = {key: value for key, value
                    in {**grid.to_json_dict(), **(change or {})}.items()
                    if value is not None}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(document if change else [document]))
        with pytest.raises(ValueError, match=name):
            ReservoirGrid.load_json(path)

    @pytest.mark.parametrize("version", [2, 0, "1", None])
    def test_other_schema_version_rejected_at_load(self, grid, version):
        document = {**grid.to_json_dict(), "schema_version": version}
        with pytest.raises(ValueError, match="schema_version must be 1"):
            ReservoirGrid.from_json_dict(document)

    def test_document_without_schema_version_loads(self, grid):
        document = grid.to_json_dict()
        assert document.pop("schema_version") == 1
        loaded = ReservoirGrid.from_json_dict(document)
        assert loaded.dims == grid.dims
        assert np.array_equal(loaded.porosity, grid.porosity)

    def test_fields_are_read_only_copies(self):
        dims = (2, 2, 1)
        porosity = np.full(dims, 0.2)
        grid = ReservoirGrid(dims=dims, cell_size=(1, 1, 1),
                             porosity=porosity,
                             oil_saturation=np.full(dims, 0.5),
                             permeability=np.ones(dims),
                             top_elevation=np.zeros((2, 2)))
        for name in ("porosity", "oil_saturation", "permeability",
                     "top_elevation"):
            with pytest.raises(ValueError):
                getattr(grid, name)[0, 0] = 0.3
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.porosity = np.full(dims, 0.3)
        porosity[0, 0, 0] = 0.4      # the caller's array stays writable
        assert grid.porosity[0, 0, 0] == 0.2

    def test_each_grid_has_its_own_invariants(self):
        dims, cell = (3, 4, 2), (100.0, 50.0, 10.0)
        base = dict(dims=dims, cell_size=cell,
                    porosity=np.full(dims, 0.2),
                    permeability=np.full(dims, 100.0),
                    top_elevation=np.zeros(dims[:2]))
        grid_a = ReservoirGrid(oil_saturation=np.full(dims, 0.3), **base)
        grid_b = ReservoirGrid(oil_saturation=np.full(dims, 0.6), **base)
        inv_a, inv_b = grid_a.invariants, grid_b.invariants
        assert inv_a is grid_a.invariants
        assert np.array_equal(inv_a.oil_in_place,
                              grid_a.oil_in_place_per_cell())
        assert np.array_equal(inv_b.oil_in_place,
                              grid_b.oil_in_place_per_cell())
        assert not np.array_equal(inv_a.oil_in_place, inv_b.oil_in_place)
        for axis in range(3):
            assert np.array_equal(inv_a.center_columns[axis],
                                  grid_a.cell_centers()[:, axis])
            assert np.array_equal(inv_a.planes[axis],
                                  np.arange(1, dims[axis]) * cell[axis])
        assert inv_a.extent == (300.0, 200.0, 20.0)
        assert not inv_a.oil_in_place.flags.writeable

    def test_two_lobes_present(self, grid):
        rich = grid.porosity * grid.oil_saturation
        flat = rich.sum(axis=2)
        # the configured lobe centers should be markedly richer than the
        # field median
        lobe_a = flat[int(0.28 * 19), int(0.70 * 28)]
        lobe_b = flat[int(0.72 * 19), int(0.25 * 28)]
        assert lobe_a > 2.0 * np.median(flat)
        assert lobe_b > 1.5 * np.median(flat)


class TestIntersections:
    def test_axis_aligned_crossing_lengths(self, grid):
        dx = grid.cell_size[0]
        start = np.array([0.5 * dx, 10.0, 10.0])
        end = np.array([2.5 * dx, 10.0, 10.0])
        cells = segment_cell_intersections(start, end, grid)
        lengths = {idx: l for idx, l in cells}
        assert lengths[(0, 0, 0)] == pytest.approx(0.5 * dx)
        assert lengths[(1, 0, 0)] == pytest.approx(dx)
        assert lengths[(2, 0, 0)] == pytest.approx(0.5 * dx)

    def test_pieces_sum_to_clipped_length(self, grid):
        rng = np.random.default_rng(4)
        extent = grid.extent
        for _ in range(50):
            start = rng.uniform(-0.2 * extent, 1.2 * extent)
            end = rng.uniform(-0.2 * extent, 1.2 * extent)
            pieces = segment_cell_intersections(start, end, grid)
            total = sum(l for _, l in pieces)
            # oracle: Liang-Barsky style clipping of the segment
            d = end - start
            t_lo, t_hi = 0.0, 1.0
            ok = True
            for axis in range(3):
                if d[axis] == 0.0:
                    if not 0 <= start[axis] <= extent[axis]:
                        ok = False
                    continue
                t0 = (0 - start[axis]) / d[axis]
                t1 = (extent[axis] - start[axis]) / d[axis]
                t_lo = max(t_lo, min(t0, t1))
                t_hi = min(t_hi, max(t0, t1))
            expected = (max(0.0, t_hi - t_lo) * float(np.linalg.norm(d))
                        if ok and t_hi > t_lo else 0.0)
            assert total == pytest.approx(expected, abs=1e-9)

    def test_subnormal_step_crosses_no_planes(self, grid):
        """A subnormal direction component overflows its plane crossing
        times to inf, which means no crossing inside the segment: no
        warning, no FloatingPointError, the pieces of the flat segment."""
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            tiny = segment_cell_intersections([100.0, 0.0, 50.0],
                                              [900.0, 1e-310, 50.0], grid)
            flat = segment_cell_intersections([100.0, 0.0, 50.0],
                                              [900.0, 0.0, 50.0], grid)
        assert tiny == flat and len(flat) == 5

    @pytest.mark.parametrize("start,end", [
        ([100.0, 0.0, 50.0], [900.0, 1e-310, 50.0]),
        ([100.0, 1e-310, 50.0], [900.0, 1e-310, 50.0])])
    def test_subnormal_step_pi_raises_nothing(self, grid, start, end):
        """Under np.errstate(all="raise") neither well is a simulation
        failure: the cell intersections run on Python floats, which
        underflow silently. Both cross the cells of the flat well."""
        flat = straight_well([100.0, 0.0, 50.0], [900.0, 0.0, 50.0])
        with np.errstate(all="raise"):
            pi = productivity_index(straight_well(start, end), grid)
        assert bits(pi) == bits(productivity_index(flat, grid))

    def test_outside_segment_no_cells(self, grid):
        out = segment_cell_intersections(np.array([-500.0, -500.0, -500.0]),
                                         np.array([-400.0, -500.0, -500.0]),
                                         grid)
        assert out == []


# The loop versions of the proxy kernels, kept verbatim as the reference
# the vectorised ones must match bit for bit.
def loop_segment_cell_intersections(start, end, grid):
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    direction = end - start
    length = float(np.linalg.norm(direction))
    if length == 0.0:
        return []
    extent = grid.extent
    t_lo, t_hi = 0.0, 1.0
    for axis in range(3):
        d = direction[axis]
        if d == 0.0:
            if not 0.0 <= start[axis] <= extent[axis]:
                return []
            continue
        t0 = (0.0 - start[axis]) / d
        t1 = (extent[axis] - start[axis]) / d
        t_lo = max(t_lo, min(t0, t1))
        t_hi = min(t_hi, max(t0, t1))
    if t_lo >= t_hi:
        return []

    cuts = [t_lo, t_hi]
    cell = np.array(grid.cell_size)
    for axis in range(3):
        d = direction[axis]
        if d == 0.0:
            continue
        planes = np.arange(1, grid.dims[axis]) * cell[axis]
        ts = (planes - start[axis]) / d
        cuts.extend(t for t in ts if t_lo < t < t_hi)
    cuts = sorted(set(cuts))

    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = start + 0.5 * (a + b) * direction
        idx = np.minimum(np.floor(mid / cell).astype(int),
                         np.array(grid.dims) - 1)
        idx = np.maximum(idx, 0)
        out.append(((int(idx[0]), int(idx[1]), int(idx[2])),
                    (b - a) * length))
    return out


def loop_productivity_index(well, grid):
    total = 0.0
    for start, end in well.segments():
        for (i, j, k), seg_len in loop_segment_cell_intersections(start, end,
                                                                  grid):
            total += grid.permeability[i, j, k] * seg_len
    return total


def loop_distance_to_polyline(points, well):
    best = np.full(points.shape[0], np.inf)
    for start, end in well.segments():
        start, end = np.array(start), np.array(end)
        d = end - start
        denom = float(d @ d)
        if denom == 0.0:
            dist = np.linalg.norm(points - start, axis=1)
        else:
            t = np.clip((points - start) @ d / denom, 0.0, 1.0)
            closest = start + t[:, None] * d
            dist = np.linalg.norm(points - closest, axis=1)
        best = np.minimum(best, dist)
    return best


def loop_drainable_oil_barrels(producer, grid, params):
    centers = grid.cell_centers()
    weights = np.exp(-loop_distance_to_polyline(centers, producer)
                     / params.drainage_radius_m)
    return float(np.sum(grid.oil_in_place_per_cell() * weights)) * BARRELS_PER_M3


BUNDLED = load_bundled_grid()


def well_problem(**args) -> WellPlacementProblem:
    """A well problem on the bundled grid with the run configuration's
    defaults, but for the keyword `args` given."""
    defaults = RunConfig(problem={"kind": "well_placement"}).problem_args
    return WellPlacementProblem(BUNDLED, **{**defaults, **args})


def grid_coordinate(axis):
    """A coordinate inside or around the bundled grid, often exactly on a
    face or an interior grid plane."""
    extent = float(BUNDLED.extent[axis])
    on_plane = st.integers(0, BUNDLED.dims[axis]).map(
        lambda k: k * BUNDLED.cell_size[axis])
    return st.one_of(st.floats(-0.3 * extent, 1.3 * extent), on_plane)


@st.composite
def grid_segments(draw):
    """Free, axis-parallel, zero-length and fully outside segments, and
    segments with a subnormal direction component or a NaN or infinite
    endpoint coordinate."""
    start = [draw(grid_coordinate(axis)) for axis in range(3)]
    end = [draw(grid_coordinate(axis)) for axis in range(3)]
    kind = draw(st.sampled_from(["free", "axis_parallel", "zero_length",
                                 "outside", "subnormal", "non_finite"]))
    if kind == "axis_parallel":
        for axis in draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
            end[axis] = start[axis]
    elif kind == "zero_length":
        end = list(start)
    elif kind == "outside":
        axis = draw(st.integers(0, 2))
        beyond = st.floats(1e-9, 500.0)
        if draw(st.booleans()):
            start[axis], end[axis] = -draw(beyond), -draw(beyond)
        else:
            extent = float(BUNDLED.extent[axis])
            start[axis] = extent + draw(beyond)
            end[axis] = extent + draw(beyond)
    elif kind == "subnormal":
        # both ends on the grid's lower face, up to a subnormal offset:
        # the step along that axis is subnormal or zero
        tiny = st.floats(-2e-308, 2e-308)
        for axis in draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
            start[axis], end[axis] = draw(tiny), draw(tiny)
    elif kind == "non_finite":
        points = (start, end)
        for point, axis in draw(st.sets(st.tuples(st.integers(0, 1),
                                                  st.integers(0, 2)),
                                        min_size=1, max_size=3)):
            points[point][axis] = draw(st.sampled_from([math.nan, math.inf,
                                                        -math.inf]))
    return np.array(start), np.array(end)


@st.composite
def multilateral_wells(draw):
    """Wells with 2 deviations and 1 branch, possibly leaving the grid."""
    genome = [draw(grid_coordinate(axis)) for axis in range(3)]
    for _ in range(2):
        genome += [draw(st.floats(0.0, 2000.0)),
                   draw(st.floats(0.0, math.pi)),
                   draw(st.floats(-math.pi, math.pi))]
    genome += [draw(st.floats(0.0, 4000.0)), draw(st.floats(0.0, 2000.0)),
               draw(st.floats(0.0, math.pi)),
               draw(st.floats(-math.pi, math.pi))]
    return decode_well(np.array(genome), 2, 1)


class TestKernelsMatchLoopVersions:
    @settings(max_examples=400, deadline=None)
    @given(segment=grid_segments())
    def test_segment_cell_intersections(self, segment):
        start, end = segment
        well = straight_well(start, end)
        # no exception and no warning, whatever the endpoints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = segment_cell_intersections(start, end, BUNDLED)
            pi = productivity_index(well, BUNDLED)
        # the reference warns on overflowing plane times and NaN casts
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            want = loop_segment_cell_intersections(start, end, BUNDLED)
            want_pi = loop_productivity_index(well, BUNDLED)
        assert [cell for cell, _ in got] == [cell for cell, _ in want]
        assert bits([length for _, length in got]) == bits(
            [length for _, length in want])
        assert bits(pi) == bits(want_pi)
        params = ProxyParams()
        finite = np.isfinite(start).all() and np.isfinite(end).all()
        # a NaN or infinite endpoint makes the drainage distances warn
        # (inf - inf, inf / inf)
        with np.errstate(**({} if finite else {"all": "ignore"})):
            drained = drainable_oil_barrels(well, BUNDLED, params)
            want_drained = loop_drainable_oil_barrels(well, BUNDLED, params)
        assert bits(drained) == bits(want_drained)

    @settings(max_examples=200, deadline=None)
    @given(well=multilateral_wells())
    def test_multilateral_well(self, well):
        assert bits(productivity_index(well, BUNDLED)) == bits(
            loop_productivity_index(well, BUNDLED))
        params = ProxyParams()
        assert bits(drainable_oil_barrels(well, BUNDLED, params)) == bits(
            loop_drainable_oil_barrels(well, BUNDLED, params))

    def test_heel_only_well_drains_nothing(self):
        well = WellGeometry(mainbore=((900.0, 900.0, 60.0),), branches=())
        params = ProxyParams()
        assert drainable_oil_barrels(well, BUNDLED, params) == 0.0
        assert loop_drainable_oil_barrels(well, BUNDLED, params) == 0.0
        assert productivity_index(well, BUNDLED) == 0.0


# The numpy versions of the geometry routines, kept verbatim as the
# reference the Python-float ones must match bit for bit.
def numpy_mainbore_length(well):
    steps = np.diff(np.array(well.mainbore), axis=0)
    return float(np.sum(np.linalg.norm(steps, axis=1)))


def numpy_total_length(well):
    return numpy_mainbore_length(well) + sum(b.length for b in well.branches)


def numpy_drilling_cost(wells, econ):
    total = 0.0
    for well in wells:
        total += _bore_cost(numpy_mainbore_length(well), econ)
        for branch in well.branches:
            total += _bore_cost(branch.length, econ)
            total += econ.junction_cost
    return total


def numpy_spherical_step(r, theta, phi):
    return r * np.array([np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi),
                         np.cos(theta)])


def numpy_point_at_arclength(mainbore, arclength):
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


def numpy_decode_well(genome_slice, n_deviations, n_branches):
    g = np.asarray(genome_slice, dtype=float)
    points = np.empty((n_deviations + 1, 3))
    points[0] = g[:3]
    offset = 3
    for i in range(n_deviations):
        r, theta, phi = g[offset:offset + 3]
        points[i + 1] = points[i] + numpy_spherical_step(r, theta, phi)
        offset += 3
    branches = []
    for _ in range(n_branches):
        l, r, theta, phi = g[offset:offset + 4]
        start = numpy_point_at_arclength(points, l)
        branches.append(Branch(start_arclength=float(l), start=start,
                               end=start + numpy_spherical_step(r, theta,
                                                                phi)))
        offset += 4
    return WellGeometry(mainbore=points, branches=branches)


@dataclasses.dataclass
class GeometryVerdict:
    feasible: bool
    length_excess: float
    out_of_bounds_distance: float


def numpy_check_geometry(geometry, extent, max_length):
    """The grid and length check as numpy arithmetic, in the verdict form
    `check_geometry` returned when it also judged the length."""
    extent = np.asarray(extent, dtype=float)
    points = defining_points(geometry)
    clamped = np.clip(points, 0.0, extent)
    distances = np.linalg.norm(points - clamped, axis=1)
    out_of_bounds = float(np.sum(distances))
    total_length = numpy_total_length(geometry)
    excess = max(0.0, total_length - max_length)
    feasible = out_of_bounds == 0.0 and total_length < max_length
    return GeometryVerdict(feasible=feasible, length_excess=excess,
                           out_of_bounds_distance=out_of_bounds)


def bits(value):
    """Byte image of a float or an array: stricter than ==, it also tells
    -0.0 from 0.0. Every NaN maps to one NaN: which NaN an operation on
    two NaNs (or inf - inf) returns depends on the hardware's operand
    order, and any NaN means the same to every caller."""
    value = np.array(value, dtype=float)
    value[np.isnan(value)] = np.nan
    return value.tobytes()


def assert_same_well(got, want):
    assert bits(got.mainbore) == bits(want.mainbore)
    assert len(got.branches) == len(want.branches)
    for a, b in zip(got.branches, want.branches):
        assert bits(a.start_arclength) == bits(b.start_arclength)
        assert bits(a.start) == bits(b.start)
        assert bits(a.end) == bits(b.end)


def box_coordinate(axis):
    """A coordinate inside, outside either face of, or exactly on a face
    of the bundled grid's box, or -0.0."""
    extent = float(BUNDLED.extent[axis])
    return st.one_of(st.floats(-0.5 * extent, 1.5 * extent),
                     st.sampled_from([0.0, -0.0, extent]),
                     st.floats(-1e-9, 1e-9),
                     st.floats(extent - 1e-9, extent + 1e-9))


@st.composite
def well_genomes(draw):
    """(genome slice, n_deviations, n_branches): up to 9 deviations and 3
    branches, so up to 13 defining points; zero-length steps, angles on and
    off the axes, branch offsets before, inside and past the mainbore."""
    n_dev = draw(st.integers(0, 9))
    n_br = draw(st.integers(0, 3))
    radius = st.one_of(st.just(0.0), st.floats(0.0, 2000.0))
    theta = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                      st.floats(0.0, math.pi))
    phi = st.one_of(st.sampled_from([-math.pi, 0.0, math.pi / 2, math.pi]),
                    st.floats(-math.pi, math.pi))
    genome = [draw(box_coordinate(axis)) for axis in range(3)]
    for _ in range(n_dev):
        genome += [draw(radius), draw(theta), draw(phi)]
    for _ in range(n_br):
        genome += [draw(st.floats(-100.0, 20000.0)), draw(radius),
                   draw(theta), draw(phi)]
    return np.array(genome), n_dev, n_br


@st.composite
def point_wells(draw):
    """Wells built from free points around the box, so that defining points
    sit exactly on faces, at -0.0 or at NaN and +-inf; repeated points give
    zero-length steps and branches."""
    coordinate = [st.one_of(box_coordinate(axis),
                            st.sampled_from([math.nan, math.inf, -math.inf]))
                  for axis in range(3)]
    point = st.tuples(*coordinate)
    n_points = draw(st.integers(1, 10))
    mainbore = [draw(point) for _ in range(n_points)]
    if n_points > 1 and draw(st.booleans()):
        mainbore[1] = mainbore[0]
    branches = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(point)
        end = start if draw(st.booleans()) else draw(point)
        branches.append(Branch(start_arclength=draw(st.floats(0.0, 100.0)),
                               start=start, end=end))
    return WellGeometry(mainbore=tuple(mainbore), branches=tuple(branches))


class TestGeometryMatchesNumpyVersions:
    @settings(max_examples=400, deadline=None)
    @given(case=well_genomes(), max_length=st.floats(0.0, 5000.0))
    def test_decoded_wells(self, case, max_length):
        genome, n_dev, n_br = case
        well = decode_well(genome, n_dev, n_br)
        assert_same_well(well, numpy_decode_well(genome, n_dev, n_br))
        self.assert_same_checks(well, max_length)

    @settings(max_examples=400, deadline=None)
    @given(well=point_wells(), max_length=st.floats(0.0, 5000.0))
    def test_wells_from_points(self, well, max_length):
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
            self.assert_same_checks(well, max_length)
            arclength = float(np.linalg.norm(well.mainbore[-1]))
            assert bits(point_at_arclength(well.mainbore, arclength)) == bits(
                numpy_point_at_arclength(np.array(well.mainbore), arclength))

    @staticmethod
    def assert_same_checks(well, max_length):
        assert bits(well.mainbore_length) == bits(numpy_mainbore_length(well))
        assert bits(well.total_length) == bits(numpy_total_length(well))
        econ = EconomicParams()
        assert bits(drilling_cost([well], econ)) == bits(
            numpy_drilling_cost([well], econ))
        want = numpy_check_geometry(well, BUNDLED.extent, max_length)
        for extent in (BUNDLED.extent, BUNDLED.invariants.extent):
            assert bits(check_geometry(well, extent)) == bits(
                want.out_of_bounds_distance)

    def test_long_sums_keep_the_pairwise_order(self):
        """Eight or more terms: np.sum adds pairwise, and a left-to-right
        sum of these values would differ in the last bit."""
        lengths = [1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16,
                   1e-16]
        ordered = 0.0
        for value in lengths:
            ordered += value
        assert float(np.sum(lengths)) != ordered
        mainbore = np.zeros((len(lengths) + 1, 3))
        mainbore[1:, 0] = np.cumsum(lengths)
        well = WellGeometry(mainbore=points(mainbore), branches=())
        assert bits(well.mainbore_length) == bits(numpy_mainbore_length(well))


# The scalar-loop proxy recurrence, npv and profile check, kept verbatim
# as the reference the vectorised ones must match bit for bit.
def reference_simulate(wells: list[tuple[WellGeometry, str]],
                       grid: ReservoirGrid, econ: EconomicParams,
                       params: ProxyParams | None = None) -> ProductionProfile:
    params = params or ProxyParams()
    producers = [w for w, role in wells if role == PRODUCER]
    injectors = [w for w, role in wells if role == INJECTOR]
    if not producers or not injectors:
        raise ValueError("need at least one producer and one injector")

    pi_prod = sum(productivity_index(w, grid) for w in producers)
    pi_inj = sum(productivity_index(w, grid) for w in injectors)
    drainable = sum(drainable_oil_barrels(w, grid, params) for w in producers)

    n = econ.periods + 1
    oil = np.zeros(n)
    gas = np.zeros(n)
    water = np.zeros(n)
    if pi_prod <= 0.0 or drainable <= 0.0:
        return ProductionProfile(oil=oil, gas=gas, water=water)

    spacing = min(float(np.linalg.norm(np.subtract(_midpoint(p),
                                                   _midpoint(i))))
                  for p in producers for i in injectors)
    deliverability = pi_prod / (pi_prod + params.pi_half)
    injector_strength = (pi_inj / (pi_inj + params.pi_half)
                         * np.exp(-spacing / params.connectivity_length_m))
    support = (params.primary_recovery_floor
               + (1.0 - params.primary_recovery_floor) * injector_strength)
    eta = params.base_depletion_rate * deliverability * support

    breakthrough_half = (params.breakthrough_half_min
                         + params.breakthrough_half_span
                         * (1.0 - np.exp(-spacing / params.breakthrough_length_m)))

    cumulative = 0.0
    for period in range(1, n):
        remaining = drainable - cumulative
        q_oil = eta * remaining
        recovery = cumulative / drainable
        wc = params.water_cut_max / (1.0 + np.exp(
            -params.water_cut_steepness * (recovery - breakthrough_half)))
        oil[period] = q_oil
        water[period] = q_oil * wc / (1.0 - wc)
        gas[period] = params.gas_oil_ratio * q_oil
        cumulative += q_oil
    return ProductionProfile(oil=oil, gas=gas, water=water)


def reference_npv(profile, econ, cost):
    if profile.oil.shape[0] != econ.periods + 1:
        raise ValueError(f"profile must cover periods 0..{econ.periods}")
    periods = np.arange(profile.oil.shape[0])
    discount = (1.0 + econ.annual_discount_rate) ** (-periods)
    revenue = (profile.oil * econ.oil_price
               + profile.gas * econ.gas_price
               + profile.water * econ.water_cost)
    return float(np.sum(discount * revenue) - cost)


def reference_profile_error(oil, gas, water):
    for name, arr in (("oil", oil), ("gas", gas), ("water", water)):
        if np.any(arr < 0):
            return f"{name} volumes must be non-negative"
    return None


def proxy_params(draw):
    return ProxyParams(
        drainage_radius_m=draw(st.floats(50.0, 2000.0)),
        base_depletion_rate=draw(st.floats(0.0, 1.0)),
        pi_half=draw(st.floats(1.0, 1e7)),
        primary_recovery_floor=draw(st.floats(0.0, 1.0)),
        connectivity_length_m=draw(st.floats(10.0, 1e4)),
        water_cut_max=draw(st.floats(0.0, 0.99)),
        water_cut_steepness=draw(st.floats(0.0, 50.0)),
        breakthrough_half_min=draw(st.floats(-1.0, 1.0)),
        breakthrough_half_span=draw(st.floats(0.0, 1.0)),
        breakthrough_length_m=draw(st.floats(10.0, 1e4)),
        gas_oil_ratio=draw(st.floats(0.0, 5.0)))


@st.composite
def proxy_cases(draw):
    """An injector and a producer in or around the grid, random proxy
    constants, 1 to 30 periods and a discount rate, prices and a cost."""
    wells = [(draw(multilateral_wells()), INJECTOR),
             (draw(multilateral_wells()), PRODUCER)]
    params = proxy_params(draw) if draw(st.booleans()) else ProxyParams()
    econ = EconomicParams(periods=draw(st.integers(1, 30)),
                          annual_discount_rate=draw(st.floats(0.0, 0.5)),
                          oil_price=draw(st.floats(0.0, 200.0)),
                          water_cost=draw(st.floats(-20.0, 0.0)),
                          gas_price=draw(st.floats(0.0, 10.0)))
    return wells, params, econ, draw(st.floats(0.0, 1e8))


class TestProxyMatchesLoopVersion:
    @settings(max_examples=200, deadline=None)
    @given(case=proxy_cases())
    def test_profile_and_npv(self, case):
        wells, params, econ, cost = case
        # a near-zero step overflows the plane crossings in both versions
        with np.errstate(over="ignore", invalid="ignore"):
            got = simulate_wells(wells, BUNDLED, econ, params)
            want = reference_simulate(wells, BUNDLED, econ, params)
        for phase in ("oil", "gas", "water"):
            assert bits(getattr(got, phase)) == bits(getattr(want, phase))
        assert bits(npv(got, econ, cost)) == bits(
            reference_npv(want, econ, cost))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 6), data=st.data())
    def test_profile_check(self, n, data):
        value = st.one_of(st.floats(-10.0, 10.0),
                          st.sampled_from([0.0, -0.0, -1e-300, math.nan,
                                           math.inf, -math.inf]))
        oil, gas, water = (np.array(data.draw(st.lists(value, min_size=n,
                                                       max_size=n)))
                           for _ in range(3))
        want = reference_profile_error(oil, gas, water)
        if want is None:
            ProductionProfile(oil=oil, gas=gas, water=water)
        else:
            with pytest.raises(ValueError, match=want):
                ProductionProfile(oil=oil, gas=gas, water=water)


class TestProxy:
    def test_zero_pi_producer_yields_zero_profile(self, grid):
        econ = EconomicParams()
        producer = straight_well([100, 100, 50], [100, 100, 50])
        injector = straight_well([500, 500, 50], [900, 500, 50])
        profile = simulate_wells([(injector, INJECTOR),
                                  (producer, PRODUCER)], grid, econ)
        assert productivity_index(producer, grid) == 0.0
        assert profile.oil == profile.water == [0.0] * (econ.periods + 1)

    def test_missing_role_rejected(self):
        """`simulate` needs both roles; the config's layout has them."""
        with pytest.raises(ValueError, match="wells"):
            RunConfig({"kind": "well_placement",
                       "wells": [{"role": "injector", "deviations": 2}]})

    def test_doubling_saturation_doubles_first_period_oil(self):
        dims, cell = (6, 6, 3), (100.0, 100.0, 20.0)
        base = dict(dims=dims, cell_size=cell,
                    porosity=np.full(dims, 0.2),
                    permeability=np.full(dims, 100.0),
                    top_elevation=np.zeros(dims[:2]))
        grid_a = ReservoirGrid(oil_saturation=np.full(dims, 0.3), **base)
        grid_b = ReservoirGrid(oil_saturation=np.full(dims, 0.6), **base)
        econ = EconomicParams()
        producer = straight_well([50, 50, 30], [450, 50, 30])
        injector = straight_well([50, 450, 30], [450, 450, 30])
        wells = [(injector, INJECTOR), (producer, PRODUCER)]
        q1_a = simulate_wells(wells, grid_a, econ).oil[1]
        q1_b = simulate_wells(wells, grid_b, econ).oil[1]
        assert q1_b == pytest.approx(2.0 * q1_a, rel=1e-12)

    def test_rich_region_outproduces_poor_region(self, grid):
        econ = EconomicParams()
        injector = straight_well([1700, 2520, 60], [1700, 2820, 60])
        rich_producer = straight_well([700, 3300, 50], [1150, 3700, 55])
        poor_producer = straight_well([2800, 400, 50], [3250, 260, 55])
        rich = simulate_wells([(injector, INJECTOR),
                               (rich_producer, PRODUCER)], grid, econ)
        poor = simulate_wells([(injector, INJECTOR),
                               (poor_producer, PRODUCER)], grid, econ)
        assert rich.cumulative_oil > 2.0 * poor.cumulative_oil

    def test_water_cut_rises_with_recovery(self, grid):
        econ = EconomicParams()
        injector = straight_well([1700, 2520, 60], [1700, 2820, 60])
        producer = straight_well([700, 3300, 50], [1150, 3700, 55])
        profile = simulate_wells([(injector, INJECTOR),
                                  (producer, PRODUCER)], grid, econ)
        water, oil = np.array(profile.water[1:]), np.array(profile.oil[1:])
        cut = water / (water + oil)
        assert np.all(np.diff(cut) > 0)
        assert np.all(cut < ProxyParams().water_cut_max)

    def test_deterministic(self, grid):
        econ = EconomicParams()
        injector = straight_well([1700, 2520, 60], [1700, 2820, 60])
        producer = straight_well([700, 3300, 50], [1150, 3700, 55])
        wells = [(injector, INJECTOR), (producer, PRODUCER)]
        a = simulate_wells(wells, grid, econ)
        b = simulate_wells(wells, grid, econ)
        assert np.array_equal(a.oil, b.oil)
        assert np.array_equal(a.water, b.water)


GOOD_GENOME = np.array([
    1500.0, 4100.0, 60.0, 700.0, math.pi / 2, -2.5,
    700.0, 3200.0, 54.0, 700.0, math.pi / 2, 0.7,
])
BAD_GENOME = np.array([
    3300.0, 4900.0, 60.0, 100.0, math.pi / 2, 0.0,
    100.0, 200.0, 30.0, 100.0, math.pi / 2, 1.0,
])


@pytest.fixture(scope="module")
def problem():
    return well_problem()


class TestWellPlacementProblem:
    def test_dimension_and_layout(self, problem):
        assert problem.dim == 12
        assert [w.role for w in problem.layout] == [INJECTOR, PRODUCER]

    def test_constraint_structure(self, problem):
        constraints = problem.constraints()
        assert len(constraints) == 8
        lengths = [c for c in constraints if len(c.indices) > 0
                   and c.upper == problem.econ.max_well_length_m]
        assert len(lengths) == 2

    def test_constraint_bounds_are_python_floats(self, problem):
        """The penalty, `is_feasible` and the gamma growth read the
        bounds as Python floats, not as numpy scalars."""
        bounds = [bound for c in problem.constraints()
                  for bound in (c.lower, c.upper)]
        assert len(bounds) == 16
        assert all(type(bound) is float for bound in bounds)

    def test_good_beats_bad_frozen_fixture(self, problem):
        good = problem.raw_objective(GOOD_GENOME)
        bad = problem.raw_objective(BAD_GENOME)
        assert good < bad
        # frozen regression values from the bundled grid
        assert good == pytest.approx(-2032104729.24312, rel=1e-6)
        assert bad == pytest.approx(-11027294.46033163, rel=1e-6)

    def test_objective_is_deterministic(self, problem):
        a = problem.raw_objective(GOOD_GENOME)
        b = problem.raw_objective(GOOD_GENOME)
        assert a == b

    def test_out_of_grid_dominates_clamped(self, problem):
        outside = GOOD_GENOME.copy()
        outside[8] = 300.0     # producer heel z far below the grid
        clamped = GOOD_GENOME.copy()
        clamped[8] = 100.0
        v_out = problem.raw_objective(outside)
        v_in = problem.raw_objective(clamped)
        assert v_out >= GEOMETRY_PENALTY_BASE
        assert v_out > v_in

    # heel x, step length and azimuth of the injector, then the producer
    @pytest.mark.parametrize("index", [0, 3, 5, 6, 9, 11])
    def test_nan_coordinate_scores_nan_without_the_proxy(self, index):
        # under the RuntimeWarning filter: the proxy must not cast NaN
        # midpoints to cell indices
        problem = well_problem()
        genome = GOOD_GENOME.copy()
        genome[index] = math.nan
        assert math.isnan(problem.raw_objective(genome))
        assert problem.simulation_failures == 0
        detail = problem.evaluate_detail(genome)
        assert math.isnan(detail["objective"])
        assert "production" not in detail
        assert problem.simulation_failures == 0

    def test_subnormal_step_is_no_simulation_failure(self, monkeypatch):
        """Under np.errstate(all="raise") a producer whose step ends at a
        subnormal coordinate is scored, not counted as a simulation
        failure: the objective lets the drainage and the well midpoints
        underflow with the bits of numpy's default."""
        import wellopt.wells.problem as problem_module

        tiny = straight_well([100.0, 0.0, 50.0], [900.0, 1e-310, 50.0])
        decode = problem_module.decode_well

        def producer_as_tiny(genome_slice, n_deviations, n_branches):
            if genome_slice.tobytes() == GOOD_GENOME[6:].tobytes():
                return tiny
            return decode(genome_slice, n_deviations, n_branches)

        monkeypatch.setattr(problem_module, "decode_well", producer_as_tiny)
        scored = well_problem()
        expected = scored.raw_objective(GOOD_GENOME)
        raised = well_problem()
        with np.errstate(all="raise"):
            value = raised.raw_objective(GOOD_GENOME)
        assert raised.simulation_failures == 0
        assert bits(value) == bits(expected)
        assert value < 0.0   # a producing pattern, not the sentinel

    def test_subnormal_coordinate_is_decoded_as_by_default(self):
        """Under np.errstate(all="raise") a genome with a subnormal
        coordinate is decoded and scored with the bits of numpy's
        default, and counts no simulation failure."""
        genome = np.array([200.0, 1500.0, 54.0, 700.0, math.pi / 2, 0.0,
                           700.0, 1e-310, 54.0, 700.0, math.pi / 2, 0.0])
        expected = well_problem().raw_objective(genome)
        raised = well_problem()   # empty memo
        with np.errstate(all="raise"):
            value = raised.raw_objective(genome)
        assert bits(value) == bits(expected)
        assert raised.simulation_failures == 0
        assert value == pytest.approx(-1.3235e8, rel=1e-4)

    def test_subnormal_segment_length_is_scored_as_by_default(self):
        """Under np.errstate(all="raise") a producer whose first segment
        has subnormal components underflows in the squared segment length
        of the productivity index: it is scored with the bits of numpy's
        default, not as a simulation failure."""
        genome = np.array([200.0, 1500.0, 54.0, 700.0, math.pi / 2, 0.0,
                           700.0, 5e-308, 30.0, 60.0, 1e-300, -8.317e-10])
        expected = well_problem().raw_objective(genome)
        raised = well_problem()   # empty memo
        with np.errstate(all="raise"):
            value = raised.raw_objective(genome)
        assert bits(value) == bits(expected)
        assert raised.simulation_failures == 0
        assert value == -1106036.5154107017

    @pytest.mark.parametrize("operation, failures", [
        (lambda: np.array([1e-300]) * 1e-300, 0),
        (lambda: np.array([1e300]) * 1e300, 1),
        (lambda: np.array([0.0]) / 0.0, 1),
        (lambda: np.array([1.0]) / 0.0, 1),
    ], ids=["underflow", "overflow", "invalid", "divide"])
    def test_objective_lets_only_underflow_pass(self, monkeypatch,
                                                operation, failures):
        """The objective sets the proxy's one underflow policy: under
        np.errstate(all="raise") an underflow in the proxy is scored as
        numpy's default scores it, and any other floating-point error is
        a simulation failure."""
        import wellopt.wells.problem as problem_module

        shipped = problem_module.simulate

        def simulate(*args):
            operation()
            return shipped(*args)

        monkeypatch.setattr(problem_module, "simulate", simulate)
        problem = well_problem()
        with np.errstate(all="raise"):
            value = problem.raw_objective(GOOD_GENOME)
        assert problem.simulation_failures == failures
        assert (value == 10.0 * GEOMETRY_PENALTY_BASE) == bool(failures)

    def test_npv_sign_convention(self, problem):
        detail = problem.evaluate_detail(GOOD_GENOME)
        assert detail["npv"] == -problem.raw_objective(GOOD_GENOME)

    def test_evaluate_detail_reports_feasible_wells(self, monkeypatch):
        import wellopt.wells.problem as problem_module

        problem = well_problem()   # empty memo

        calls = {"simulate": 0, "check_geometry": 0}
        for name in calls:
            original = getattr(problem_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(problem_module, name, counted)
        detail = problem.evaluate_detail(GOOD_GENOME)
        assert calls == {"simulate": 1, "check_geometry": 2}
        assert len(detail["wells"]) == 2
        assert detail["wells"][0]["role"] == INJECTOR
        assert all(w["feasible"] for w in detail["wells"])
        assert detail["npv"] == pytest.approx(-detail["objective"])
        assert detail["production"]["cumulative_oil_bbl"] > 0

    # in the grid; the injector's heel out of it; the injector 1,000 m long
    @pytest.mark.parametrize("genome, feasible", [
        (GOOD_GENOME, [True, True]),
        (np.concatenate([[-500.0], GOOD_GENOME[1:]]), [False, True]),
        (np.concatenate([GOOD_GENOME[:3], [1000.0], GOOD_GENOME[4:]]),
         [False, True]),
    ])
    def test_evaluate_json_keeps_the_verdict(self, genome, feasible,
                                             capsys):
        """`wellopt evaluate` prints each well's feasibility, length excess
        and out-of-bounds distance as the verdict form gave them, and the
        rest of its JSON unchanged."""
        from wellopt.cli import main

        values = ",".join(map(repr, genome.tolist()))
        assert main(["evaluate", f"--genome={values}"]) == 0
        out = capsys.readouterr().out
        detail = json.loads(out)
        max_length = EconomicParams().max_well_length_m
        for well, block in zip(detail["wells"], (genome[:6], genome[6:])):
            verdict = numpy_check_geometry(decode_well(block, 1, 0),
                                           BUNDLED.extent, max_length)
            well.update(feasible=verdict.feasible,
                        length_excess_m=verdict.length_excess,
                        out_of_bounds_m=verdict.out_of_bounds_distance)
        assert out == json.dumps(detail, indent=2) + "\n"
        assert [w["feasible"] for w in detail["wells"]] == feasible

    def test_objective_reaches_traced_names(self, monkeypatch):
        """The benchmark's span tracing (perfbench/tracing.py) wraps these
        names where the caller looks them up; inlining one breaks it."""
        import wellopt.wells.problem as problem_module
        import wellopt.wells.proxy as proxy_module

        problem = well_problem()   # empty memo
        calls = {}
        for module, name in ((proxy_module, "productivity_index"),
                             (proxy_module, "drainable_oil_barrels"),
                             (problem_module, "decode_well"),
                             (problem_module, "check_geometry"),
                             (problem_module, "simulate")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert problem.raw_objective(GOOD_GENOME) < 0.0   # feasible, scored
        assert calls == {"productivity_index": 2, "drainable_oil_barrels": 1,
                         "decode_well": 2, "check_geometry": 2, "simulate": 1}
        calls.clear()
        outside = GOOD_GENOME.copy()
        outside[0] = -500.0                 # the injector's heel
        assert problem.raw_objective(outside) > GEOMETRY_PENALTY_BASE
        # the producer's block is unchanged: only the injector's is new
        assert calls == {"decode_well": 1, "check_geometry": 1}
        calls.clear()
        problem.raw_objective(GOOD_GENOME)  # every per-well term kept
        assert calls == {"simulate": 1}

    def test_bounds_cover_genome(self, problem):
        bounds = problem.bounds()
        assert bounds.shape == (12, 2)
        assert np.all(bounds[:, 0] < bounds[:, 1])
        assert np.all(GOOD_GENOME >= bounds[:, 0] - 1e-9)
        assert np.all(GOOD_GENOME <= bounds[:, 1] + 1e-9)

    def test_layout_requires_both_roles(self):
        with pytest.raises(ValueError, match="producer and one injector"):
            RunConfig({"kind": "well_placement",
                       "wells": [{"role": "producer"}]})

    def test_simulation_failure_maps_to_sentinel(self, monkeypatch):
        import wellopt.wells.problem as problem_module

        fresh = well_problem()

        def exploding(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(problem_module, "simulate", exploding)
        value = fresh.raw_objective(GOOD_GENOME)
        assert value == 10.0 * GEOMETRY_PENALTY_BASE
        assert value > GEOMETRY_PENALTY_BASE   # worse than any scored point
        assert fresh.simulation_failures == 1
        detail = fresh.evaluate_detail(GOOD_GENOME)
        assert detail["objective"] == value
        assert "npv" not in detail and "production" not in detail
        assert fresh.simulation_failures == 2


MEMO_LAYOUT = (WellLayout(INJECTOR, 1, 0), WellLayout(PRODUCER, 1, 1))
MEMO_BOUNDS = well_problem(layout=MEMO_LAYOUT).bounds()
# GOOD_GENOME with a branch on the producer: both wells in the grid
MEMO_GENOME = np.concatenate([GOOD_GENOME,
                              [300.0, 300.0, math.pi / 2, -0.8]])


@st.composite
def ga_like_genomes(draw):
    """Genomes in the order a GA scores them: a few variants of
    MEMO_GENOME, then children that copy an earlier genome and replace
    one coordinate or one whole well block, or set a coordinate to 0.0
    and to -0.0 (two twins). Replaced coordinates may reach 20% past the
    bounds, so some blocks leave the grid."""
    def coordinate(i):
        lo, hi = MEMO_BOUNDS[i]
        margin = 0.2 * (hi - lo)
        return draw(st.one_of(st.floats(lo, hi),
                              st.floats(lo - margin, hi + margin)))

    dim = len(MEMO_BOUNDS)
    blocks = []
    offset = 0
    for well in MEMO_LAYOUT:
        blocks.append(slice(offset, offset + well.dim))
        offset += well.dim
    genomes = []
    for _ in range(draw(st.integers(1, 3))):
        genome = MEMO_GENOME.copy()
        for i in draw(st.sets(st.integers(0, dim - 1), max_size=3)):
            genome[i] = coordinate(i)
        genomes.append(genome)
    for _ in range(draw(st.integers(1, 12))):
        child = draw(st.sampled_from(genomes)).copy()
        kind = draw(st.sampled_from(["coordinate", "block", "twins"]))
        i = draw(st.integers(0, dim - 1))
        if kind == "coordinate":
            child[i] = coordinate(i)
        elif kind == "block":
            block = draw(st.sampled_from(blocks))
            child[block] = draw(st.sampled_from(genomes))[block]
        else:
            child[i] = 0.0
            genomes.append(child.copy())
            child[i] = -0.0
        genomes.append(child)
    return genomes


class TestWellMemo:
    @settings(max_examples=100, deadline=None)
    @given(genomes=ga_like_genomes())
    def test_memo_scores_like_a_fresh_problem(self, genomes):
        import wellopt.wells.proxy as proxy_module

        original = proxy_module.drainable_oil_barrels

        def fails_on_some_producers(producer, grid, params):
            if int(producer.heel[0]) % 3 == 0:
                raise FloatingPointError("forced")
            return original(producer, grid, params)

        memoized = well_problem(layout=MEMO_LAYOUT)
        fresh_failures = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(proxy_module, "drainable_oil_barrels",
                          fails_on_some_producers)
            for genome in genomes:
                fresh = well_problem(layout=MEMO_LAYOUT)
                assert bits(memoized.raw_objective(genome)) == bits(
                    fresh.raw_objective(genome))
                fresh_failures += fresh.simulation_failures
        assert memoized.simulation_failures == fresh_failures

    def test_failed_simulation_then_scores_like_a_fresh_problem(
            self, monkeypatch):
        import wellopt.wells.problem as problem_module

        problem = well_problem()
        original = problem_module.simulate

        def exploding(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(problem_module, "simulate", exploding)
        assert problem.raw_objective(GOOD_GENOME) == 10.0 * GEOMETRY_PENALTY_BASE
        monkeypatch.setattr(problem_module, "simulate", original)
        assert bits(problem.raw_objective(GOOD_GENOME)) == bits(
            well_problem().raw_objective(GOOD_GENOME))
        assert problem.simulation_failures == 1

    def test_raising_terms_are_not_cached(self, monkeypatch):
        import wellopt.wells.proxy as proxy_module

        problem = well_problem()
        calls = []

        def failing(*args):
            calls.append(1)
            raise FloatingPointError("forced")

        monkeypatch.setattr(proxy_module, "drainable_oil_barrels", failing)
        for attempt in (1, 2):
            assert (problem.raw_objective(GOOD_GENOME)
                    == 10.0 * GEOMETRY_PENALTY_BASE)
            assert len(calls) == problem.simulation_failures == attempt
        _, _, _, terms = problem._memo[1]   # the producer's
        assert terms.cache_info().currsize == 0

    def test_memo_is_bounded_and_keeps_recent_blocks(self, monkeypatch):
        import wellopt.wells.problem as problem_module
        from wellopt.wells.problem import WELL_MEMO_SIZE

        problem = well_problem()
        decoded = []
        original = problem_module.decode_well
        monkeypatch.setattr(problem_module, "decode_well", lambda *args: (
            decoded.append(args[0].tobytes()) or original(*args)))
        kept = GOOD_GENOME.copy()
        problem.raw_objective(kept)
        for i in range(2 * WELL_MEMO_SIZE + 5):
            genome = GOOD_GENOME.copy()
            genome[[0, 6]] += 1.0 + i   # new blocks, in the grid
            problem.raw_objective(genome)
            problem.raw_objective(kept)        # recently used: kept
            for _, _, *caches in problem._memo:
                assert all(cache.cache_info().currsize <= WELL_MEMO_SIZE
                           for cache in caches)
        for _, _, *caches in problem._memo:
            assert all(cache.cache_info().currsize == WELL_MEMO_SIZE
                       for cache in caches)
        # never dropped, so decoded only on its first use
        assert decoded.count(kept[:6].tobytes()) == 1
        assert decoded.count(kept[6:].tobytes()) == 1
        assert len(decoded) == 2 * (2 * WELL_MEMO_SIZE + 6)

    def test_cached_geometry_is_read_only(self):
        problem = well_problem(layout=MEMO_LAYOUT)
        genome = MEMO_GENOME
        assert problem.raw_objective(genome) < 0.0   # in the grid, scored
        wells = problem._score(genome)[1]
        assert len(wells) == 2 and wells[1][0].branches
        for geometry, _ in wells:
            assert_frozen_floats(geometry)
            with pytest.raises(dataclasses.FrozenInstanceError):
                geometry.mainbore = ()
            for branch in geometry.branches:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    branch.end = branch.start
        detail = problem.evaluate_detail(genome)   # still reads them
        assert [w["heel"] for w in detail["wells"]] == [
            list(geometry.heel) for geometry, _ in wells]

    def test_evaluate_detail_takes_pi_from_the_memo(self, monkeypatch):
        import wellopt.wells.proxy as proxy_module

        problem = well_problem()
        calls = []
        pi = proxy_module.productivity_index
        monkeypatch.setattr(proxy_module, "productivity_index",
                            lambda *args: calls.append(1) or pi(*args))
        detail = problem.evaluate_detail(GOOD_GENOME)
        assert len(calls) == 2      # once per well, for the objective
        _, wells, terms, _, _ = problem._score(GOOD_GENOME)
        assert len(calls) == 2      # the scored terms come from the memo
        assert [w["productivity_index"] for w in detail["wells"]] == [
            t[0] for t in terms] == [pi(g, BUNDLED) for g, _ in wells]
        outside = GOOD_GENOME.copy()
        outside[0] = -500.0
        calls.clear()
        detail = problem.evaluate_detail(outside)   # short-circuited
        assert len(calls) == 2      # no scored terms: computed per well
        assert "npv" not in detail
        assert detail["wells"][1]["productivity_index"] == pi(
            problem._score(outside)[1][1][0], BUNDLED)
