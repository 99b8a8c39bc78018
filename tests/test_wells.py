import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellopt.harness import load_bundled_grid
from wellopt.wells import (FEET_PER_METER, INJECTOR, PRODUCER, Branch,
                           EconomicParams, GeometryVerdict, ProductionProfile,
                           ProxyParams, ReservoirGrid, WellGeometry,
                           WellLayout, WellPlacementProblem, check_geometry,
                           decode_well, drainable_oil_barrels, drilling_cost,
                           encode_well, generate_synthetic_grid,
                           genome_dimension, npv, point_at_arclength,
                           productivity_index, segment_cell_intersections,
                           simulate)
from wellopt.wells.economics import _bore_cost
from wellopt.wells.problem import GEOMETRY_PENALTY_BASE
from wellopt.wells.proxy import BARRELS_PER_M3, _midpoint


def straight_well(start, end):
    return WellGeometry(mainbore=np.array([start, end], dtype=float),
                        branches=[])


class TestGenomeDimension:
    def test_reference_unilateral_pair(self):
        assert genome_dimension(1, 0) == 6
        assert genome_dimension(1, 0, n_wells=2) == 12

    def test_heel_only(self):
        assert genome_dimension(0, 0) == 3

    def test_deviations_and_branches(self):
        assert genome_dimension(2, 1) == 3 * 3 + 4

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            genome_dimension(-1, 0)


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
                float(np.linalg.norm(well.mainbore[i + 1] - well.mainbore[i]))
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

    def test_wrong_slice_length_raises(self):
        with pytest.raises(ValueError):
            decode_well(np.zeros(5), 1, 0)

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
        assert again.defining_points() == pytest.approx(
            well.defining_points(), rel=1e-12, abs=1e-9)
        twice = decode_well(genome, n_dev, n_br)
        assert np.array_equal(twice.defining_points(), well.defining_points())

    def test_point_at_arclength_clamps(self):
        mainbore = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert np.allclose(point_at_arclength(mainbore, -5.0), [0, 0, 0])
        assert np.allclose(point_at_arclength(mainbore, 999.0), [10, 0, 0])
        assert np.allclose(point_at_arclength(mainbore, 10.0), [10, 0, 0])


class TestCheckGeometry:
    EXTENT = np.array([100.0, 100.0, 50.0])

    def test_inside_and_short_is_feasible(self):
        well = straight_well([10, 10, 10], [60, 10, 10])
        verdict = check_geometry(well, self.EXTENT, max_length=100.0)
        assert verdict.feasible
        assert verdict.length_excess == 0.0
        assert verdict.out_of_bounds_distance == 0.0

    def test_heel_outside_is_infeasible(self):
        well = straight_well([-10, 10, 10], [60, 10, 10])
        verdict = check_geometry(well, self.EXTENT, max_length=1000.0)
        assert not verdict.feasible
        assert verdict.out_of_bounds_distance == pytest.approx(10.0)

    def test_overlong_well_infeasible(self):
        well = straight_well([0, 10, 10], [90, 10, 10])
        verdict = check_geometry(well, self.EXTENT, max_length=80.0)
        assert not verdict.feasible
        assert verdict.length_excess == pytest.approx(10.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            points = rng.uniform(-20, 120, (3, 3))
            well = WellGeometry(mainbore=points, branches=[])
            max_length = float(rng.uniform(10, 300))
            verdict = check_geometry(well, self.EXTENT, max_length)
            # oracle: explicit point-in-box check plus summed segment norms
            length = 0.0
            for a, b in zip(points[:-1], points[1:]):
                length += math.sqrt(sum((bi - ai) ** 2 for ai, bi in zip(a, b)))
            inside = all(
                0 <= p[k] <= self.EXTENT[k] for p in points for k in range(3))
            assert verdict.feasible == (inside and length < max_length)


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
        branch = Branch(start_arclength=50.0,
                        start=np.array([50.0, 0.0, 0.0]),
                        end=np.array([50.0, 40.0, 0.0]))
        lateral = WellGeometry(mainbore=plain.mainbore.copy(),
                               branches=[branch])
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

    def test_wrong_profile_length_rejected(self):
        econ = EconomicParams(periods=3)
        profile = ProductionProfile(oil=np.zeros(2), gas=np.zeros(2),
                                    water=np.zeros(2))
        with pytest.raises(ValueError):
            npv(profile, econ, 0.0)

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
        assert np.array_equal(inv_a.centers, grid_a.cell_centers())
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


def grid_coordinate(axis):
    """A coordinate inside or around the bundled grid, often exactly on a
    face or an interior grid plane."""
    extent = float(BUNDLED.extent[axis])
    on_plane = st.integers(0, BUNDLED.dims[axis]).map(
        lambda k: k * BUNDLED.cell_size[axis])
    return st.one_of(st.floats(-0.3 * extent, 1.3 * extent), on_plane)


@st.composite
def grid_segments(draw):
    """Free, axis-parallel, zero-length and fully outside segments."""
    start = [draw(grid_coordinate(axis)) for axis in range(3)]
    end = [draw(grid_coordinate(axis)) for axis in range(3)]
    kind = draw(st.sampled_from(["free", "axis_parallel", "zero_length",
                                 "outside"]))
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
        assert (segment_cell_intersections(start, end, BUNDLED)
                == loop_segment_cell_intersections(start, end, BUNDLED))
        well = straight_well(start, end)
        assert (productivity_index(well, BUNDLED)
                == loop_productivity_index(well, BUNDLED))
        params = ProxyParams()
        assert (drainable_oil_barrels(well, BUNDLED, params)
                == loop_drainable_oil_barrels(well, BUNDLED, params))

    @settings(max_examples=200, deadline=None)
    @given(well=multilateral_wells())
    def test_multilateral_well(self, well):
        assert (productivity_index(well, BUNDLED)
                == loop_productivity_index(well, BUNDLED))
        params = ProxyParams()
        assert (drainable_oil_barrels(well, BUNDLED, params)
                == loop_drainable_oil_barrels(well, BUNDLED, params))

    def test_heel_only_well_drains_nothing(self):
        well = WellGeometry(mainbore=np.array([[900.0, 900.0, 60.0]]),
                            branches=[])
        params = ProxyParams()
        assert drainable_oil_barrels(well, BUNDLED, params) == 0.0
        assert loop_drainable_oil_barrels(well, BUNDLED, params) == 0.0
        assert productivity_index(well, BUNDLED) == 0.0


# The numpy versions of the geometry routines, kept verbatim as the
# reference the Python-float ones must match bit for bit.
def numpy_mainbore_length(well):
    steps = np.diff(well.mainbore, axis=0)
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


def numpy_check_geometry(geometry, extent, max_length):
    extent = np.asarray(extent, dtype=float)
    points = geometry.defining_points()
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
                               start=np.array(start, dtype=float),
                               end=np.array(end, dtype=float)))
    return WellGeometry(mainbore=np.array(mainbore, dtype=float),
                        branches=branches)


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
                numpy_point_at_arclength(well.mainbore, arclength))

    @staticmethod
    def assert_same_checks(well, max_length):
        assert bits(well.mainbore_length) == bits(numpy_mainbore_length(well))
        assert bits(well.total_length) == bits(numpy_total_length(well))
        econ = EconomicParams()
        assert bits(drilling_cost([well], econ)) == bits(
            numpy_drilling_cost([well], econ))
        for extent in (BUNDLED.extent, BUNDLED.invariants.extent):
            got = check_geometry(well, extent, max_length)
            want = numpy_check_geometry(well, BUNDLED.extent, max_length)
            assert got.feasible == want.feasible
            assert bits(got.length_excess) == bits(want.length_excess)
            assert bits(got.out_of_bounds_distance) == bits(
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
        well = WellGeometry(mainbore=mainbore, branches=[])
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

    spacing = min(float(np.linalg.norm(_midpoint(p) - _midpoint(i)))
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
    if profile.n_periods != econ.periods + 1:
        raise ValueError(f"profile must cover periods 0..{econ.periods}")
    periods = np.arange(profile.n_periods)
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
            got = simulate(wells, BUNDLED, econ, params)
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
        profile = simulate([(injector, INJECTOR), (producer, PRODUCER)],
                           grid, econ)
        assert productivity_index(producer, grid) == 0.0
        assert np.all(profile.oil == 0.0)
        assert np.all(profile.water == 0.0)

    def test_missing_role_rejected(self, grid):
        well = straight_well([100, 100, 50], [500, 100, 50])
        with pytest.raises(ValueError):
            simulate([(well, PRODUCER)], grid, EconomicParams())

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
        q1_a = simulate(wells, grid_a, econ).oil[1]
        q1_b = simulate(wells, grid_b, econ).oil[1]
        assert q1_b == pytest.approx(2.0 * q1_a, rel=1e-12)

    def test_rich_region_outproduces_poor_region(self, grid):
        econ = EconomicParams()
        injector = straight_well([1700, 2520, 60], [1700, 2820, 60])
        rich_producer = straight_well([700, 3300, 50], [1150, 3700, 55])
        poor_producer = straight_well([2800, 400, 50], [3250, 260, 55])
        rich = simulate([(injector, INJECTOR), (rich_producer, PRODUCER)],
                        grid, econ)
        poor = simulate([(injector, INJECTOR), (poor_producer, PRODUCER)],
                        grid, econ)
        assert rich.cumulative_oil > 2.0 * poor.cumulative_oil

    def test_water_cut_rises_with_recovery(self, grid):
        econ = EconomicParams()
        injector = straight_well([1700, 2520, 60], [1700, 2820, 60])
        producer = straight_well([700, 3300, 50], [1150, 3700, 55])
        profile = simulate([(injector, INJECTOR), (producer, PRODUCER)],
                           grid, econ)
        cut = profile.water[1:] / (profile.water[1:] + profile.oil[1:])
        assert np.all(np.diff(cut) > 0)
        assert np.all(cut < ProxyParams().water_cut_max)

    def test_deterministic(self, grid):
        econ = EconomicParams()
        injector = straight_well([1700, 2520, 60], [1700, 2820, 60])
        producer = straight_well([700, 3300, 50], [1150, 3700, 55])
        wells = [(injector, INJECTOR), (producer, PRODUCER)]
        a = simulate(wells, grid, econ)
        b = simulate(wells, grid, econ)
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
    return WellPlacementProblem(load_bundled_grid())


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

    def test_npv_sign_convention(self, problem):
        detail = problem.evaluate_detail(GOOD_GENOME)
        assert detail["npv"] == -problem.raw_objective(GOOD_GENOME)

    def test_evaluate_detail_reports_feasible_wells(self, monkeypatch):
        import wellopt.wells.problem as problem_module

        problem = WellPlacementProblem(load_bundled_grid())   # empty memo

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

    def test_objective_reaches_traced_names(self, monkeypatch):
        """The benchmark's span tracing (perfbench/tracing.py) wraps these
        names where the caller looks them up; inlining one breaks it."""
        import wellopt.wells.problem as problem_module
        import wellopt.wells.proxy as proxy_module

        problem = WellPlacementProblem(load_bundled_grid())   # empty memo
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
        with pytest.raises(ValueError):
            WellPlacementProblem(load_bundled_grid(),
                                 layout=(WellLayout(PRODUCER, 1, 0),))

    def test_simulation_failure_maps_to_sentinel(self, monkeypatch):
        import wellopt.wells.problem as problem_module

        fresh = WellPlacementProblem(load_bundled_grid())

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
MEMO_BOUNDS = WellPlacementProblem(BUNDLED, layout=MEMO_LAYOUT).bounds()
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

        memoized = WellPlacementProblem(BUNDLED, layout=MEMO_LAYOUT)
        fresh_failures = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(proxy_module, "drainable_oil_barrels",
                          fails_on_some_producers)
            for genome in genomes:
                fresh = WellPlacementProblem(BUNDLED, layout=MEMO_LAYOUT)
                assert bits(memoized.raw_objective(genome)) == bits(
                    fresh.raw_objective(genome))
                fresh_failures += fresh.simulation_failures
        assert memoized.simulation_failures == fresh_failures

    def test_failed_simulation_keeps_no_terms(self, monkeypatch):
        import wellopt.wells.problem as problem_module
        import wellopt.wells.proxy as proxy_module

        problem = WellPlacementProblem(BUNDLED)
        original = problem_module.simulate

        def exploding(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(problem_module, "simulate", exploding)
        assert problem.raw_objective(GOOD_GENOME) == 10.0 * GEOMETRY_PENALTY_BASE
        monkeypatch.setattr(problem_module, "simulate", original)
        calls = []
        pi = proxy_module.productivity_index
        monkeypatch.setattr(proxy_module, "productivity_index",
                            lambda *args: calls.append(1) or pi(*args))
        assert problem.raw_objective(GOOD_GENOME) == WellPlacementProblem(
            BUNDLED).raw_objective(GOOD_GENOME)
        assert len(calls) == 2 + 2    # the memo's wells, then the fresh ones
        assert problem.simulation_failures == 1

    def test_memo_is_bounded_and_keeps_recent_blocks(self):
        from wellopt.wells.problem import WELL_MEMO_SIZE

        problem = WellPlacementProblem(BUNDLED)
        kept = GOOD_GENOME.copy()
        first = problem._entries(kept)
        for i in range(2 * WELL_MEMO_SIZE + 5):
            genome = GOOD_GENOME.copy()
            genome[0] = genome[6] = -1.0 - i   # new blocks, out of the grid
            problem.raw_objective(genome)
            problem.raw_objective(kept)        # recently used: kept
            assert all(len(memo) <= WELL_MEMO_SIZE for memo in problem._memo)
        assert all(len(memo) == WELL_MEMO_SIZE for memo in problem._memo)
        # never dropped, so never decoded again
        assert [problem._memo[0][kept[:6].tobytes()],
                problem._memo[1][kept[6:].tobytes()]] == first

    def test_cached_geometry_is_read_only(self):
        problem = WellPlacementProblem(BUNDLED, layout=MEMO_LAYOUT)
        genome = MEMO_GENOME
        assert problem.raw_objective(genome) < 0.0   # in the grid, scored
        entries = problem._entries(genome)
        assert len(entries) == 2 and entries[1].geometry.branches
        for entry in entries:
            geometry = entry.geometry
            arrays = [geometry.mainbore] + [a for b in geometry.branches
                                            for a in (b.start, b.end)]
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
        detail = problem.evaluate_detail(genome)   # still reads them
        assert [w["heel"] for w in detail["wells"]] == [
            e.geometry.heel.tolist() for e in entries]

    def test_evaluate_detail_takes_pi_from_the_memo(self, monkeypatch):
        import wellopt.wells.proxy as proxy_module

        problem = WellPlacementProblem(BUNDLED)
        calls = []
        pi = proxy_module.productivity_index
        monkeypatch.setattr(proxy_module, "productivity_index",
                            lambda *args: calls.append(1) or pi(*args))
        detail = problem.evaluate_detail(GOOD_GENOME)
        assert len(calls) == 2      # once per well, for the objective
        assert [w["productivity_index"] for w in detail["wells"]] == [
            pi(g, BUNDLED) for g in (e.geometry
                                     for e in problem._entries(GOOD_GENOME))]
        outside = GOOD_GENOME.copy()
        outside[0] = -500.0
        calls.clear()
        detail = problem.evaluate_detail(outside)   # short-circuited
        assert len(calls) == 1      # the new injector block's; the
        assert "npv" not in detail  # producer's comes from the memo
        assert detail["wells"][1]["productivity_index"] == pi(
            problem._entries(outside)[1].geometry, BUNDLED)
