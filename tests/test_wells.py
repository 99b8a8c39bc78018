import math

import numpy as np
import pytest

from wellopt.harness import load_bundled_grid
from wellopt.wells import (FEET_PER_METER, INJECTOR, PRODUCER, Branch,
                           EconomicParams, ProductionProfile, ProxyParams,
                           ReservoirGrid, WellGeometry, WellLayout,
                           WellPlacementProblem, check_geometry, decode_well,
                           drilling_cost, encode_well, generate_synthetic_grid,
                           genome_dimension, npv, point_at_arclength,
                           productivity_index, segment_cell_intersections,
                           simulate)
from wellopt.wells.problem import GEOMETRY_PENALTY_BASE


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

    def test_outside_segment_no_cells(self, grid):
        out = segment_cell_intersections(np.array([-500.0, -500.0, -500.0]),
                                         np.array([-400.0, -500.0, -500.0]),
                                         grid)
        assert out == []


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

    def test_evaluate_detail_reports_feasible_wells(self, problem,
                                                    monkeypatch):
        import wellopt.wells.problem as problem_module

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
