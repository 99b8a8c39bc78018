"""A generation's per-candidate and per-constraint bodies keep the bits of
their numpy forms.

`sphere` and the geometry sums add Python floats in numpy's pairwise
order, `Evaluator` probes its memo once per request, the sampler gathers
the single-coordinate constraint sums in one step, and gamma, its
increase threshold, xi and the q-means read diag(C) once as floats.
`reference_forms.py` keeps every earlier form verbatim: each value must
come out with the same bytes, each count equal, and the generator must
be left in the same state.
"""

import math

import numpy as np
import pytest

import reference_forms as ref
from wellopt.benchmarks import sphere
from wellopt.cma import SearchDistribution, default_strategy_params
from wellopt.constraints import (PenaltyState, SumConstraint,
                                 increase_trigger_threshold, maybe_set_gammas,
                                 row_means, sample_with_rejection, xi_factors)
from wellopt.floats import pairwise_sum
from wellopt.harness import Evaluator
from wellopt.metamodel import TrainingArchive
from wellopt.wells.geometry import WellGeometry
from wellopt.wells.proxy import _midpoint

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


def bits(values) -> bytes:
    """Byte image of floats: it tells -0.0 from 0.0. Every NaN maps to one
    NaN: which NaN an addition of two NaNs returns depends on the operand
    order the compiler chose."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


def hostile(rng, shape, special_share=0.1):
    """Normal draws over many magnitudes, a share of them replaced by
    +-0.0, +-inf and NaN."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    special = rng.random(shape) < special_share
    values[special] = rng.choice(SPECIAL, int(special.sum()))
    return values


def test_pairwise_sum_is_np_sum_on_20000_arrays():
    rng = np.random.default_rng(20000)
    for i in range(20000):
        values = hostile(rng, int(rng.integers(1, 300)),
                         0.0 if i % 2 else 0.05)
        if i % 10 == 0:
            values[:] = -0.0   # an all -0.0 sum starts from np.sum's 0.0
        with np.errstate(all="ignore"):
            expected = float(np.sum(values))
            earlier = ref.geometry_sum(values.tolist())
            got = pairwise_sum(values.tolist())
        assert bits(got) == bits(expected) == bits(earlier), values


@pytest.mark.parametrize("center", [0.0, -0.0, 2.0, 3, -1.5, 1e300])
def test_sphere_keeps_the_bits_for_every_length_to_200(center):
    rng = np.random.default_rng(200)
    for n in range(1, 201):
        x = hostile(rng, n, 0.2 if n % 3 == 0 else 0.0)
        with np.errstate(all="ignore"):
            expected = ref.sphere(x, center)
            got = sphere(x, center)
        assert type(got) is float
        assert bits(got) == bits(expected), (n, x, center)


def test_sphere_of_a_float_array():
    assert bits(sphere(np.array([1.0, 2.0, 3.0]), 1.0)) == bits(
        ref.sphere([1, 2, 3], 1))
    assert sphere(np.array([3.0, 4.0]), 0.0) == 25.0


CONSTRAINT_SETS = {
    "single": [((0,), -0.5, 0.5), ((3,), 0.0, 2.0), ((1,), -1.0, 1e-9)],
    "multi": [((0, 1, 2), -1.0, 1.0), ((1, 3), 0.0, 3.0),
              (tuple(range(9)), -2.0, 2.0)],
    "mixed": [((1,), -0.5, 2.0), ((0, 2, 3), -1.0, 1.0), ((4,), 0.0, 1.0),
              (tuple(range(10)), -3.0, 3.0), ((2,), -2.0, 0.0)],
    "overlapping": [((0, 1), -1.0, 1.0), ((1, 2), -1.0, 1.0),
                    ((1,), -0.5, 0.5), ((0, 1), -1.0, 1.0),
                    ((2, 1), 0.0, 2.0), ((1,), -0.5, 0.5)],
}


@pytest.mark.parametrize("name", sorted(CONSTRAINT_SETS))
@pytest.mark.parametrize("fraction", [0.05, 0.5, 3.0])
def test_sampler_keeps_the_bits(name, fraction):
    """Genomes, sums, redraws, exhaustions and generator state match the
    earlier sampler, on draws with +-0.0, +-inf and NaN coordinates."""
    constraints = [SumConstraint(*spec) for spec in CONSTRAINT_SETS[name]]
    for seed in range(12):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        for count in (7, 40):
            with np.errstate(all="ignore"):
                got = sample_with_rejection(
                    lambda m: hostile(got_rng, (m, 10), 0.05), count,
                    constraints, fraction)
                want = ref.sample_with_rejection(
                    lambda m: hostile(want_rng, (m, 10), 0.05), count,
                    constraints, fraction)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()
            assert got[1].flags.c_contiguous
            assert got[2:] == want[2:]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sampler_exhausts_and_redraws_as_before():
    """A feasible interval no draw reaches: every candidate is kept at
    the cap, with the earlier counts."""
    constraints = [SumConstraint((0,), 50.0, 51.0),
                   SumConstraint((1, 2), -1.0, 1.0)]
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = sample_with_rejection(lambda m: got_rng.standard_normal((m, 3)), 3,
                                constraints, 0.1)
    want = ref.sample_with_rejection(
        lambda m: want_rng.standard_normal((m, 3)), 3, constraints, 0.1)
    assert got[2:] == want[2:] == (300, 3)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_q_means_keep_the_bits_on_5000_blocks():
    """One row-wise sum gives each row's np.mean, NaN sums included."""
    rng = np.random.default_rng(5000)
    for _ in range(5000):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 80)))
        block = hostile(rng, shape, 0.05)
        with np.errstate(all="ignore"):
            want = [ref.mean_1d(row) for row in block]
            got = row_means(block)
        assert bits(got) == bits(want)


def distributions(rng, n):
    """Distributions over covariances whose diagonals span many
    magnitudes, with a NaN diagonal entry in some."""
    A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-40, 40, (n, 1))
    C = A @ A.T + 1e-90 * np.eye(n)
    if rng.random() < 0.2:
        C[int(rng.integers(n)), int(rng.integers(n))] = math.nan
    return SearchDistribution(mean=rng.uniform(-3, 3, n),
                              step_size=float(rng.uniform(0.01, 5.0)),
                              covariance=C, path_sigma=np.zeros(n),
                              path_c=np.zeros(n), generation=3)


def test_gamma_threshold_and_xi_keep_the_bits():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(1, 20))
        constraints = [SumConstraint(
            tuple(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)),
            -1.0, 1.0) for _ in range(int(rng.integers(1, 5)))]
        dist = distributions(rng, n)
        params = default_strategy_params(n, int(rng.integers(4, 30)), 100)
        with np.errstate(all="ignore"):
            assert bits(xi_factors(dist, constraints)) == bits(
                ref.xi_factors(dist, constraints))
        for c in constraints:
            assert bits(increase_trigger_threshold(dist, params, c)) == bits(
                ref.increase_trigger_threshold(dist, params, c))
        history = rng.uniform(0.0, 10.0, 3).tolist()
        got = PenaltyState(len(constraints), n, 10)
        want = ref.FlaggedPenaltyState(len(constraints), n, 10)
        got.fitness_history.extend(history)
        want.fitness_history.extend(history)
        dist.mean[:] = 5.0   # outside every (-1, 1)
        maybe_set_gammas(got, dist, constraints)
        ref.maybe_set_gammas(want, dist, constraints)
        assert bits(got.gammas) == bits(want.gammas)
        # the weights are set exactly when one is nonzero
        assert any(got.gammas) == want.gammas_initialized


def test_variances_are_read_once_per_distribution():
    dist = distributions(np.random.default_rng(1), 4)
    assert dist.variances is dist.variances
    assert bits(dist.variances) == bits(dist.covariance.diagonal())


def run_requests(evaluator_type, archive_type, requests):
    calls = []

    def objective(x):
        calls.append(x.tobytes())
        if x[0] > 10.0:
            return math.nan
        if x[0] < -10.0:
            return -math.inf
        return float(x @ x)

    archive = archive_type(2)
    evaluator = evaluator_type(objective, archive)
    values = [evaluator(genome) for genome in requests]
    return values, evaluator, archive, calls


def test_evaluator_counts_match_the_copying_archive():
    requests = [np.array(g) for g in (
        [1.0, 2.0], [1.0, 2.0], [0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
        [11.0, 0.0], [11.0, 0.0], [-11.0, 0.0], [-11.0, 0.0], [3.0, -0.0],
        [3.0, 0.0], [1.0, 2.0], [math.nan, 1.0], [math.nan, 1.0])]
    got = run_requests(Evaluator, TrainingArchive, requests)
    want = run_requests(ref.Evaluator, ref.ArchiveWithCopies, requests)
    assert bits(got[0]) == bits(want[0])
    for name in ("count", "nonfinite"):
        assert getattr(got[1], name) == getattr(want[1], name)
    # one evaluation per distinct byte key: -0.0 and 0.0 are two keys
    assert (got[1].count, got[1].nonfinite) == (8, 3)
    assert got[3] == want[3]
    assert len(got[2]) == len(want[2]) == 5
    for a, b in zip(got[2].as_arrays(), want[2].as_arrays()):
        assert a.tobytes() == b.tobytes()
    for genome in requests:
        key = genome.tobytes()
        assert bits(got[2].lookup(key)) == bits(want[2].lookup(key))
    # the regression genomes are the finite first requests, in order, and
    # stay so when a caller later writes to its array
    finite = np.array([[1.0, 2.0], [0.0, 1.0], [-0.0, 1.0], [3.0, -0.0],
                       [3.0, 0.0]])
    requests[0][0] = 99.0
    assert got[2].as_arrays()[0].tobytes() == finite.tobytes()
    assert got[2].newest()[0].tobytes() == finite[-1].tobytes()


@pytest.mark.parametrize("archive_type", [TrainingArchive,
                                          ref.ArchiveWithCopies])
def test_adding_a_stored_genome_again_changes_nothing(archive_type):
    """A genome added again keeps its first value and adds no regression
    row."""
    archive = archive_type(2)

    def add(genome, value):
        genome = np.asarray(genome, dtype=float)
        if archive_type is TrainingArchive:
            return archive.add(genome.tobytes(), value)
        return archive.add(genome, value, genome.tobytes())

    genome = np.array([1.0, -0.0])
    key = genome.tobytes()
    assert add(genome, 1.0)
    assert not add(genome, 1.0)
    assert not add(genome, 2.0)
    assert not add([1, -0.0], 3.0)
    unfinished = np.array([2.0, 0.0])   # a NaN is remembered, not regressed
    assert not add(unfinished, math.nan)
    assert not add(unfinished, 4.0)
    assert len(archive) == 1
    assert archive.lookup(key) == 1.0
    assert math.isnan(archive.lookup(unfinished.tobytes()))
    matrix, values = archive.as_arrays()
    assert matrix.tobytes() == key and values.tolist() == [1.0]


def test_midpoint_keeps_the_bits():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        points = hostile(rng, (2, 3), 0.1)
        if rng.random() < 0.3:
            points[int(rng.integers(2)), int(rng.integers(3))] = 1e-310
        well = WellGeometry(mainbore=tuple(map(tuple, points.tolist())),
                            branches=())
        with np.errstate(all="ignore"):
            assert bits(_midpoint(well)) == bits(ref.midpoint(well))
