"""A local fit solves its normal equations with one LAPACK `posv` call and
keeps the bits of the `potrf` + `potrs` pair it replaced.

`reference_forms.py` keeps the two-call form verbatim. On the normal
equations of a short `well_surrogate`-style run and on rank-deficient,
indefinite and underflowing systems, both forms return the same solution
bytes, take the ridge retry on the same systems and fail on the same
systems.
"""

from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import reference_forms as ref
import wellopt.harness as harness
import wellopt.metamodel as mm
from wellopt.metamodel import SurrogateUnavailable, basis_size

CONFIG = (Path(__file__).resolve().parents[1] / "configs"
          / "well_cma_surrogate.json")


def outcome(module, A, b, p):
    """(success of each solve attempt, solution bytes or None) of
    `module._solve_normal_equations`."""
    attempts = []
    solve = module._cholesky_solve

    def counted(*args):
        x = solve(*args)
        attempts.append(x is not None)
        return x

    with mock.patch.object(module, "_cholesky_solve", counted):
        try:
            beta = module._solve_normal_equations(A, b, p).tobytes()
        except SurrogateUnavailable:
            beta = None
    return attempts, beta


def assert_same_outcomes(systems) -> set:
    """Both forms agree on every system; returns the attempt patterns."""
    patterns = set()
    for A, b, p in systems:
        got = outcome(mm, A, b, p)
        assert got == outcome(ref, A, b, p)
        patterns.add(tuple(got[0]))
    return patterns


@pytest.fixture(scope="module")
def run_systems():
    """The normal equations of every fit in a 12-generation run."""
    config = replace(harness.RunConfig.load(CONFIG), max_generations=12)
    systems = []
    solve = mm._solve_normal_equations

    def recorded(A, b, p):
        systems.append((A.copy(), b.copy(), p))
        return solve(A, b, p)

    with mock.patch.object(mm, "_solve_normal_equations", recorded):
        harness.run_single(config, 1)
    return systems


def test_a_run_solves_with_the_same_bits(run_systems):
    assert len(run_systems) > 500
    assert (True,) in assert_same_outcomes(run_systems)


def degenerate_systems(rng):
    """Rank-deficient, indefinite and underflowing systems of the sizes a
    fit in 2 to 6 dimensions makes."""
    for _ in range(200):
        p = basis_size(int(rng.integers(2, 7)))
        b = rng.standard_normal(p)
        # rank below p: the Gram matrix of too few design rows, one with
        # the intercept's column duplicated, one with a coordinate gone
        M = rng.standard_normal((int(rng.integers(1, p)), p))
        yield M.T @ M, b, p
        M = rng.standard_normal((2 * p, p))
        M[:, -2] = M[:, -1]
        yield M.T @ M, b, p
        M[:, 0] = 0.0
        yield M.T @ M, b, p
        # indefinite: a symmetric matrix with a negative eigenvalue
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        eigenvalues = rng.uniform(0.1, 10.0, p)
        eigenvalues[int(rng.integers(p))] *= -1.0
        yield (Q * eigenvalues) @ Q.T, b, p
        # underflowing: the factor's entries or the solution leave the
        # normal range, or the solution overflows
        M = rng.standard_normal((2 * p, p))
        for scale in (1e-160, 1e-300, 1e-310, 1e150):
            yield scale * (M.T @ M), b, p
        yield M.T @ M, 1e300 * b, p


def test_degenerate_systems_fail_and_retry_alike():
    patterns = assert_same_outcomes(
        list(degenerate_systems(np.random.default_rng(31))))
    # plain solves, ridge retries that succeed, and failures all occur
    assert {(True,), (False, True), (False, False)} <= patterns
