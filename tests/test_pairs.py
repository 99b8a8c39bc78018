"""The verdict `tools/pairs.py` prints per metric, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("tools_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = load_pairs().verdict
# ten parent runs: median 1.0, IQR 0.035 (3.5% of the median)
PARENT = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_needs_nine_wins_in_ten_and_the_parent_iqr(better):
    factor = 0.9 if better == "lower" else 1.1
    after = scaled(PARENT, factor)   # better in every pair, by 10%
    assert verdict(PARENT, after, better, 0.2) == "gain"
    nine = after[:9] + [PARENT[9] / factor]   # one pair lost
    assert verdict(PARENT, nine, better, 0.2) == "gain"
    eight = after[:8] + [PARENT[8] / factor, PARENT[9] / factor]
    assert verdict(PARENT, eight, better, 0.2) == "level"
    close = scaled(PARENT, 0.99 if better == "lower" else 1.01)
    assert verdict(PARENT, close, better, 0.2) == "level"   # within the IQR


def test_ties_count_for_neither_side():
    after = scaled(PARENT, 0.9)
    assert verdict(PARENT, after[:9] + PARENT[9:], "lower", 0.2) == "gain"
    tied = after[:8] + PARENT[8:]   # 8 wins, 2 ties
    assert verdict(PARENT, tied, "lower", 0.2) == "level"
    assert verdict(PARENT, PARENT, "lower", 0.2) == "level"


@pytest.mark.parametrize("better,factor", [("lower", 1.3), ("higher", 0.7)])
def test_worse_is_a_median_beyond_the_bound(better, factor):
    assert verdict(PARENT, scaled(PARENT, factor), better, 0.2) == "worse"
    assert verdict(PARENT, scaled(PARENT, factor), better, 0.5) == "level"


def test_worse_than_a_zero_median():
    assert verdict([0.0] * 10, [1.0] * 10, "lower", 0.2) == "worse"
    assert verdict([0.0] * 10, [0.0] * 10, "lower", 0.2) == "level"


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    wide = [2.0] * 5 + [9.0] * 5   # median 5.5, IQR 7
    assert verdict(wide, [5.6] * 10, "lower", 0.25) == "unresolved"
    assert verdict(wide, [5.4] * 10, "lower", 0.25) == "unresolved"
    # every change run beats every parent run, by less than the IQR
    assert verdict(wide, [1.9] * 10, "lower", 0.25) == "level"
    assert verdict(wide, [5.6] * 10, "lower", 2.0) == "level"


def test_golden_moved_only_against_a_matching_parent():
    golden_moved = load_pairs().golden_moved
    match, changed = "match (16 runs)", "CHANGED for 1 of 16 runs: ['1003']"
    assert golden_moved([match] * 3, [match, changed, match])
    assert golden_moved([match], ["absent"])
    assert not golden_moved([match] * 3, [match] * 3)
    # a parent that does not match is no baseline to judge by
    for parent in ("no golden file", "not comparable: fingerprint differs "
                   "in ['blas']", changed, "absent"):
        assert not golden_moved([match, parent], [changed] * 2)
