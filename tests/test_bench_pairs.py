"""Unit tests of the pure helpers in tools/bench_pairs.py; no benchmark is run."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(before, after, name):
    return [
        {"before": {"metrics": {name: b}}, "after": {"metrics": {name: a}}}
        for b, a in zip(before, after)
    ]


def test_parse_seeds_ranges_and_singles():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("601-603") == [601, 602, 603]


def test_spread_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


# "after" is higher in pair 1, lower in pairs 2 and 3, and ties in pair 4
@pytest.mark.parametrize("better, wins", [("higher", 1), ("lower", 2)])
def test_summarise_counts_wins_not_ties(better, wins):
    before, after = [10.0, 20.0, 30.0, 40.0], [11.0, 19.0, 28.0, 40.0]
    metric = {"name": "m", "better": better, "bound": 0.25}
    summary = bench_pairs.summarise(_runs(before, after, "m"), [metric])["m"]
    assert summary["better"] == better
    assert summary["after_better_pairs"] == wins
    assert summary["pairs"] == 4
    assert summary["before"] == bench_pairs.spread(before)
    assert summary["after"] == bench_pairs.spread(after)
    assert summary["bound"] == 0.25 and not summary["worse_beyond_bound"]


# before medians 100; "after" medians 70, 80, 120 and 130
@pytest.mark.parametrize(
    "better, after, worse",
    [
        ("higher", 70.0, True),  # 30% lower
        ("higher", 80.0, False),  # 20% lower, within the bound
        ("higher", 130.0, False),
        ("lower", 130.0, True),  # 30% higher
        ("lower", 120.0, False),  # 20% higher, within the bound
        ("lower", 70.0, False),
    ],
)
def test_worse_beyond_bound_compares_medians_with_bound_times_before(better, after, worse):
    before = [90.0, 100.0, 110.0]
    metric = {"name": "m", "better": better, "bound": 0.25}
    runs = _runs(before, [after - 10.0, after, after + 10.0], "m")
    summary = bench_pairs.summarise(runs, [metric])["m"]
    assert summary["bound"] == 0.25
    assert summary["worse_beyond_bound"] is worse


# before quartiles 95 and 105 (IQR 10, 10% of the median 100)
@pytest.mark.parametrize(
    "bound, after, unresolved",
    [
        (0.25, [96.0, 100.0, 104.0], False),  # spread within the bound
        (0.05, [96.0, 100.0, 104.0], True),  # spread wider than the bound, runs overlap
        (0.05, [121.0, 125.0, 130.0], False),  # every "after" run beats every "before" run
        (0.05, [110.0, 125.0, 130.0], True),  # one "after" run ties the best "before" run
    ],
)
def test_unresolved_when_the_before_spread_exceeds_the_bound(bound, after, unresolved):
    before = [90.0, 100.0, 110.0]
    for better, sign in (("higher", 1.0), ("lower", -1.0)):
        metric = {"name": "m", "better": better, "bound": bound}
        runs = _runs([sign * b for b in before], [sign * a for a in after], "m")
        assert bench_pairs.summarise(runs, [metric])["m"]["unresolved"] is unresolved


def test_side_health_counts_failed_operations_and_incorrect_runs():
    runs = [
        {"after": {"attempted": 90, "failed": 0, "correct": True},
         "before": {"attempted": 100, "failed": 3, "correct": True}},
        {"after": {"attempted": 110, "failed": 0, "correct": True},
         "before": {"attempted": 100, "failed": 1, "correct": False}},
    ]
    assert bench_pairs.side_health(runs, "before") == {"failed_share": 0.02, "not_correct_runs": 1}
    assert bench_pairs.side_health(runs, "after") == {"failed_share": 0.0, "not_correct_runs": 0}
