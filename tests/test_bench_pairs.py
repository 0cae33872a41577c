import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import bench_pairs  # noqa: E402


def test_compare_counts_wins_by_direction_and_ties_for_neither():
    parent = [0.5, 0.4, 0.6, 0.45]
    change = [0.3, 0.4, 0.7, 0.35]  # better, tie, worse, better
    row = bench_pairs.compare(parent, change, lower_is_better=True)
    assert row["change_better_pairs"] == 2 and row["pairs"] == 4
    assert bench_pairs.compare(parent, change, lower_is_better=False)["change_better_pairs"] == 1
    assert row["parent"]["median"] == 0.475
    assert row["change"]["median"] == 0.375
    assert row["change_vs_parent_median"] == round((0.375 - 0.475) / 0.475, 4)


def test_spread_takes_inclusive_quartiles():
    s = bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["min"], s["max"]) == (2.0, 3.0, 4.0, 1.0, 5.0)


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_over_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [x - 0.6 for x in parent]
    assert bench_pairs.judge_claim(bench_pairs.compare(parent, change, True), True)["met"]
    # the same gain in the wrong direction, or within the parent's spread
    assert not bench_pairs.judge_claim(bench_pairs.compare(parent, change, False), False)["met"]
    near = [x - 0.3 for x in parent]
    assert not bench_pairs.judge_claim(bench_pairs.compare(parent, near, True), True)["met"]
    # two losing pairs of ten
    two_lost = change[:8] + [2.0, 2.0]
    assert not bench_pairs.judge_claim(bench_pairs.compare(parent, two_lost, True), True)["met"]
    # two pairs won of two are not evidence
    short = bench_pairs.compare([1.0, 1.1], [0.1, 0.2], True)
    assert not bench_pairs.judge_claim(short, True)["met"]
