"""The verdict logic of tools/bench_pairs.py on fixed numbers; no bench
runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [500.0, 510.0, 505.0, 520.0, 498.0, 515.0, 502.0, 508.0, 512.0,
          500.0]


def test_quartiles_of_one_side():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_gain_on_every_pair_beyond_the_parent_iqr_holds():
    change = [p * 1.10 for p in PARENT]
    holds, gap, iqr = bench_pairs.claim_verdict(PARENT, change, "higher")
    assert holds and gap > iqr
    assert bench_pairs.pair_wins(PARENT, change, "higher") == 10


def test_nine_of_ten_pairs_is_enough_and_eight_is_not():
    change = [p * 1.10 for p in PARENT]
    change[3] = PARENT[3]  # a tie counts for neither side
    assert bench_pairs.claim_verdict(PARENT, change, "higher")[0]
    change[5] = PARENT[5] - 1
    assert bench_pairs.pair_wins(PARENT, change, "higher") == 8
    assert not bench_pairs.claim_verdict(PARENT, change, "higher")[0]


def test_a_gain_inside_the_parent_iqr_does_not_hold():
    # every pair won by 1, but the parent's quartiles lie 10 apart
    change = [p + 1 for p in PARENT]
    holds, gap, iqr = bench_pairs.claim_verdict(PARENT, change, "higher")
    assert not holds and gap == pytest.approx(1.0) and iqr > 1


def test_lower_is_better_turns_the_gap_around():
    parent = [2.0, 2.1, 2.05, 1.95, 2.0]
    holds, gap, _ = bench_pairs.claim_verdict(
        parent, [x * 0.8 for x in parent], "lower")
    assert holds and gap > 0
    assert not bench_pairs.claim_verdict(
        parent, [x * 1.2 for x in parent], "lower")[0]


def test_bound_check():
    tight = [100.0, 100.5, 99.5, 100.0]
    # 20% slower against a 0.25 bound is within; 30% slower is worse
    assert bench_pairs.bound_check(
        tight, [x * 0.8 for x in tight], "higher", 0.25) == "within"
    assert bench_pairs.bound_check(
        tight, [x * 0.7 for x in tight], "higher", 0.25) == "worse"
    assert bench_pairs.bound_check(
        tight, [x * 1.11 for x in tight], "lower", 0.1) == "worse"
    # a parent spread wider than the bound cannot show "within" ...
    wide = [80.0, 100.0, 120.0, 140.0]
    assert bench_pairs.bound_check(wide, wide, "lower", 0.1) == "unresolved"
    # ... unless every change run beats every parent run
    assert bench_pairs.bound_check(
        wide, [x / 2 for x in wide], "lower", 0.1) == "within"
