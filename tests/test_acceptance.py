"""Acceptance gate: one test per headline criterion, all checks exact.

Every test runs the matching verification suite from bosonorder.verify and
prints a single PASS/FAIL line (visible with ``pytest -v -s`` or in the
failure report).  Tolerances are zero everywhere: a criterion passes only
if every case's residual is literally "0", and the whole report matches the
committed golden output.
"""

import json
import sys
import time
from pathlib import Path

from bosonorder import verify

#: The reports of ``bosonorder verify all --seed 0`` by suite name; every
#: report must match its entry byte for byte.
GOLDEN = {r["suite"]: r for r in json.loads(
    (Path(__file__).resolve().parent / "golden" / "verify_all.json")
    .read_text(encoding="utf-8"))}


def _run(name: str, budget: float | None = None) -> None:
    start = time.time()
    report = verify.run_suite(name)
    elapsed = time.time() - start
    failed = [c for c in report["cases"] if c["status"] != "pass"]
    status = "FAIL" if failed else "PASS"
    print(f"[{status}] {name}: {len(report['cases'])} cases, "
          f"{elapsed:.1f}s", file=sys.stderr)
    detail = "; ".join(f"{c['params']} -> {c['residual']}"
                       for c in failed[:5])
    assert not failed, f"{name}: {detail}"
    assert json.dumps(report, indent=2) == json.dumps(GOLDEN[name], indent=2), \
        f"{name}: report differs from tests/golden/verify_all.json"
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s"


def test_criterion_01_exponential_words_match_oracle():
    # every word ad^L a ad^R with 1 <= L+R <= 4, symbolic s, lambda^6
    _run("main-theorem", budget=120.0)


def test_criterion_02_number_operator_closed_form():
    # exp(lambda ad a) closed s-ordered form through lambda^8
    _run("cahill-glauber")


def test_criterion_03_stirling_powers():
    # (ad a)^n and (a ad)^n against Stirling numbers, n <= 10
    _run("katriel")


def test_criterion_04_laguerre_powers():
    # (ad a ad)^n closed forms in both orderings, n <= 8
    _run("laguerre")


def test_criterion_05_generalized_stirling_triple_agreement():
    # 50 random parameter sets: sum = recurrence = EGF, duality, PDE
    _run("hsu-shiue")


def test_criterion_06_two_point_endpoint_reduction():
    # 25 random parameter sets collapse to one-point arrays at s = -+1
    _run("two-point-reduction")


def test_criterion_07_excess_one_closed_forms():
    # radical gbar/fbar formulas vs reversion, symbolic s, order 10
    _run("e1-closed-forms")


def test_criterion_08_excess_two_quartic():
    # fbar solves the quartic for all four words; degenerates at s = -+1
    _run("e2-quartic")


def test_criterion_09_weyl_ordered_power_formula():
    # (ad a ad)^n Weyl formula vs oracle, and its ordinary Riordan triangle
    _run("weyl-power")


def test_criterion_10_ordering_conversion_calculus():
    # round trips, composition law, heat equation, shuffle cross-check
    _run("conversion")


def test_criterion_11_riordan_group_and_ladders():
    # group axioms at order 10; ladder actions on the catalog sequences
    _run("riordan-group")


def test_criterion_12_sheffer_exponential_identity():
    # exp(lambda X) normal form for the four catalog pairs at (6, 6)
    _run("blasiak")
