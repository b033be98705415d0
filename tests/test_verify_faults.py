"""Failure reports: each suite must name the first residual that breaks.

The golden file holds passing reports only, where every residual is "0".
Here one name that ``bosonorder.verify`` imports is replaced by a wrapper
that injects a single known fault, and the suite's report must point at it
with exactly the recorded text: which key broke, what was got and what was
expected.
"""

import pytest

from bosonorder import verify
from bosonorder.ordering import SymbolSeries
from bosonorder.riordan import BivariateEGF, RiordanPair, Triangle, catalog
from bosonorder.series import Series
from bosonorder.weyl import ClassicalPoly, NormalForm


def _failures(suite: str, limit: int = 2) -> list:
    """(case index, residual) of the first failing cases at seed 0."""
    report = verify.run_suite(suite, seed=0)
    return [(i, c["residual"]) for i, c in enumerate(report["cases"])
            if c["status"] == "fail"][:limit]


def _hs_coeff_sum(orig):
    def fault(p, n, k, table):
        return orig(p, n, k, table) + (1 if (n, k) == (3, 1) else 0)
    return fault


def _hs_egf(orig):
    def fault(p, N):
        egf = orig(p, N)
        rows = [list(row) for row in egf.zcoeffs]
        rows[4] += [0] * (3 - len(rows[4]))
        rows[4][2] = rows[4][2] + 1
        return BivariateEGF(rows, egf.order)
    return fault


def _hs_pde_residual(orig):
    def fault(p, N):
        return BivariateEGF([[1]], N)
    return fault


def _group_inverse(orig):
    def fault(p):
        q = orig(p)
        z = Series.variable(q.order)
        return RiordanPair(q.first + z * z * z, q.second)
    return fault


def _weyl_quantize_monomial(orig):
    def fault(n, m):
        out = orig(n, m)
        return out + NormalForm.monomial(0, 0) if (n, m) == (3, 4) else out
    return fault


def _exp_number_closed_form(orig):
    def fault(s, N):
        ser = orig(s, N)
        terms = list(ser.terms)
        terms[5] = terms[5] + ClassicalPoly.monomial(1, 1)
        return SymbolSeries(terms, ser.order, ser.s)
    return fault


def _oracle_exponential(orig):
    def fault(w, N):
        return orig(w, N - 1)
    return fault


def _array_coeffs(orig):
    def fault(p, N):
        tri = orig(p, N)
        rows = [list(row) for row in tri.rows]
        rows[4][2] = rows[4][2] + 1
        return Triangle(tri.N, rows)
    return fault


def _closed_form_e1(orig):
    def fault(L, R, s, N):
        q = orig(L, R, s, N)
        z = Series.variable(q.order)
        return RiordanPair(q.first + z * z * z, q.second)
    return fault


def _quartic_residual(orig):
    def fault(L, R, s, N):
        res = orig(L, R, s, N)
        z = Series.variable(res.order)
        return res + z * z * z
    return fault


def _power_normal_form(orig):
    def fault(w, n, variant="normal"):
        out = orig(w, n, variant)
        if (w.L, w.R, n, variant) == (1, 0, 2, "normal"):
            out = out + NormalForm.monomial(0, 0)
        return out
    return fault


def _ladder_raising(orig):
    def fault(pair, which, poly):
        out = orig(pair, which, poly)
        if which == "raising" and len(poly) == 4:
            out = [out[0] + 1] + out[1:]
        return out
    return fault


def _ladder_lowering(orig):
    def fault(pair, which, poly):
        out = orig(pair, which, poly)
        if which == "lowering" and len(poly) == 6:
            out = out + [1]
        return out
    return fault


def _group_inverse_second(orig):
    def fault(p):
        q = orig(p)
        z = Series.variable(q.order)
        return RiordanPair(q.first, q.second + z ** 4)
    return fault


def _laguerre_power(orig):
    def fault(n, variant="normal"):
        out = orig(n, variant)
        if (n, variant) == (3, "antinormal"):
            out = out.scale(2)
        return out
    return fault


def _blasiak_identity_check(orig):
    def fault(p, nd, nl):
        hermite = p == catalog("hermite", p.first.order)
        for n, m, got, want in orig(p, nd, nl):
            if hermite and (n, m) in ((2, 1), (3, 0)):
                got = got + Series.variable(got.order) ** 2
            yield n, m, got, want
    return fault


def _quartic_leading_coeffs(orig):
    def fault(s):
        c4, c3 = orig(s)
        return c4 + 1, c3
    return fault


#: (name patched in verify, fault maker, suite, the first failing cases as
#: (case index, residual) at seed 0).
FAULTS = [
    ("hs_coeff_sum", _hs_coeff_sum, "hsu-shiue",
     [(0, "sum (3,1): 13/3 != 16/3"), (1, "sum (3,1): 127/4 != 131/4")]),
    ("hs_egf", _hs_egf, "hsu-shiue",
     [(0, "egf (4,2): 197/3 != 125/3"), (1, "egf (4,2): 391/4 != 295/4")]),
    ("hs_pde_residual", _hs_pde_residual, "hsu-shiue",
     [(0, "pde residual != 0"), (1, "pde residual != 0")]),
    ("group_inverse", _group_inverse, "hsu-shiue",
     [(0, "first z^3: -31/81 != -112/81"), (1, "first z^3: -6 != -7")]),
    ("weyl_quantize_monomial", _weyl_quantize_monomial, "conversion",
     [(10, "x*^3 x^4: (0,0): 1 != 0")]),
    ("exp_number_closed_form", _exp_number_closed_form, "cahill-glauber",
     [(0, "lambda^5 (1,1): 121/120 - 1/8*s - 3/16*s^2 + 1/4*s^3 + 5/16*s^4"
          " != 1/120 - 1/8*s - 3/16*s^2 + 1/4*s^3 + 5/16*s^4"),
      (1, "lambda^5 (0,0): 1/2 + 1/2*s != 0")]),
    ("oracle_exponential", _oracle_exponential, "cahill-glauber",
     [(1, "order: 8 != 7")]),
    ("oracle_exponential", _oracle_exponential, "main-theorem",
     [(0, "order: 6 != 5"), (1, "order: 6 != 5")]),
    ("array_coeffs", _array_coeffs, "weyl-power",
     [(7, "(4,2): -47 != -48"), (8, "n=4 k=2: -12 != -47/4")]),
    ("quartic_residual", _quartic_residual, "e2-quartic",
     [(0, "z^3: 1 != 0"), (1, "z^3: 1 != 0")]),
    ("power_normal_form", _power_normal_form, "katriel",
     [(4, "(0,0): 1 != 0")]),
    ("ladder_apply", _ladder_raising, "riordan-group",
     [(5, "raising at n=3"), (6, "raising at n=3")]),
    ("ladder_apply", _ladder_lowering, "riordan-group",
     [(5, "lowering at n=5"), (6, "lowering at n=5")]),
    ("group_inverse", _group_inverse, "riordan-group",
     [(0, "first z^3: 1 != 0"), (1, "first z^3: 1 != 0")]),
    ("group_inverse", _group_inverse_second, "two-point-reduction",
     [(0, "second z^4: -1/8 != -9/8"), (1, "second z^4: 33/32 != 1/32")]),
    ("group_inverse", _group_inverse_second, "e1-closed-forms",
     [(0, "second z^4: 3/4*s - 7/4*s^3 != 1 + 3/4*s - 7/4*s^3"),
      (1, "second z^4: 3/4*s - 7/4*s^3 != 1 + 3/4*s - 7/4*s^3")]),
    ("closed_form_e1", _closed_form_e1, "e1-closed-forms",
     [(0, "first z^3: 3/2 + 1/2*s - 5/2*s^2 - 5/2*s^3"
          " != 1/2 + 1/2*s - 5/2*s^2 - 5/2*s^3"),
      (1, "first z^3: 1 + 3/2*s - 5/2*s^3 != 3/2*s - 5/2*s^3")]),
    ("laguerre_power", _laguerre_power, "laguerre",
     [(3, "anti (0,3): -12 != -6")]),
    ("blasiak_identity_check", _blasiak_identity_check, "blasiak",
     [(1, "lambda^3 a^0 ad^2: 1 != 0")]),
    ("quartic_leading_coeffs", _quartic_leading_coeffs, "e2-quartic",
     [(12, "(1, 0) != (0, 0)"), (13, "(1, 0) != (0, 0)")]),
]


@pytest.mark.parametrize("name, make, suite, expected", FAULTS,
                         ids=[f"{f[0]}-{f[2]}" for f in FAULTS])
def test_injected_fault_is_reported(monkeypatch, name, make, suite, expected):
    monkeypatch.setattr(verify, name, make(getattr(verify, name)))
    assert _failures(suite) == expected


def test_nothing_after_the_first_failure_is_computed(monkeypatch):
    """A case stops at its first failing residual: with the sum faulted at
    (3,1), the EGF that the case would check next is never built."""
    def unreachable(p, N):
        raise AssertionError("hs_egf ran after the first failure")
    monkeypatch.setattr(verify, "hs_coeff_sum",
                        _hs_coeff_sum(verify.hs_coeff_sum))
    monkeypatch.setattr(verify, "hs_egf", unreachable)
    cases = verify.run_suite("hsu-shiue", 0)["cases"]
    assert len(cases) == 50
    assert all(c["status"] == "fail" for c in cases)
    assert cases[0]["residual"] == "sum (3,1): 13/3 != 16/3"
