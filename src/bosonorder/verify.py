"""Exact verification suites for every headline identity in the package.

A suite is a generator registered in :data:`SUITES` under its name.  It
takes a ``random.Random`` seeded for that suite alone and yields one
``(params, residuals)`` pair per case: ``params`` is a JSON-ready dict that
names the case, and ``residuals`` an iterable of strings, "0" for each check
that holds and otherwise a pointer at the discrepancy (key, got, expected).
:func:`run_suite` is the one place that seeds the RNG, takes each
case's first residual that is not "0" and builds the report

    {"suite": <name>, "cases": [{"params": {...},
                                 "status": "pass" | "fail",
                                 "residual": "0" | <where it broke>}, ...]}

ready for JSON dumping.  Residuals are iterated lazily, so nothing after a
case's first failure is computed.  A suite passes iff every case does.  All
checks are exact -- rational or polynomial-in-s arithmetic throughout -- so
"residual" is literally the string "0" on success.  Every suite draws from
its own ``random.Random(seed)``: the same seed reproduces the same report
byte for byte, whichever suites run before it.

>>> run_suite("katriel")["cases"][0]
{'params': {'word': 'ad a', 'n': 0}, 'status': 'pass', 'residual': '0'}
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import comb, factorial

from .scalars import S, format_rational
from .series import Series
from .weyl import (ClassicalPoly, NormalForm, Word, anti_normal_order,
                   convert_order, normal_order, s_quantize,
                   weyl_quantize_monomial)
from .riordan import (CATALOG, RiordanPair, _tp_trim, array_coeffs, catalog,
                      group_inverse, group_product, identity_pair,
                      ladder_apply)
from .hsu_shiue import (HSParams, hs_coeff_sum, hs_egf, hs_falling_table,
                        hs_pair, hs_pde_residual, hs_triangle_rec)
from .two_point import (TwoPointParams, closed_form_e1, quartic_leading_coeffs,
                        quartic_residual, two_point_pair)
from .ordering import (SingleAnnihilatorWord, blasiak_identity_check,
                       exp_number_closed_form, laguerre_power,
                       oracle_exponential, power_normal_form,
                       s_ordered_symbol, weyl_power_aaa)


# ---------------------------------------------------------------------------
# Residuals.
# ---------------------------------------------------------------------------

def _diff(where: str, got, want) -> str:
    """"0" when got == want, else a pointer "<where>: <got> != <want>"."""
    return "0" if got == want else f"{where}: {got} != {want}"


def _tables(got, want, label: str = ""):
    """Residuals of two coefficient tables, key by key in sorted order."""
    for n, m in sorted(set(got.table) | set(want.table)):
        yield _diff(f"{label}({n},{m})", got.coeff(n, m), want.coeff(n, m))


def _lambda_tables(got, want):
    """Residuals of two lambda-indexed lists of coefficient tables."""
    yield _diff("order", len(got) - 1, len(want) - 1)
    for n, (a, b) in enumerate(zip(got, want)):
        yield from _tables(a, b, label=f"lambda^{n} ")


def _series(got: Series, want: Series, label: str = "z"):
    """Residuals of two series through the lower truncation order."""
    for n in range(min(got.order, want.order) + 1):
        yield _diff(f"{label}^{n}", got[n], want[n])


def _pairs(got: RiordanPair, want: RiordanPair):
    """Residuals of two pairs, series by series."""
    yield from _series(got.first, want.first, label="first z")
    yield from _series(got.second, want.second, label="second z")


def _rand_frac(rng, lo: int = -6, hi: int = 6, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _rand_nonzero(rng, lo: int = -6, hi: int = 6) -> Fraction:
    while True:
        q = _rand_frac(rng, lo, hi)
        if q != 0:
            return q


# ---------------------------------------------------------------------------
# The suites, registered in report order.
# ---------------------------------------------------------------------------

#: Suite name -> generator of (params, residuals), in report order.
SUITES: dict = {}


def _suite(name: str):
    """Register the decorated generator in :data:`SUITES` as ``name``."""
    def register(fn):
        SUITES[name] = fn
        return fn
    return register


@_suite("main-theorem")
def suite_main_theorem(rng):
    """exp(lambda ad^L a ad^R) == :two-point EGF:_s for every word with
    1 <= L + R <= 4, at fully symbolic s: quantizing the s-ordered symbol
    series must reproduce the brute-force rewriting oracle exactly."""
    lam_order = 6
    for total in range(1, 5):
        for L in range(total + 1):
            w = SingleAnnihilatorWord(L, total - L)
            got = s_ordered_symbol(w, S, lam_order).quantize()
            want = oracle_exponential(w, lam_order)
            yield ({"L": w.L, "R": w.R, "s": "symbolic",
                    "lambda_order": lam_order}, _lambda_tables(got, want))


@_suite("cahill-glauber")
def suite_cahill_glauber(rng):
    """The closed s-ordered form of exp(lambda ad a), prefactor times
    Gaussian in x* x, against both the two-point route and the oracle."""
    lam_order = 8
    w = SingleAnnihilatorWord(1, 0)
    closed = exp_number_closed_form(S, lam_order)
    direct = s_ordered_symbol(w, S, lam_order)
    yield ({"check": "closed form vs two-point EGF", "s": "symbolic",
            "lambda_order": lam_order},
           _lambda_tables(closed.terms, direct.terms))
    got = closed.quantize()
    want = oracle_exponential(w, lam_order)
    yield ({"check": "quantized vs rewriting oracle", "s": "symbolic",
            "lambda_order": lam_order}, _lambda_tables(got, want))


def _stirling2(rows: int) -> list:
    """Stirling subset numbers by their own recurrence; the independent
    reference the katriel suite is judged against."""
    table = [[Fraction(1)]]
    for n in range(1, rows + 1):
        prev = table[-1]
        row = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] + (k * prev[k] if k < n else 0)
        table.append(row)
    return table


@_suite("katriel")
def suite_katriel(rng):
    """(ad a)^n = sum_k S(n,k) ad^k a^k and (a ad)^n = sum_k S(n+1,k+1)
    ad^k a^k, n <= 10, against brute-force rewriting and against Stirling
    numbers recomputed here from scratch."""
    nmax = 10
    stirling = _stirling2(nmax + 1)
    # (label, word, shift): the word's n-th power has S(n+shift, k+shift)
    words = (("ad a", SingleAnnihilatorWord(1, 0), 0),
             ("a ad", SingleAnnihilatorWord(0, 1), 1))
    for n in range(nmax + 1):
        for label, w, shift in words:
            got = power_normal_form(w, n)
            brute = normal_order(w.word().power(n))
            ref = NormalForm(((k, k), stirling[n + shift][k + shift])
                             for k in range(n + 1))
            yield ({"word": label, "n": n},
                   chain(_tables(got, brute), _tables(got, ref)))


@_suite("laguerre")
def suite_laguerre(rng):
    """(ad a ad)^n in both orderings, n <= 8: the closed Laguerre
    coefficients n!^2/(k!^2 (n-k)!) and the triangle route must both match
    the rewriting oracle, normal and anti-normal alike."""
    w = SingleAnnihilatorWord(1, 1)
    for n in range(9):
        brute_n = normal_order(w.word().power(n))
        brute_a = anti_normal_order(w.word().power(n))
        yield {"n": n}, chain(
            _tables(laguerre_power(n, "normal"), brute_n, "normal "),
            _tables(power_normal_form(w, n, "normal"), brute_n, "normal "),
            _tables(laguerre_power(n, "antinormal"), brute_a, "anti "),
            _tables(power_normal_form(w, n, "antinormal"), brute_a, "anti "))


@_suite("hsu-shiue")
def suite_hsu_shiue(rng):
    """Random (A, B, r), B != 0: the defining double sum, the triangle
    recurrence and the EGF expansion must agree entry by entry (n <= 10);
    the group inverse must realize the (B, A, -r) duality; and the EGF must
    annihilate the characterizing PDE through order 9."""
    nmax = 10
    for _ in range(50):
        p = HSParams(_rand_frac(rng), _rand_nonzero(rng), _rand_frac(rng))
        yield ({"A": format_rational(p.A), "B": format_rational(p.B),
                "r": format_rational(p.r)}, _hs_residuals(p, nmax))


def _hs_residuals(p: HSParams, nmax: int):
    """The hsu-shiue checks of one parameter triple, in report order; the
    EGF, the duality and the PDE are computed only if reached."""
    tri = hs_triangle_rec(p, nmax)
    table = hs_falling_table(p, nmax, nmax)
    cells = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    for n, k in cells:
        yield _diff(f"sum ({n},{k})", tri.entry(n, k),
                    hs_coeff_sum(p, n, k, table))
    egf_tri = hs_egf(p, nmax).to_triangle()
    for n, k in cells:
        yield _diff(f"egf ({n},{k})", egf_tri.entry(n, k), tri.entry(n, k))
    yield from _pairs(group_inverse(hs_pair(p, nmax)), hs_pair(p.dual(), nmax))
    yield "0" if hs_pde_residual(p, nmax).is_zero() else "pde residual != 0"


@_suite("two-point-reduction")
def suite_two_point_reduction(rng):
    """At the endpoints the two-point family collapses to one-point arrays:
    T(A,B,r,r'; -1) = HS(-A,B,r') and T(A,B,r,r'; +1) = HS(A,-B,r), checked
    as equality of the generating pairs, whose coefficients are generalized
    factorials on both sides.  The first draws take A = 0, B = 0 and both,
    where the factorials degenerate to powers (exponentials and logarithms);
    the rest are generic."""
    order = 8
    for i in range(25):
        A = Fraction(0) if i in (0, 2) else _rand_nonzero(rng)
        B = Fraction(0) if i in (1, 2) else _rand_nonzero(rng)
        r, rp = _rand_frac(rng), _rand_frac(rng)
        minus, plus = (group_inverse(two_point_pair(
            TwoPointParams(A, B, r, rp, s), order)) for s in (-1, 1))
        yield ({"A": format_rational(A), "B": format_rational(B),
                "r": format_rational(r), "r_prime": format_rational(rp)},
               chain(_pairs(minus, hs_pair(HSParams(-A, B, rp), order)),
                     _pairs(plus, hs_pair(HSParams(A, -B, r), order))))


@_suite("e1-closed-forms")
def suite_e1_closed_forms(rng):
    """Excess e = 1: the radical closed forms of [gbar, fbar] against the
    pair obtained by group inversion (reversion), symbolic s throughout."""
    order = 10
    for L, R in ((2, 0), (1, 1), (0, 2)):
        w = SingleAnnihilatorWord(L, R)
        closed = closed_form_e1(L, R, S, order)
        inverted = group_inverse(two_point_pair(w.two_point_params(S), order))
        yield ({"L": L, "R": R, "s": "symbolic", "order": order},
               _pairs(closed, inverted))


@_suite("e2-quartic")
def suite_e2_quartic(rng):
    """Excess e = 2: fbar is a root of the degree-4 polynomial constraint
    for all four words, symbolic s and both endpoints; at s = +-1 the two
    leading coefficients vanish so the constraint degenerates to the
    quadratic that the endpoint root still satisfies."""
    order = 8
    svals = (("symbolic", S), ("-1", Fraction(-1)), ("1", Fraction(1)))
    for L in range(4):
        R = 3 - L
        for label, s in svals:
            res = quartic_residual(L, R, s, order)
            yield ({"L": L, "R": R, "s": label, "order": order},
                   _series(res, Series.zero(res.order)))
    for label, s in svals[1:]:
        c4, c3 = quartic_leading_coeffs(s)
        ok = c4.is_zero() and c3.is_zero()
        yield ({"check": "degenerate leading coefficients", "s": label},
               ("0" if ok else f"({c4}, {c3}) != (0, 0)",))


@_suite("weyl-power")
def suite_weyl_power(rng):
    """The Weyl-ordered (ad a ad)^n formula: quantizing the symbol at s = 0
    must reproduce the rewriting oracle (n <= 6), and the interior
    triangle must be the ordinary Riordan array
    [1/sqrt(1+4z^2), 2z/(1+sqrt(1+4z^2))] of signed central binomials,
    checked on the exponential array, whose entries carry an extra n!/k!."""
    nmax, triangle_N = 6, 12
    word = Word("cac")
    syms = [weyl_power_aaa(n) for n in range(nmax + 1)]
    for n, sym in enumerate(syms):
        yield ({"n": n, "s": "0"},
               _tables(s_quantize(sym, 0), normal_order(word.power(n))))

    z = Series.variable(triangle_N)
    root = (1 + 4 * z * z).pow_rational(Fraction(1, 2))
    tri = array_coeffs(RiordanPair(root.reciprocal(), (2 * z) / (1 + root)),
                       triangle_N)
    yield ({"check": "interior triangle is ordinary Riordan", "N": triangle_N},
           (_diff(f"({n},{k})", tri.entry(n, k),
                  Fraction((-1) ** ((n - k) // 2) * comb(n, (n - k) // 2)
                           * factorial(n), factorial(k))
                  if (n - k) % 2 == 0 else Fraction(0))
            for n in range(triangle_N + 1) for k in range(n + 1)))

    yield ({"check": "symbol coefficients vs triangle", "nmax": nmax},
           (_diff(f"n={n} k={k}", sym.coeff(n + k, k),
                  tri.entry(n, k) * Fraction(1, 2 ** (n - k)))
            for n, sym in enumerate(syms) for k in range(n + 1)))


def _random_symbol(rng, max_exp: int = 4, terms: int = 5) -> ClassicalPoly:
    tab: dict = {}
    for _ in range(terms):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        tab[key] = tab.get(key, 0) + _rand_nonzero(rng, -4, 4)
    return ClassicalPoly(tab)


@_suite("conversion")
def suite_conversion(rng):
    """The conversion kernel between orderings: round trips are exact,
    conversion laws compose, the symbolic-target family solves the heat
    equation dF/ds = -(1/2) d^2 F/(dx dx*), and at s = 0 the heat
    propagator agrees with brute-force symmetrization (n + m <= 10)."""
    for i in range(10):
        F = _random_symbol(rng)
        s1, s2, s3 = (_rand_frac(rng, -4, 4) for _ in range(3))
        G = convert_order(F, s1, s2)
        H = convert_order(F, s1, S)
        yield ({"draw": i, "degree": F.total_degree(),
                "s": [format_rational(s1), format_rational(s2),
                      format_rational(s3)]}, chain(
            _tables(convert_order(G, s2, s1), F, "round trip "),
            _tables(convert_order(G, s2, s3), convert_order(F, s1, s3),
                    "composition "),
            _tables(H.deriv_s(), H.mixed_second().scale(Fraction(-1, 2)),
                    "heat ")))

    monomials = [(n, t - n) for t in range(11) for n in range(t + 1)]
    yield ({"check": "shuffle average vs heat propagator", "max_degree": 10},
           (r for n, m in monomials
            for r in _tables(weyl_quantize_monomial(n, m),
                             s_quantize(ClassicalPoly.monomial(n, m), 0),
                             label=f"x*^{n} x^{m}: ")))


def _random_pair(rng, order: int) -> RiordanPair:
    d = Series([1] + [_rand_frac(rng, -3, 3) for _ in range(order)], order)
    h = Series([0, 1] + [_rand_frac(rng, -3, 3) for _ in range(order - 1)],
               order)
    return RiordanPair(d, h)


@_suite("riordan-group")
def suite_riordan_group(rng):
    """Group axioms on random proper pairs at truncation order 10, then the
    ladder actions P s_n = n s_(n-1), M s_n = s_(n+1) on the four catalog
    Sheffer sequences for n <= 8."""
    order, ladder_nmax = 10, 8
    ident = identity_pair(order)
    for i in range(5):
        p1, p2, p3 = (_random_pair(rng, order) for _ in range(3))
        inv = group_inverse(p1)
        yield {"draw": i, "order": order}, chain(
            _pairs(group_product(group_product(p1, p2), p3),
                   group_product(p1, group_product(p2, p3))),
            _pairs(group_product(p1, ident), p1),
            _pairs(group_product(ident, p1), p1),
            _pairs(group_product(p1, inv), ident),
            _pairs(group_product(inv, p1), ident))

    for name in CATALOG:
        yield ({"sequence": name, "nmax": ladder_nmax},
               _ladder_residuals(catalog(name, order), ladder_nmax))


def _ladder_residuals(pair: RiordanPair, nmax: int):
    """P s_n = n s_(n-1) and M s_n = s_(n+1) for the Sheffer sequence of
    pair, n <= nmax."""
    tri = array_coeffs(group_inverse(pair), nmax + 1)
    for n in range(nmax + 1):
        sn, sn1 = tri.row_poly(n), tri.row_poly(n + 1)
        low = ladder_apply(pair, "lowering", sn1)
        yield ("0" if tuple(low) == _tp_trim((n + 1) * c for c in sn)
               else f"lowering at n={n + 1}")
        up = ladder_apply(pair, "raising", sn)
        yield "0" if tuple(up) == _tp_trim(sn1) else f"raising at n={n}"


@_suite("blasiak")
def suite_blasiak(rng):
    """The normally ordered exponential of the Sheffer raising element,
    exp(lambda X) = :g(ad)/g(bbar) exp[(bbar - ad) a]:, coefficient by
    coefficient through ad-degree 6 and lambda-order 6 for each catalog
    pair."""
    nd = nl = 6
    for name in CATALOG:
        terms = blasiak_identity_check(catalog(name, nd + nl + 1), nd, nl)
        yield ({"pair": name, "ad_order": nd, "lambda_order": nl},
               (r for n, m, got, want in terms
                for r in _series(got, want, f"lambda^{n} a^{m} ad")))


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

def run_suite(name: str, seed: int = 0) -> dict:
    """The report of suite ``name``, its inputs drawn from a fresh
    ``random.Random(seed)``."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose one of "
                         f"{', '.join(SUITES)}") from None
    cases = []
    for params, residuals in suite(random.Random(seed)):
        residual = next((r for r in residuals if r != "0"), "0")
        cases.append({"params": params,
                      "status": "pass" if residual == "0" else "fail",
                      "residual": residual})
    return {"suite": name, "cases": cases}


def suite_passed(report: dict) -> bool:
    return all(case["status"] == "pass" for case in report["cases"])


def run_all(seed: int = 0) -> list:
    return [run_suite(name, seed) for name in SUITES]
