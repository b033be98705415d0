"""Exponential Riordan arrays, the group operations, and Sheffer ladders.

Catalog sequences are judged against their own classical recurrences
(Stirling, Hermite, Lah, Abel), recomputed here from scratch so the array
machinery never grades its own homework.  The ladder operators also run on
two-point pairs, whose rows come from group inversion.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from bosonorder import cli, riordan, scalars
from bosonorder.hsu_shiue import HSParams, hs_egf, hs_pair, hs_triangle_rec
from bosonorder.riordan import (CATALOG, BivariateEGF, RiordanPair, Triangle,
                                array_coeffs, catalog, group_inverse,
                                group_product, identity_pair,
                                ladder_apply, pair_to_egf, sheffer_row)
from bosonorder.scalars import SPoly
from bosonorder.series import Series
from bosonorder.two_point import TwoPointParams, two_point_egf, two_point_pair

N = 8

coeff_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
pair_st = st.tuples(st.lists(coeff_st, max_size=N - 1),
                    st.lists(coeff_st, max_size=N - 2)).map(
    lambda t: RiordanPair(Series([1] + t[0], N), Series([0, 1] + t[1], N)))


def test_pair_validation():
    z = Series.variable(4)
    with pytest.raises(ValueError):
        RiordanPair(2 + z, z)          # d(0) != 1
    with pytest.raises(ValueError):
        RiordanPair(1 + z, 1 + z)      # h(0) != 0
    with pytest.raises(ValueError):
        RiordanPair(1 + z, 2 * z)      # h'(0) != 1
    with pytest.raises(ValueError):
        RiordanPair(Series.one(3), Series.variable(4))  # mixed orders


def test_identity_pair():
    e = identity_pair(5)
    assert e.first == Series.one(5)
    assert e.second == Series.variable(5)


@given(pair_st, pair_st, pair_st)
@settings(max_examples=30)
def test_group_axioms(p1, p2, p3):
    e = identity_pair(N)
    assert group_product(group_product(p1, p2), p3) == \
        group_product(p1, group_product(p2, p3))
    assert group_product(p1, e) == p1
    assert group_product(e, p1) == p1
    q = group_inverse(p1)
    assert group_product(p1, q) == e
    assert group_product(q, p1) == e


@given(pair_st)
def test_group_inverse_is_involutive(p):
    assert group_inverse(group_inverse(p)) == p


def test_group_inverse_order_zero():
    p = RiordanPair(Series.one(0), Series.zero(0))
    assert group_inverse(p) == p


def test_array_entry_definition():
    # s_{n,k} = (n!/k!) [z^n] d h^k, spot-checked against direct expansion
    z = Series.variable(6)
    p = RiordanPair((1 + z).reciprocal(), z * (1 + z))
    tri = array_coeffs(p, 6)
    for n in range(7):
        for k in range(n + 1):
            direct = (p.first * p.second ** k)[n]
            assert tri.entry(n, k) == Fraction(factorial(n), factorial(k)) * \
                direct.as_rational()


def _stirling2_rows(nmax):
    rows = [[Fraction(1)]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] + (k * prev[k] if k < n else 0)
        rows.append(row)
    return rows


def test_touchard_is_stirling():
    pair = catalog("touchard", 8)
    z = Series.variable(8)
    inv = group_inverse(pair)
    assert inv.first == Series.one(8)
    assert inv.second == z.exp() - 1
    tri = array_coeffs(inv, 8)
    ref = _stirling2_rows(8)
    for n in range(9):
        for k in range(n + 1):
            assert tri.entry(n, k) == ref[n][k]


def test_hermite_rows_satisfy_recurrence():
    # He_{n+1}(t) = t He_n(t) - n He_{n-1}(t)
    tri = array_coeffs(group_inverse(catalog("hermite", 9)), 8)
    he = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(1, 8):
        nxt = [Fraction(0)] + he[n]
        for j, c in enumerate(he[n - 1]):
            nxt[j] -= n * c
        he.append(nxt)
    for n in range(9):
        for k in range(n + 1):
            assert tri.entry(n, k) == he[n][k]


def test_laguerre_rows_closed_form():
    # row n is n! L_n(-t): entries C(n,k) n!/k!
    tri = array_coeffs(group_inverse(catalog("laguerre", 9)), 8)
    for n in range(9):
        for k in range(n + 1):
            want = comb(n, k) * Fraction(factorial(n), factorial(k))
            assert tri.entry(n, k) == want


def test_abel_rows():
    # A_n(t) = t (t - n)^(n-1)
    tri = array_coeffs(group_inverse(catalog("abel", 9)), 8)
    assert tri.entry(0, 0) == 1
    for n in range(1, 9):
        want = [Fraction(0)] * (n + 1)
        for j in range(n):
            want[j + 1] = comb(n - 1, j) * Fraction((-n) ** (n - 1 - j))
        assert tri.row_poly(n) == want


LADDER_CASES = ["touchard", "hermite", "laguerre", "abel",
                (2, 1, -2, 1, SPoly.s()), (0, 1, -1, 2, Fraction(1, 3)),
                (1, 0, 2, -1, SPoly.s()), (0, 0, 1, 2, Fraction(-1, 2))]


def _ladder_case(case):
    """The Sheffer pair of a catalog name or of two-point parameters
    (A, B, r, r', s), and its triangle through row 6."""
    if isinstance(case, str):
        pair = catalog(case, 8)
        return pair, array_coeffs(group_inverse(pair), 6)
    p = TwoPointParams(*case)
    return two_point_pair(p, 7), two_point_egf(p, 6).to_triangle()


def _ladder_id(case):
    return case if isinstance(case, str) else \
        "two-point(" + ",".join(map(str, case)) + ")"


@pytest.mark.parametrize("case", LADDER_CASES, ids=_ladder_id)
def test_ladder_actions(case):
    pair, tri = _ladder_case(case)
    for n in range(6):
        sn, sn1 = tri.row_poly(n), tri.row_poly(n + 1)
        low = ladder_apply(pair, "lowering", sn1)
        want = [(n + 1) * c for c in sn]
        while want and want[-1].is_zero():
            want.pop()
        assert low == want
        up = ladder_apply(pair, "raising", sn)
        want = list(sn1)
        while want and want[-1].is_zero():
            want.pop()
        assert up == want


def test_ladder_guards():
    pair = catalog("touchard", 8)
    with pytest.raises(ValueError):
        ladder_apply(pair, "sideways", [SPoly.const(1)])
    with pytest.raises(ValueError):
        # polynomial too long for the carried truncation order
        ladder_apply(pair, "raising", [SPoly.const(1)] * 12)


@pytest.mark.parametrize("case", ["abel", (2, 1, -2, 1, SPoly.s())],
                         ids=_ladder_id)
def test_ladder_exact_truncation_orders(case):
    # a degree-d polynomial needs the pair at order d to lower and at
    # order d + 1 to raise; one order less is refused
    def pair(order):
        if isinstance(case, str):
            return catalog(case, order)
        return two_point_pair(TwoPointParams(*case), order)

    full = pair(9)
    for d in range(7):
        poly = [SPoly((k + 1, -k)) for k in range(d + 1)]
        for which, order in (("lowering", d), ("raising", d + 1)):
            want = ladder_apply(full, which, poly)
            assert ladder_apply(pair(order), which, poly) == want
            if order:
                with pytest.raises(ValueError):
                    ladder_apply(pair(order - 1), which, poly)


sheffer_case_st = st.one_of(
    st.sampled_from(sorted(CATALOG)),
    st.tuples(coeff_st, coeff_st, coeff_st, coeff_st,
              st.one_of(st.just(SPoly.s()), st.sampled_from([-1, 1]),
                        coeff_st)))


@given(sheffer_case_st, st.integers(0, 9))
@example("touchard", 0)
@example("hermite", 9)
@example("laguerre", 0)
@example("abel", 9)
@example((2, 1, -2, 1, SPoly.s()), 0)
@example((0, 0, 1, 2, SPoly.s()), 9)
@settings(max_examples=40, deadline=None)
def test_sheffer_row_matches_group_inversion(case, n):
    pair = (catalog(case, n + 1) if isinstance(case, str)
            else two_point_pair(TwoPointParams(*case), n + 1))
    want = pair_to_egf(group_inverse(pair), n).row_poly(n)
    assert sheffer_row(pair, n) == want


def _sheffer_row_by_powering(p: RiordanPair, n: int) -> list:
    """Row n by the Lagrange-Bürmann formula read literally: with
    phi = 1/(f/z), entry k is n!/k! [z^(n-k)] f' phi^(n+1) / g, by one
    reciprocal, binary powering and two products."""
    f = p.second
    phi = Series(f.coeffs[1:], n).reciprocal()
    q = f.deriv().truncate(n) * phi ** (n + 1) / p.first.truncate(n)
    row = [q.coeffs[n - k] * (factorial(n) // factorial(k))
           for k in range(n + 1)]
    while row and row[-1].is_zero():
        row.pop()
    return row


@given(sheffer_case_st, st.integers(0, 10))
@example("abel", 0)
@example("touchard", 1)
@example((2, 1, -2, 1, SPoly.s()), 0)
@example((2, 1, -2, 1, SPoly.s()), 1)
@example((2, 1, -2, 1, 1), 1)
@example((Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-1, 6),
          Fraction(2, 7)), 10)
@example((0, 0, 1, 2, -1), 10)
@settings(max_examples=60, deadline=None)
def test_sheffer_row_matches_powering(case, n):
    pair = (catalog(case, n + 1) if isinstance(case, str)
            else two_point_pair(TwoPointParams(*case), n + 1))
    assert sheffer_row(pair, n) == _sheffer_row_by_powering(pair, n)


def test_sheffer_row_takes_no_power(monkeypatch):
    cases = [catalog("laguerre", 9),
             two_point_pair(TwoPointParams(2, 1, -2, 1, SPoly.s()), 9)]
    want = [_sheffer_row_by_powering(pair, 8) for pair in cases]

    def no_pow(self, n):
        raise AssertionError("sheffer_row called Series.__pow__")

    monkeypatch.setattr(Series, "__pow__", no_pow)
    assert [sheffer_row(pair, 8) for pair in cases] == want


def test_sheffer_row_takes_its_power_from_the_miller_kernel(monkeypatch):
    # one call: (f/w)^(-n) through w^(n-1); c_n has weight 0
    cases = [catalog("laguerre", 9),
             two_point_pair(TwoPointParams(2, 1, -2, 1, SPoly.s()), 9),
             two_point_pair(TwoPointParams(2, 1, -2, 1, Fraction(1, 3)), 9)]
    want = [_sheffer_row_by_powering(pair, 8) for pair in cases]
    calls, kernel = [], scalars._miller_power

    def recording(A, alpha):
        calls.append((len(A), alpha))
        return kernel(A, alpha)

    monkeypatch.setattr(riordan, "_miller_power", recording)
    assert [sheffer_row(pair, 8) for pair in cases] == want
    assert calls == 3 * [(8, -8)]


def test_sheffer_row_divides_by_no_series(monkeypatch):
    # the division by g is a triangular solve on the coefficients
    cases = [catalog("laguerre", 9),
             two_point_pair(TwoPointParams(2, 1, -2, 1, SPoly.s()), 9),
             two_point_pair(TwoPointParams(2, 1, -2, 1, Fraction(1, 3)), 9)]
    want = [_sheffer_row_by_powering(pair, 8) for pair in cases]

    def refuse(*args):
        raise AssertionError("sheffer_row divided by a series")

    monkeypatch.setattr(Series, "reciprocal", refuse)
    monkeypatch.setattr(Series, "__truediv__", refuse)
    with pytest.raises(AssertionError):
        Series.one(2) / Series.one(2)  # the patch is live
    assert [sheffer_row(pair, 8) for pair in cases] == want


def test_sheffer_row_guards():
    pair = catalog("abel", 4)
    with pytest.raises(ValueError):
        sheffer_row(pair, 4)
    with pytest.raises(ValueError, match="row index must be >= 0"):
        sheffer_row(pair, -1)
    assert sheffer_row(pair, 3) == [0, 9, -6, 1]  # A_3 = t (t - 3)^2


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog("chebyshev", 6)


def _array_rows_full(d, h, N):
    """The column loop at full order: column k is d h^k through z^N, and
    entry (n, k) is read at z^n and weighted by 1/k!."""
    acc = d.truncate(N)
    h = h.truncate(N)
    cols = []
    for k in range(N + 1):
        cols.append([Fraction(1, factorial(k)) * c for c in acc.coeffs])
        if k < N:
            acc = acc * h
    return [[cols[k][n] for k in range(n + 1)] for n in range(N + 1)]


array_case_st = st.one_of(
    st.sampled_from(sorted(CATALOG)),
    st.tuples(coeff_st, coeff_st, coeff_st),
    st.tuples(coeff_st, coeff_st, coeff_st, coeff_st,
              st.one_of(st.just(SPoly.s()), coeff_st)))


@given(array_case_st, st.integers(0, 12))
@example("touchard", 0)
@example("abel", 1)
@example((Fraction(-4, 3), Fraction(5, 2), Fraction(7, 4)), 12)
@example((2, 1, -2, 1, SPoly.s()), 12)
@example((2, 1, -2, 1, Fraction(1, 3)), 12)
@example((0, 0, 1, 2, SPoly.s()), 1)
@settings(max_examples=40, deadline=None)
def test_pair_to_egf_matches_the_full_order_column_loop(case, n):
    pair = _case_pair(case, n)
    if not (isinstance(case, tuple) and len(case) == 3):
        pair = group_inverse(pair)  # the array of a Sheffer pair
    rows = _array_rows_full(pair.first, pair.second, n)
    assert pair_to_egf(pair, n) == BivariateEGF(rows, n)


def _pair_to_egf_by_spoly(p, N):
    """The column loop on SPolys: column k is d H^k, H = h/z, by Series
    products at falling order, scaled by 1/k! with one SPoly product per
    entry."""
    acc = p.first.truncate(N)
    H = Series(p.second.coeffs[1:N + 1], N - 1) if N else None
    cols = []
    for k in range(N + 1):
        w = SPoly.const(Fraction(1, factorial(k)))
        cols.append([w * c for c in acc.coeffs])
        if k < N:
            acc = Series(acc.coeffs, N - k - 1) * H
    return BivariateEGF([[cols[k][n - k] for k in range(n + 1)]
                         for n in range(N + 1)], N)


# rationals with zeros, both signs and unrelated denominators
q_coeff_st = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-20, max_value=20,
                                    max_denominator=30))


@st.composite
def q_array_case_st(draw, min_n=0):
    """(pair, n): an array [d, h] over Q at an order in min_n .. N, and a
    row count n in min_n .. order."""
    order = draw(st.integers(min_n, N))
    d = Series([1] + draw(st.lists(q_coeff_st, max_size=order)), order)
    h = Series([0, 1] + draw(st.lists(q_coeff_st, max_size=max(order - 1, 0))),
               order)
    return RiordanPair(d, h), draw(st.integers(min_n, order))


def _refuse(name):
    def method(self, *args):
        raise AssertionError(f"pair_to_egf called {name}")
    return method


def _check_pair_to_egf_runs_no_dot(pair, n):
    # the columns are integer numerators over Q, integer lists with s in them
    want = _pair_to_egf_by_spoly(pair, n)
    with pytest.MonkeyPatch.context() as mp:
        for cls in (SPoly, Series):
            for name in ("__mul__", "__rmul__"):
                mp.setattr(cls, name, _refuse(f"{cls.__name__}.{name}"))
        for module in (scalars, riordan):
            mp.setattr(module, "dot", _refuse("scalars.dot"))
        got = pair_to_egf(pair, n)
    assert got == want
    assert got == BivariateEGF(_array_rows_full(pair.first, pair.second, n), n)


@given(q_array_case_st())
@example((RiordanPair(Series([1, Fraction(-2, 3)], 1),
                      Series([0, 1], 1)), 0))  # N = 0: no H
@example((RiordanPair(Series([1, Fraction(5, 7), 2], 2),
                      Series([0, 1, Fraction(-1, 6)], 2)), 1))
# s = +1, where w- = 0: d = 1/(1 + 3z) on integers
@example((group_inverse(two_point_pair(TwoPointParams(3, 1, -3, 1, 1), N)), N))
# [1/(1 - z), z/(1 - z)]: every lcm is 1
@example((group_inverse(catalog("laguerre", N)), N))
@settings(max_examples=60, deadline=None)
def test_pair_to_egf_over_q_multiplies_no_spoly(case):
    _check_pair_to_egf_runs_no_dot(*case)


@given(q_array_case_st(min_n=2), st.tuples(q_coeff_st,
                                           q_coeff_st.filter(bool)))
@example((RiordanPair(Series([1, 0, 0], 2), Series([0, 1, 0], 2)), 2),
         (Fraction(0), Fraction(1)))
@example((group_inverse(two_point_pair(TwoPointParams(3, 1, -3, 1), N)), N),
         (Fraction(0), Fraction(1)))
@settings(max_examples=30, deadline=None)
def test_pair_to_egf_with_a_symbolic_entry_goes_through_dot(case, d1):
    # the array over Q[s] equals the one built with SPoly products and dot,
    # which pair_to_egf no longer calls itself
    pair, n = case
    d = list(pair.first.coeffs)
    d[1] = SPoly(d1)  # [z] d H^k = d_1 + k [z] H keeps s while k < n - 1
    _check_pair_to_egf_runs_no_dot(
        RiordanPair(Series(d, pair.order), pair.second), n)


def test_pair_to_egf_removes_the_column_content(monkeypatch):
    # column k of (2,1,-2,1) at s = 5/7 is A B^k over d_d d_H^k k!: without
    # its content removed, the numerators reach 1,445 bits at N = 20, while
    # no reduced entry needs more than 82
    pair = group_inverse(two_point_pair(
        TwoPointParams(2, 1, -2, 1, Fraction(5, 7)), 20))
    want = _pair_to_egf_by_spoly(pair, 20)
    ratio, seen = SPoly.ratio, []

    def record(n, d):
        seen.append(max(abs(n).bit_length(), d.bit_length()))
        return ratio(n, d)

    monkeypatch.setattr(SPoly, "ratio", staticmethod(record))
    assert pair_to_egf(pair, 20) == want
    assert len(seen) == 21 * 22 // 2
    assert max(seen) <= 128


def _case_pair(case, n):
    """The pair of an ``array_case_st`` case at order n, as it is built:
    catalog and two-point pairs are Sheffer pairs [g, f], Hsu-Shiue pairs
    (A, B, r) are arrays [d, h]."""
    if isinstance(case, str):
        return catalog(case, n)
    if len(case) == 3:
        return hs_pair(HSParams(*case), n)
    return two_point_pair(TwoPointParams(*case), n)


def _group_inverse_by_composition(p):
    """[1/(d o hbar), hbar] by reversion, composition and reciprocal."""
    if p.order == 0:
        return RiordanPair(Series.one(0), Series.zero(0))
    hbar = p.second.revert()
    return RiordanPair(p.first.compose(hbar).reciprocal(), hbar)


@given(array_case_st, st.integers(0, 12))
@example("laguerre", 0)
@example("abel", 12)
@example((Fraction(-4, 3), Fraction(5, 2), Fraction(7, 4)), 12)
@example((0, 0, 1), 12)
@example((2, 1, -2, 1, SPoly.s()), 12)
@example((2, 1, -2, 1, Fraction(1, 3)), 12)
@example((3, 1, -3, 1, -1), 1)
@settings(max_examples=40, deadline=None)
def test_group_inverse_matches_reversion_composition_reciprocal(case, n):
    pair = _case_pair(case, n)
    assert group_inverse(pair) == _group_inverse_by_composition(pair)


def test_group_inverse_is_one_lagrange_pass(monkeypatch):
    revert = Series.revert
    calls = []

    def counted(self, *args):
        calls.append(args)
        return revert(self, *args)

    def no_compose(self, inner):
        raise AssertionError("group_inverse called compose")

    for case in ("touchard", (2, 1, -2, 1, SPoly.s()), (1, -2, 3)):
        pair = _case_pair(case, 10)
        want = _group_inverse_by_composition(pair)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(Series, "revert", counted)
            mp.setattr(Series, "compose", no_compose)
            assert group_inverse(pair) == want
        assert calls == [(pair.first,)]


def test_ordinary_pascal():
    # the ordinary Pascal pair [1/(1-z), z/(1-z)] read as an exponential
    # array: C(n, k) times n!/k!
    z = Series.variable(8)
    d = (1 - z).reciprocal()
    tri = array_coeffs(RiordanPair(d, z * d), 8)
    for n in range(9):
        for k in range(n + 1):
            want = comb(n, k) * factorial(n) // factorial(k)
            assert tri.entry(n, k) == want


def test_triangle_serialization():
    tri = array_coeffs(identity_pair(3), 3)
    assert tri.entry(2, 2) == 1 and tri.entry(2, 0) == 0
    assert tri.entry(1, 3) == 0  # outside the triangle
    assert cli._triangle_csv(tri) == "1\n0,1\n0,0,1\n0,0,0,1\n"


def test_triangle_equality():
    tri = array_coeffs(identity_pair(3), 3)
    assert tri == Triangle(3, [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])
    assert tri != array_coeffs(identity_pair(3), 2)
    assert tri != Triangle(3, [[1], [0, 1], [0, 2, 1], [0, 0, 0, 1]])
    assert tri != pair_to_egf(identity_pair(3), 3)


def test_egf_triangle_needs_polynomial_rows():
    bad = BivariateEGF([(SPoly.const(1),),
                        (SPoly(), SPoly(), SPoly.const(1))], 1)
    with pytest.raises(ValueError):
        bad.to_triangle()


def test_negative_orders_are_refused():
    # Series's message; the CLI refuses --N -1 before any of these runs
    pair = identity_pair(3)
    for make in (lambda: pair_to_egf(pair, -1), lambda: array_coeffs(pair, -2),
                 lambda: hs_triangle_rec(HSParams(1, 1, 2), -1),
                 lambda: BivariateEGF([], -1), lambda: Triangle(-1, [])):
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            make()


def test_egf_coeff_is_zero_outside_the_row():
    egf = hs_egf(HSParams(1, 1, 1), 3)
    assert egf.coeff(2, -1) == 0
    assert egf.coeff(2, 3) == 0
    assert egf.coeff(2, 2) == Fraction(1, 2)


def test_eval_s_on_symbolic_pair():
    s = SPoly.s()
    p = RiordanPair(Series((1, s), 3), Series((0, 1, s * s), 3))
    q = p.eval_s(Fraction(1, 2))
    assert q.first[1] == Fraction(1, 2)
    assert q.second[2] == Fraction(1, 4)
