"""Scalar layer: rationals-with-an-s and the stride falling factorial."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from bosonorder.scalars import (SPoly, as_s, as_spoly, dot, falling_row,
                                format_rational, parse_rational)

S = SPoly.s()

fractions_st = st.fractions(min_value=-12, max_value=12, max_denominator=6)
spoly_st = st.lists(fractions_st, max_size=5).map(SPoly)


def test_format_rational_refuses_floats():
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(5) == "5"
    with pytest.raises(TypeError):
        format_rational(0.1)


def test_parse_format_round_trip():
    for text in ("0", "7", "-3", "1/2", "-22/7"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 3 / 4 ") == Fraction(3, 4)
    with pytest.raises(ValueError):
        parse_rational("1.5x")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    assert parse_rational("-1.5") == Fraction(-3, 2)
    # Fraction would expand "1e10000000" into ten million digits first
    for text in ("1e3", "2E-1", "1.5e2", "1e10000000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    # Fraction reads digit separators from Python 3.11 on, not on 3.10
    for text in ("1_0", "-1_000/4", "1/2_0", "1_0.5"):
        with pytest.raises(ValueError, match="digit separator"):
            parse_rational(text)


def test_falling():
    # (7 | 2)_3 = 7 * 5 * 3
    assert falling_row(7, 3, 2) == [1, 7, 35, 105]
    assert falling_row(7, 0, 2) == [1]
    # stride 0 degenerates to a plain power
    assert falling_row(3, 4, 0)[4] == 81
    assert falling_row(Fraction(1, 2), 2, 1)[2] == Fraction(-1, 4)


ints_st = st.integers(-12, 12)


@given(st.one_of(st.tuples(ints_st, ints_st),
                 st.tuples(fractions_st, fractions_st),
                 st.tuples(spoly_st, spoly_st)),
       st.integers(0, 7))
@example((7, 0), 4)
@example((7, -2), 3)
@example((Fraction(1, 2), Fraction(-1, 3)), 0)
@example((S, Fraction(1, 2) - S), 3)
def test_falling_row_is_the_product_of_its_factors(xh, n):
    x, h = xh
    row = falling_row(x, n, h)
    assert len(row) == n + 1
    for m, got in enumerate(row):
        want = x ** 0
        for j in range(m):
            want = want * (x - j * h)
        assert got == want
        # the row stays in the ring of its arguments
        assert type(got) is type(x)


def test_spoly_basics():
    p = (1 + S) * (1 - S)
    assert p == SPoly((1, 0, -1))
    assert p.degree == 2
    assert p.coeff(2) == -1
    assert p.coeff(5) == 0
    assert str(p) == "1 - s^2"
    assert str(SPoly()) == "0"
    assert str(1 - S + Fraction(3, 2) * S**2) == "1 - s + 3/2*s^2"
    assert SPoly.const(Fraction(5, 3)).as_rational() == Fraction(5, 3)
    with pytest.raises(ValueError):
        (1 + S).as_rational()


def test_spoly_eval_deriv():
    p = 1 - S + 3 * S**2
    assert p.eval(2) == 11
    assert p.eval(Fraction(1, 2)) == Fraction(5, 4)
    assert p / SPoly.const(2) == p / 2 == p * Fraction(1, 2)
    assert p.deriv() == 6 * S - 1
    assert SPoly.const(4).deriv().is_zero()


def test_as_s_aliases():
    assert as_s("normal") == -1
    assert as_s("weyl") == 0
    assert as_s("antinormal") == 1
    assert as_s("symbolic") == S
    assert as_s("-1/2") == Fraction(-1, 2)
    assert as_s(Fraction(1, 3)) == Fraction(1, 3)
    assert as_s(0) == 0
    with pytest.raises(ValueError):
        as_s("sideways")


def test_spoly_coercion_and_invariants():
    class Half(Fraction):
        pass

    p = SPoly([True, 2, Fraction(1, 2), Half(3, 6)])
    assert p.coeffs == (1, 2, Fraction(1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert hash(SPoly.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert SPoly.const(3) == 3
    assert ((1 + S) - S).degree == 0
    assert (S - S).is_zero()


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", None])
@pytest.mark.parametrize("call", [
    SPoly.const,
    lambda x: SPoly((Fraction(1, 2), x)),
    lambda x: (1 + S) / x,
    lambda x: (1 + S).eval(x),
], ids=["const", "init", "truediv", "eval"])
def test_only_ints_and_fractions_become_coefficients(call, bad):
    # Fraction(0.1) is 3602879701896397/36028797018963968; as_spoly, as_s,
    # Series and the family parameters refuse a float the same way
    with pytest.raises(TypeError):
        call(bad)


@given(spoly_st, spoly_st, spoly_st)
def test_spoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(spoly_st, fractions_st)
def test_eval_is_a_homomorphism(p, x):
    q = p * p + 3 * p
    assert q.eval(x) == p.eval(x) ** 2 + 3 * p.eval(x)


@given(spoly_st)
def test_json_round_trip(p):
    assert SPoly.from_json(p.to_json()) == p


# -- the integer kernels against the coefficient-wise Fraction loops ---------

wide_fractions_st = st.fractions(min_value=-50, max_value=50,
                                 max_denominator=60)
coeff_lists_st = st.lists(wide_fractions_st, max_size=13)


@st.composite
def spoly_pairs(draw):
    """(p, q) of degree up to 12, where q's top k coefficients are +-p's, so
    that p + q or p - q cancels down to a lower degree (k = 0: unrelated)."""
    p = draw(coeff_lists_st)
    k = draw(st.integers(0, len(p)))
    if k:
        low = draw(st.lists(wide_fractions_st, min_size=len(p) - k,
                            max_size=len(p) - k))
        sign = draw(st.sampled_from((1, -1)))
        q = low + [sign * c for c in p[len(p) - k:]]
    else:
        q = draw(coeff_lists_st)
    return SPoly(p), SPoly(q)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def reference_mul(p, q):
    if not p.coeffs or not q.coeffs:
        return ()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return _trim(out)


def reference_add(p, q, sign=1):
    n = max(len(p.coeffs), len(q.coeffs))
    return _trim(p.coeff(k) + sign * q.coeff(k) for k in range(n))


@given(spoly_pairs())
def test_kernels_match_fraction_loops(pair):
    p, q = pair
    for got, want in ((p * q, reference_mul(p, q)),
                      (p + q, reference_add(p, q)),
                      (p - q, reference_add(p, q, -1))):
        assert got.coeffs == want
        assert not got.coeffs or got.coeffs[-1] != 0
        for c in got.coeffs:
            assert type(c) is Fraction
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@given(spoly_pairs(), wide_fractions_st)
@example((SPoly(), S), Fraction(0))
@example((S, S), Fraction(3, 4))
@example((1 + S / 6, S * S / 4 - 1), Fraction(-1, 3))
@example((S * S / 4 - 1, 1 + S / 6), Fraction(5))
def test_sub_equals_adding_the_negative(pair, q):
    # both tails (the left or the right operand longer), equal and unrelated
    # denominators, rational operands on either side
    p, r = pair
    for got, want in ((p - r, p + (-r)), (r - p, r + (-p)),
                      (p - q, p + (-q)), (q - p, -p + q),
                      (p - int(q), p + (-int(q))), (int(q) - p, -p + int(q))):
        assert_canonical(got)
        assert got == want


def test_sub_neither_negates_nor_adds(monkeypatch):
    cases = [(1 + S / 6, S * S / 4 - 1), (S * S / 4 - 1, 1 + S / 6),
             (S / 3, S / 3), (SPoly(), S), (_c(1, 2), 3), (3, _c(1, 2))]
    want = [SPoly._coerce(a) + (-SPoly._coerce(b)) for a, b in cases]

    def refuse(*args):
        raise AssertionError("SPoly subtraction negated or added")

    for name in ("__add__", "__radd__", "__neg__"):
        monkeypatch.setattr(SPoly, name, refuse)
    assert [a - b for a, b in cases] == want


# -- the integer storage: canonical form and the derived coefficients --------

def assert_canonical(p):
    """Trimmed numerators over a positive denominator with no common factor,
    and zero stored one way only."""
    num, den = p._num, p._den
    assert type(num) is list and type(den) is int and den > 0
    assert not num or num[-1] != 0
    g = den
    for n in num:
        g = gcd(g, n)
    assert g == 1
    assert num or den == 1


nonzero_fractions_st = wide_fractions_st.filter(bool)


@given(spoly_pairs(), nonzero_fractions_st, st.integers(0, 3))
def test_results_are_canonical(pair, q, pad):
    p, r = pair
    cs = p.coeffs
    padded = SPoly(list(cs) + [0] * pad)
    results = (
        (padded, cs),
        (SPoly(int(c) for c in cs), _trim(int(c) for c in cs)),
        (-p, tuple(-c for c in cs)),
        (p.deriv(), tuple(k * c for k, c in enumerate(cs) if k)),
        (p / q, tuple(c / q for c in cs)),
        (p * q, tuple(c * q for c in cs)),
        (p + q, reference_add(p, SPoly.const(q))),
        (p + r, reference_add(p, r)),
        (p - r, reference_add(p, r, -1)),
        (p * r, reference_mul(p, r)),
    )
    for got, want in results:
        assert_canonical(got)
        assert got.coeffs == want
        again = SPoly(got.coeffs)
        assert again == got and hash(again) == hash(got)
        if got.degree <= 0:
            assert hash(got) == hash(got.as_rational())


# -- the multiply-accumulate kernel against the reference products ----------

const_st = wide_fractions_st.map(SPoly.const)
const_pairs_st = st.lists(st.tuples(const_st, const_st), max_size=4)


@st.composite
def dot_terms(draw):
    """Paired SPolys of mixed degrees over unrelated denominators, with zero
    entries among them, in one of three modes: any factors; constants only;
    or constants before and after other factors, so that the running
    denominator changes after the s^0 total has been filled.  Half the time
    every term is followed by its negative, so that the whole sum cancels
    to zero."""
    entry = st.one_of(st.just(SPoly()), coeff_lists_st.map(SPoly))
    mode = draw(st.sampled_from(("any", "constants", "mixed")))
    if mode == "constants":
        pairs = draw(const_pairs_st)
    else:
        pairs = draw(st.lists(st.tuples(entry, entry), max_size=6))
    if mode == "mixed":
        pairs = draw(const_pairs_st) + pairs + draw(const_pairs_st)
    if draw(st.booleans()):
        pairs = [t for x, y in pairs for t in ((x, y), (y, -x))]
    return [x for x, _ in pairs], [y for _, y in pairs]


def _c(n, d=1):
    return SPoly.const(Fraction(n, d))


@given(dot_terms())
@example(([], []))
@example(([SPoly(), S], [S, SPoly()]))
@example(([1 + S, SPoly.const(Fraction(1, 2))],
          [SPoly.const(Fraction(-1, 3)), S * S / 5]))
@example(([S / 2, S / 3], [S, -S * Fraction(3, 2)]))
# constants only
@example(([_c(1, 2), _c(3), _c(-5, 7)], [_c(1, 3), _c(-1, 4), _c(2, 9)]))
# a constant, then a polynomial
@example(([_c(2, 3), 1 + S], [_c(1, 5), S / 7]))
# a polynomial, then a constant over a new denominator
@example(([1 + S / 4, _c(5, 9)], [1 - S, _c(1, 11)]))
# constants around a polynomial, each over a new denominator
@example(([_c(1, 3), S / 7, _c(1, 11)], [_c(1, 2), 1 + S, _c(2, 13)]))
# constants that cancel to zero
@example(([_c(1, 2), _c(1, 3)], [_c(2, 3), _c(-1)]))
def test_dot_is_the_canonical_sum_of_the_products(terms):
    xs, ys = terms
    want = ()
    for x, y in zip(xs, ys):
        want = reference_add(SPoly(want), SPoly(reference_mul(x, y)))
    got = dot(xs, ys)
    assert_canonical(got)
    assert got.coeffs == want
    if not want:
        assert (got._num, got._den) == ([], 1)


def test_zero_is_stored_one_way():
    for zero in (SPoly(), SPoly([0, 0]), S - S, 0 * S, (1 + S) * 0,
                 SPoly.const(5).deriv(), SPoly([Fraction(0, 3)]) / 7):
        assert_canonical(zero)
        assert zero._num == [] and zero._den == 1
        assert zero.coeffs == () and hash(zero) == hash(Fraction(0)) == 0


def test_formatting_over_an_uncancelled_denominator():
    # stored over 6, but every coefficient is reduced on its own for output
    p = SPoly([Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6)])
    assert (p._num, p._den) == ([3, 2, 0, -5], 6)
    assert str(p) == "1/2 + 1/3*s - 5/6*s^3"
    assert p.to_json() == ["1/2", "1/3", "0", "-5/6"]
    assert SPoly.from_json(p.to_json()) == p
    assert p.coeffs == (Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6))
    q = SPoly([Fraction(4, 6)])
    assert (str(q), q.to_json()) == ("2/3", ["2/3"])
    assert hash(q) == hash(Fraction(2, 3))
    r = SPoly([Fraction(1, -2)])
    assert (str(r), r.to_json()) == ("-1/2", ["-1/2"])
    assert SPoly.from_json(r.to_json()) == r == Fraction(-1, 2)
    gap = SPoly([Fraction(3, 4), 0, 0, Fraction(-1, 2), Fraction(2, 1)])
    assert str(gap) == "3/4 - 1/2*s^3 + 2*s^4"
    assert gap.to_json() == ["3/4", "0", "0", "-1/2", "2"]
    assert SPoly.from_json(gap.to_json()) == gap
    prod = SPoly([Fraction(1, 2), Fraction(1, 3)]) * SPoly([Fraction(1, 5), 1])
    assert str(prod) == "1/10 + 17/30*s + 1/3*s^2"
    assert prod.to_json() == ["1/10", "17/30", "1/3"]


json_coeffs_st = st.lists(st.one_of(st.just(Fraction(0)), wide_fractions_st,
                                    st.integers(-30, 30).map(Fraction)),
                          max_size=8)


@given(json_coeffs_st)
@example([])
@example([Fraction(0)])
@example([Fraction(3, 4), 0, 0, Fraction(-1, 2), 2])
@example([Fraction(-7), 0, Fraction(12)])
def test_to_json_formats_each_reduced_coefficient(cs):
    # one numerator over the stored denominator, reduced per entry, prints
    # as format_rational prints the lowest-terms coefficient
    p = SPoly(cs)
    assert p.to_json() == [format_rational(c) for c in p.coeffs]
    if p.is_zero():
        assert p.to_json() == []


def test_ratio_shares_no_storage_with_its_list():
    # a kernel reads a numerator list again after SPoly.ratio has read it
    num = [1, 0, 2, 0]
    p = SPoly.ratio(num, 3)
    assert num == [1, 0, 2, 0]  # not trimmed in place
    num[0] = 7
    num.append(5)
    assert_canonical(p)
    assert p == SPoly([Fraction(1, 3), 0, Fraction(2, 3)])


def _to_json_per_coefficient_gcd(p: SPoly) -> list:
    """The general form of ``to_json``: every numerator over the stored
    denominator, reduced by its own gcd, constants included."""
    return [format_rational(Fraction(n // g, p._den // g))
            for n in p._num for g in (gcd(n, p._den),)]


@given(st.one_of(wide_fractions_st.map(SPoly.const),
                 st.tuples(st.integers(-10**30, 10**30),
                           st.integers(1, 10**30)).map(
                     lambda nd: SPoly.ratio(*nd)),
                 json_coeffs_st.map(SPoly)))
@example(SPoly())
@example(SPoly.const(Fraction(-6, 4)))
@example(SPoly.ratio(0, 12))
@example(SPoly.ratio(-18, 12))
@example(SPoly([Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6)]))
def test_to_json_matches_the_per_coefficient_gcd_form(p):
    # constants skip the gcd; their one numerator is prime to the
    # denominator, so the text is the same as when each entry is reduced
    assert p.to_json() == _to_json_per_coefficient_gcd(p)
