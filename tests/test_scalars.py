"""Scalar layer: rationals-with-an-s and the stride falling factorial."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bosonorder.scalars import (SPoly, as_s, as_spoly, binomial, falling,
                                format_rational, parse_rational)

S = SPoly.s()

fractions_st = st.fractions(min_value=-12, max_value=12, max_denominator=6)
spoly_st = st.lists(fractions_st, max_size=5).map(SPoly)


def test_parse_format_round_trip():
    for text in ("0", "7", "-3", "1/2", "-22/7"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 3 / 4 ") == Fraction(3, 4)
    with pytest.raises(ValueError):
        parse_rational("1.5x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_falling():
    # (7 | 2)_3 = 7 * 5 * 3
    assert falling(7, 3, 2) == 105
    assert falling(7, 0, 2) == 1
    # stride 0 degenerates to a plain power
    assert falling(3, 4, 0) == 81
    assert falling(Fraction(1, 2), 2, 1) == Fraction(1, 2) * Fraction(-1, 2)


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
    assert p.deriv() == 6 * S - 1
    assert SPoly.const(4).deriv().is_zero()


def test_exact_division():
    num = (1 - S) * (2 + 3 * S)
    assert num.exact_div(1 - S) == 2 + 3 * S
    with pytest.raises(ValueError):
        (1 + S).exact_div(S)  # remainder 1
    with pytest.raises(ZeroDivisionError):
        (1 + S).exact_div(SPoly())


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


def test_binomial_outside_range():
    assert binomial(4, 2) == 6
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


@given(spoly_st, spoly_st, spoly_st)
def test_spoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(spoly_st, spoly_st)
def test_exact_div_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


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
