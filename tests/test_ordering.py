"""Ordered powers and exponentials: closed routes against the rewriting
oracle, plus the adjoint symmetry and the Sheffer exponential identity."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from bosonorder.ordering import (SingleAnnihilatorWord, SymbolSeries,
                                 blasiak_identity_check, exp_number_closed_form,
                                 laguerre_power, oracle_exponential,
                                 power_normal_form, power_symbol,
                                 s_ordered_symbol, weyl_power_aaa)
from bosonorder import riordan, scalars
from bosonorder.hsu_shiue import HSParams, hs_egf
from bosonorder.riordan import RiordanPair, catalog
from bosonorder.scalars import SPoly
from bosonorder.series import Series
from bosonorder.two_point import two_point_egf
from bosonorder.weyl import (ClassicalPoly, NormalForm, anti_normal_order,
                             normal_order, s_quantize)

S = SPoly.s()

ALL_SMALL_WORDS = [SingleAnnihilatorWord(L, t - L)
                   for t in range(1, 4) for L in range(t + 1)]


def test_word_validation_and_parameters():
    w = SingleAnnihilatorWord(2, 1)
    assert w.e == 2
    assert str(w.word()) == "a† a† a a†"
    p = w.two_point_params(S)
    assert (p.A, p.B, p.r, p.rp) == (2, 1, -2, 1)
    with pytest.raises(ValueError):
        SingleAnnihilatorWord(0, 0)
    with pytest.raises(ValueError):
        SingleAnnihilatorWord(-1, 2)


def test_oracle_frozen_square():
    # (ad a ad)^2 = ad^4 a^2 + 4 ad^3 a + 2 ad^2
    ser = oracle_exponential(SingleAnnihilatorWord(1, 1), 2)
    assert ser[2].scale(2) == NormalForm({(4, 2): 1, (3, 1): 4, (2, 0): 2})
    assert ser[0] == NormalForm.monomial(0, 0)


@pytest.mark.parametrize("w", ALL_SMALL_WORDS,
                         ids=[f"L{w.L}R{w.R}" for w in ALL_SMALL_WORDS])
def test_symbol_series_quantizes_to_oracle(w):
    got = s_ordered_symbol(w, S, 4).quantize()
    assert got == oracle_exponential(w, 4)


@pytest.mark.parametrize("w", ALL_SMALL_WORDS,
                         ids=[f"L{w.L}R{w.R}" for w in ALL_SMALL_WORDS])
def test_power_theorem_both_variants(w):
    for n in range(5):
        assert power_normal_form(w, n, "normal") == \
            normal_order(w.word().power(n))
        anti = power_normal_form(w, n, "antinormal")
        assert anti.to_normal() == normal_order(w.word().power(n))


@pytest.mark.parametrize("w", ALL_SMALL_WORDS,
                         ids=[f"L{w.L}R{w.R}" for w in ALL_SMALL_WORDS])
def test_adjoint_symmetry_of_power_tables(w):
    # anti-normal table of (L,R) at (k, en+k) carries (-1)^(n-k) times the
    # normal table of the reversed word (R,L) at (en+k, k)
    rev = SingleAnnihilatorWord(w.R, w.L)
    e = w.e
    for n in range(5):
        anti = power_normal_form(w, n, "antinormal")
        norm = power_normal_form(rev, n, "normal")
        for k in range(n + 1):
            assert anti.coeff(k, e * n + k) == \
                (-1) ** (n - k) * norm.coeff(e * n + k, k)


def test_laguerre_power_closed_form():
    w = SingleAnnihilatorWord(1, 1)
    for n in range(6):
        assert laguerre_power(n, "normal") == normal_order(w.word().power(n))
        assert laguerre_power(n, "antinormal") == \
            anti_normal_order(w.word().power(n))


def test_power_symbol_reduces_to_transform():
    w = SingleAnnihilatorWord(2, 0)
    assert power_symbol(w, 0, S) == ClassicalPoly({(0, 0): 1})
    for n in range(4):
        sym = power_symbol(w, n, S)
        assert s_quantize(sym, S) == normal_order(w.word().power(n))


WORDS = [SingleAnnihilatorWord(L, t - L)
         for t in range(1, 5) for L in range(t + 1)]


@pytest.mark.parametrize("s", [S, Fraction(1, 3)], ids=["symbolic", "1/3"])
@pytest.mark.parametrize("w", WORDS, ids=lambda w: f"L{w.L}R{w.R}")
def test_power_symbol_is_a_row_of_the_symbol_series(w, s):
    # the one Lagrange-Bürmann row against n! times the lambda^n term of
    # the whole group-inverted series
    ser = s_ordered_symbol(w, s, 10)
    for n in range(11):
        assert power_symbol(w, n, s) == ser[n].scale(factorial(n))


def test_power_symbol_inverts_nothing(monkeypatch):
    w = SingleAnnihilatorWord(2, 1)
    want = power_symbol(w, 7, S)

    def refuse(*args):
        raise AssertionError("power_symbol must not invert the pair")

    monkeypatch.setattr(Series, "revert", refuse)
    monkeypatch.setattr(Series, "compose", refuse)
    monkeypatch.setattr(riordan, "group_inverse", refuse)
    assert power_symbol(w, 7, S) == want
    with pytest.raises(AssertionError):
        s_ordered_symbol(w, S, 7)


def _closed_route(w, s):
    return (s_ordered_symbol(w, s, 8), two_point_egf(w.two_point_params(s), 8),
            power_symbol(w, 6, s))


def test_numeric_s_never_reaches_the_convolution(monkeypatch):
    # over Q every product is constant by constant: scalars.dot and
    # SPoly.__mul__ take their degree-0 lane and never call _mac
    w = SingleAnnihilatorWord(2, 1)
    hs = HSParams(Fraction(-4, 3), Fraction(5, 2), Fraction(7, 4))
    numeric = (Fraction(1, 3), -1, 1)
    want = [_closed_route(w, s) for s in numeric]
    want_hs = hs_egf(hs, 12)

    def refuse(*args):
        raise AssertionError("numeric s must not reach the convolution")

    monkeypatch.setattr(scalars, "_mac", refuse)
    assert [_closed_route(w, s) for s in numeric] == want
    assert hs_egf(hs, 12) == want_hs
    for call in (lambda: s_ordered_symbol(w, S, 8),
                 lambda: two_point_egf(w.two_point_params(S), 8),
                 lambda: power_symbol(w, 6, S)):
        with pytest.raises(AssertionError):
            call()


def test_endpoint_symbols_match_oracle():
    w = SingleAnnihilatorWord(2, 1)
    normal = s_ordered_symbol(w, "normal", 4)
    assert normal.s == -1
    assert normal.quantize() == oracle_exponential(w, 4)
    anti = s_ordered_symbol(w, "antinormal", 4)
    assert anti.s == 1
    assert anti.quantize() == oracle_exponential(w, 4)


def test_exp_number_closed_form_first_orders():
    ser = exp_number_closed_form(S, 4)
    assert ser[0] == ClassicalPoly({(0, 0): 1})
    # lambda coefficient: x* x - (1 + s)/2
    assert ser[1] == ClassicalPoly({(1, 1): 1,
                                    (0, 0): Fraction(-1, 2) * (1 + S)})
    assert ser.quantize() == oracle_exponential(SingleAnnihilatorWord(1, 0), 4)


def test_weyl_power_aaa_small():
    w = SingleAnnihilatorWord(1, 1)
    for n in range(5):
        assert s_quantize(weyl_power_aaa(n), 0) == \
            normal_order(w.word().power(n))
    # the printed formula is the s = 0 point of the s-ordered power
    for n in range(13):
        assert power_symbol(w, n, "weyl") == weyl_power_aaa(n)
    # parity structure: only k = n, n-2, ... appear
    sym = weyl_power_aaa(4)
    assert sym.coeff(7, 3).is_zero()
    assert sym.coeff(8, 4) == 1


def _random_sheffer_pair(rng, order):
    def coeff():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    g = Series([1] + [coeff() for _ in range(order)], order)
    f = Series([0, 1] + [coeff() for _ in range(order - 1)], order)
    return RiordanPair(g, f)


def _blasiak_mismatches(pair, nd: int, nl: int) -> list:
    """The (n, m) of the lambda^n a^m terms whose two sides differ."""
    return [(n, m) for n, m, got, want in blasiak_identity_check(pair, nd, nl)
            if got != want]


def test_blasiak_identity_small():
    terms = list(blasiak_identity_check(catalog("touchard", 9), 4, 4))
    # m outer, n inner, each side a series in ad through degree 4
    assert [(n, m) for n, m, _, _ in terms] == [
        (n, m) for m in range(5) for n in range(5)]
    assert all(got.order == want.order == 4 for _, _, got, want in terms)
    for name in ("touchard", "hermite"):
        assert _blasiak_mismatches(catalog(name, 9), 4, 4) == []
    rng = random.Random(4)
    for _ in range(3):
        assert _blasiak_mismatches(_random_sheffer_pair(rng, 9), 4, 4) == []


def test_blasiak_check_detects_a_wrong_reversion(monkeypatch):
    revert = Series.revert

    def wrong_revert(self):
        g = revert(self)
        return g + Series.variable(g.order) ** 3

    monkeypatch.setattr(Series, "revert", wrong_revert)
    bad = _blasiak_mismatches(catalog("touchard", 9), 4, 4)
    assert bad[:2] == [(0, 1), (1, 1)]


def test_blasiak_guards():
    pair = catalog("laguerre", 5)
    with pytest.raises(ValueError):
        next(blasiak_identity_check(pair, 4, 4))  # order too small


def test_series_container_guards():
    with pytest.raises(ValueError):
        SymbolSeries([ClassicalPoly()], 2, 0)
    ser = s_ordered_symbol(SingleAnnihilatorWord(1, 0), 0, 2)
    with pytest.raises(AttributeError):
        ser.order = 5


word4_st = st.integers(1, 4).flatmap(
    lambda total: st.integers(0, total).map(
        lambda L: SingleAnnihilatorWord(L, total - L)))
numeric_s_st = st.one_of(st.sampled_from([Fraction(-1), Fraction(0),
                                          Fraction(1)]),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=9))


@given(word4_st, st.integers(0, 10), numeric_s_st)
@example(SingleAnnihilatorWord(0, 4), 10, Fraction(-1))
@example(SingleAnnihilatorWord(4, 0), 10, Fraction(1))
@example(SingleAnnihilatorWord(2, 1), 10, Fraction(0))
@example(SingleAnnihilatorWord(1, 2), 9, Fraction(-5, 7))
@example(SingleAnnihilatorWord(1, 0), 0, Fraction(1, 3))
@settings(max_examples=40, deadline=None)
def test_numeric_s_is_the_symbolic_result_evaluated(w, N, s):
    # the closed route runs one loop in Z at numeric s and in Z[s] at
    # symbolic s; evaluating the symbolic result is an independent route
    assert power_symbol(w, N, s) == power_symbol(w, N, S).eval_s(s)
    numeric = s_ordered_symbol(w, s, N)
    symbolic = s_ordered_symbol(w, S, N)
    assert numeric.order == symbolic.order == N
    for n in range(N + 1):
        assert numeric[n] == symbolic[n].eval_s(s), n
