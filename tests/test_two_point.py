"""The two-point generalized Stirling family and its radical closed forms."""

from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from bosonorder import scalars, two_point
from bosonorder.hsu_shiue import HSParams, hs_pair
from bosonorder.ordering import SingleAnnihilatorWord
from bosonorder.riordan import (BivariateEGF, RiordanPair, _apply_dseries,
                                group_inverse, pair_to_egf, raising_series)
from bosonorder.scalars import SPoly
from bosonorder.series import Series
from bosonorder.two_point import (TwoPointParams, closed_form_e1,
                                  quartic_leading_coeffs, quartic_residual,
                                  two_point_egf, two_point_pair)

S = SPoly.s()

param_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_st = param_st.filter(lambda q: q != 0)


def _log1p_over(c, N: int) -> Series:
    """L_c = log(1 + c z)/c = sum_{n>=1} (-c)^(n-1) z^n/n for c in Q[s]; it
    is z at c = 0, and nothing is divided by c."""
    step = -c
    out = [0]
    power = SPoly.const(1)
    for n in range(1, N + 1):
        out.append(power / n)
        power = power * step
    return Series(out, N)


def _expm1_over(x: Series, a) -> Series:
    """E_a(x) = (e^(a x) - 1)/a for rational a; x itself at a = 0."""
    return x if a == 0 else ((a * x).exp() - 1) / a


def _hs_pair_exp_log(p: HSParams, N: int) -> RiordanPair:
    """The Hsu-Shiue pair as exponentials and logarithms: d = exp(r L_A),
    h = E_B(L_A)."""
    la = _log1p_over(p.A, N)
    return RiordanPair((p.r * la).exp(), _expm1_over(la, p.B))


def _two_point_pair_exp_log(p: TwoPointParams, N: int) -> RiordanPair:
    """The two-point pair as exponentials and logarithms: with
    w+- = (1+-s)/2, X = w+ L_(-w+ B), Y = -w- L_(w- B) and Lambda = X - Y,
    g = w+ e^(-r Lambda) + w- e^(-r' Lambda) and f = E_A(X) - E_A(Y)."""
    wp = (1 + p.s) / 2
    wm = (1 - p.s) / 2
    x = wp * _log1p_over(-wp * p.B, N)
    y = -wm * _log1p_over(wm * p.B, N)
    lam = x - y
    g = wp * (-p.r * lam).exp() + wm * (-p.rp * lam).exp()
    return RiordanPair(g, _expm1_over(x, p.A) - _expm1_over(y, p.A))


def test_params_coercion():
    p = TwoPointParams(1, 2, -1, 3, "weyl")
    assert p.s == 0
    assert TwoPointParams(0, 1, 0, 1).s == S  # symbolic by default


def test_params_read_rationals_and_refuse_floats():
    p = TwoPointParams(SPoly.const(Fraction(3, 2)), 1, Fraction(-1, 4), 2)
    assert (p.A, p.B, p.r, p.rp) == (Fraction(3, 2), 1, Fraction(-1, 4), 2)
    assert all(type(x) is Fraction for x in (p.A, p.B, p.r, p.rp))
    for args in ((0.5, 1, 0, 0), (0, 1, 0, 2.0)):
        with pytest.raises(TypeError):
            TwoPointParams(*args)


def test_pair_shape_all_branches():
    for A, B in ((2, 1), (0, 1), (2, 0), (0, 0)):
        p = TwoPointParams(A, B, -1, 2, S)
        pair = two_point_pair(p, 6)
        assert pair.first[0] == 1
        assert pair.second[0] == 0 and pair.second[1] == 1


def test_weyl_point_f_frozen():
    # at s = 0, e = 1 the lowering series is 4D/(4 - D^2) = sum D^(2k+1)/4^k
    pair = two_point_pair(TwoPointParams(1, 1, -1, 1, 0), 7)
    assert pair.second == Series(
        (0, 1, 0, Fraction(1, 4), 0, Fraction(1, 16), 0, Fraction(1, 64)), 7)


def test_endpoint_reduction_fixed_example():
    # s = -1 collapses to HS(-A, B, r'); s = +1 to HS(A, -B, r)
    A, B, r, rp = Fraction(2), Fraction(1), Fraction(-1), Fraction(3)
    minus = group_inverse(two_point_pair(TwoPointParams(A, B, r, rp, -1), 7))
    assert minus == hs_pair(HSParams(-A, B, rp), 7)
    plus = group_inverse(two_point_pair(TwoPointParams(A, B, r, rp, 1), 7))
    assert plus == hs_pair(HSParams(A, -B, r), 7)


@given(param_st, param_st, param_st, param_st)
@settings(max_examples=15, deadline=None)
def test_endpoint_reduction_random(a, b, r, rp):
    minus = group_inverse(two_point_pair(TwoPointParams(a, b, r, rp, -1), 5))
    assert minus == hs_pair(HSParams(-a, b, rp), 5)
    plus = group_inverse(two_point_pair(TwoPointParams(a, b, r, rp, 1), 5))
    assert plus == hs_pair(HSParams(a, -b, r), 5)


def _raising_egf(p: TwoPointParams, N: int) -> BivariateEGF:
    """The two-point EGF row by row from the Sheffer raising operator: with
    u = 1/f' and w = u g'/g, e_(n+1) = (t u(D) e_n - w(D) e_n)/(n+1), where
    e_n is the z^n coefficient.  No reversion and no group inverse.  Row N
    applies D-series only to rows of degree <= N - 1, so they are needed at
    order N - 1, and the pair at order N, the order ``two_point_egf`` gets,
    is enough; N = 0 needs no pair at all."""
    rows = [[SPoly.const(1)]]
    if N:
        u, w = raising_series(two_point_pair(p, N), N - 1)
    for n in range(N):
        up = [SPoly()] + _apply_dseries(u, rows[-1])
        down = _apply_dseries(w, rows[-1]) + [SPoly()]
        rows.append([(a - b) / (n + 1) for a, b in zip(up, down)])
    return BivariateEGF(rows, N)


s_point_st = st.one_of(st.just(S), st.sampled_from([-1, 0, 1]),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=7))


@given(param_st, param_st, param_st, param_st, s_point_st, st.integers(0, 8))
@example(0, 1, -2, 1, S, 8)
@example(2, 0, 1, -3, Fraction(1, 3), 8)
@example(0, 0, 1, 2, 0, 6)
@settings(max_examples=40, deadline=None)
def test_raising_operator_rows_match_group_inversion(a, b, r, rp, s, N):
    p = TwoPointParams(a, b, r, rp, s)
    assert _raising_egf(p, N) == two_point_egf(p, N)


zero_or_param_st = st.one_of(st.just(Fraction(0)), param_st)


@given(zero_or_param_st, zero_or_param_st, param_st, st.integers(0, 8))
@example(0, 0, 2, 6)
@example(0, Fraction(3, 2), -1, 6)
@example(Fraction(-1, 2), 0, 1, 6)
@settings(max_examples=40, deadline=None)
def test_hs_pair_matches_exp_log_oracle(a, b, r, N):
    p = HSParams(a, b, r)
    assert hs_pair(p, N) == _hs_pair_exp_log(p, N)


@given(zero_or_param_st, zero_or_param_st, param_st, param_st, s_point_st,
       st.integers(0, 8))
@example(0, 0, 1, 2, S, 6)
@example(0, 1, -2, 1, S, 8)
@example(2, 0, 1, -3, Fraction(1, 3), 8)
@example(2, 0, 1, -3, S, 8)  # B = 0: each half of g is an exponential
@example(2, 1, -2, 1, 1, 6)  # s = +1: the second half has weight 0
@example(2, 1, -2, 1, -1, 6)  # s = -1: the first half has weight 0
@example(2, 1, 0, 0, S, 8)  # r = r' = 0: g = 1
@example(Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(-5, 2),
         S, 8)  # r/B and r'/B not integers: no factor terminates
@example(Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(-5, 2),
         1, 10)
@settings(max_examples=40, deadline=None)
def test_two_point_pair_matches_exp_log_oracle(a, b, r, rp, s, N):
    p = TwoPointParams(a, b, r, rp, s)
    assert two_point_pair(p, N) == _two_point_pair_exp_log(p, N)


@given(zero_or_param_st, zero_or_param_st, param_st, param_st,
       st.fractions(min_value=-3, max_value=3, max_denominator=7),
       st.integers(0, 10))
@example(0, 1, -2, 1, Fraction(1, 3), 8)
@example(2, 0, 1, -3, Fraction(1, 3), 8)
@example(0, 0, 1, 2, Fraction(-2, 5), 6)
@example(Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-1, 6),
         Fraction(2, 7), 10)
@example(2, 1, -2, 1, Fraction(1, 3), 0)
@example(2, 1, -2, 1, -1, 8)
@example(2, 1, -2, 1, 0, 8)
@example(2, 1, -2, 1, 1, 8)
@settings(max_examples=40, deadline=None)
def test_numeric_pair_is_the_symbolic_pair_evaluated(a, b, r, rp, s, N):
    # the loop on integers at a constant s against the same loop over
    # Z[s], evaluated
    numeric = two_point_pair(TwoPointParams(a, b, r, rp, s), N)
    symbolic = two_point_pair(TwoPointParams(a, b, r, rp, S), N)
    assert numeric == symbolic.eval_s(s)


def test_numeric_pair_multiplies_no_spoly(monkeypatch):
    calls = []
    mul = SPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(SPoly, "__mul__", counting_mul)
    p = TwoPointParams(Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4),
                       Fraction(-1, 6), Fraction(2, 7))
    two_point_pair(p, 12)
    assert not calls
    S * S  # the patch is live
    assert calls


def _two_point_pair_by_spoly(p: TwoPointParams, N: int) -> RiordanPair:
    """The same three-term recurrence with every numerator an SPoly in Z[s]
    and every step an SPoly operator: the oracle of the integer-list lane.
    s = u/q with q the lcm of the denominators of s."""
    q = lcm(*(c.denominator for c in p.s.coeffs))
    u = p.s * q
    up, down = q + u, q - u
    (a, b, rho, rhop), L = scalars._rationals_over_lcm(p.A, p.B, p.r, p.rp)
    slope, curve = 2 * u * b, (q * q - u * u) * b * b
    alpha, alphap = -2 * q * rho, -2 * q * rhop
    e, e_prev, ep, ep_prev = SPoly.const(1), SPoly(), SPoly.const(1), SPoly()
    fall = [0, *scalars.falling_row(a + b, N - 1, -b)]
    g, f = [], []
    den = 1
    pos, neg = SPoly.const(1), SPoly.const(1)
    for n in range(N + 1):
        g.append((up * e + down * ep) / (2 * q * den))
        f.append((pos - neg) * (L * fall[n]) / den)
        tail = curve * (n * (n - 1))
        e, e_prev = alpha * e + tail * e_prev, e
        ep, ep_prev = alphap * ep + tail * ep_prev, ep
        alpha, alphap = alpha + slope, alphap + slope
        pos, neg = pos * up, -neg * down
        den *= 2 * q * L * (n + 1)
    return RiordanPair(Series(g, N), Series(f, N))


@given(zero_or_param_st, zero_or_param_st, zero_or_param_st,
       zero_or_param_st, s_point_st, st.integers(0, 12))
@example(0, Fraction(3, 2), -1, 2, S, 12)  # A = 0
@example(Fraction(-1, 2), 0, 1, -3, S, 12)  # B = 0
@example(0, 0, 1, 2, S, 10)  # A = B = 0
@example(2, 1, 0, 0, S, 10)  # r = r' = 0
@example(2, 1, -2, 1, -1, 10)
@example(2, 1, -2, 1, 0, 10)
@example(2, 1, -2, 1, 1, 10)
@example(Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-1, 6),
         Fraction(2, 7), 12)
@example(2, 1, -2, 1, 1 - 2 * S, 10)  # s a polynomial other than s
@example(Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(-5, 2),
         (1 + S * S) / 3, 8)
@settings(max_examples=60, deadline=None)
def test_pair_matches_the_spoly_recurrence(a, b, r, rp, s, N):
    p = TwoPointParams(a, b, r, rp, s)
    assert two_point_pair(p, N) == _two_point_pair_by_spoly(p, N)


def test_symbolic_pair_calls_no_spoly_operator(monkeypatch):
    p = TwoPointParams(Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4),
                       Fraction(-1, 6), S)
    want = _two_point_pair_by_spoly(p, 12)

    def refuse(self, other):
        raise AssertionError("two_point_pair called an SPoly operator")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(SPoly, name, refuse)
    with pytest.raises(AssertionError):
        S * S  # the patch is live
    assert two_point_pair(p, 12) == want


word_st = st.integers(1, 5).flatmap(
    lambda total: st.integers(0, total).map(
        lambda L: SingleAnnihilatorWord(L, total - L)))


def _integral(c: SPoly) -> bool:
    return all(x.denominator == 1 for x in c.coeffs)


@given(word_st, st.integers(0, 16),
       st.fractions(min_value=-4, max_value=4, max_denominator=9))
@example(SingleAnnihilatorWord(0, 5), 16, Fraction(1, 3))
@example(SingleAnnihilatorWord(5, 0), 16, Fraction(-7, 9))
@example(SingleAnnihilatorWord(2, 1), 0, Fraction(0))
@settings(max_examples=30, deadline=None)
def test_inverted_pair_is_integral_in_w_minus(w, N, wm):
    # with the symbol standing for w- = (1 - s)/2, array entry (n, k) is in
    # Z[w-] of degree <= n - k, and so is every n! [z^n] of [gbar, fbar]
    v = SPoly.s()
    q = group_inverse(two_point_pair(w.two_point_params(1 - 2 * v), N))
    egf = pair_to_egf(q, N)
    for n in range(N + 1):
        for k, c in enumerate(egf.row_poly(n)):
            assert _integral(c) and c.degree <= n - k, (n, k, c)
        for ser in (q.first, q.second):
            assert _integral(factorial(n) * ser[n]), (n, ser[n])
    # at w- = a/b in lowest terms, b^(n-k) times entry (n, k) is an integer
    egf = two_point_egf(w.two_point_params(1 - 2 * wm), N)
    for n in range(N + 1):
        for k, c in enumerate(egf.row_poly(n)):
            scaled = wm.denominator ** (n - k) * c.as_rational()
            assert scaled.denominator == 1, (n, k, c)


def test_interpolation_in_s_row_one():
    # the row-1 constant interpolates between the two one-point anchors:
    # r' of HS(-A, B, r') at s = -1 and r of HS(A, -B, r) at s = +1
    egf = two_point_egf(TwoPointParams(1, 1, -2, 3, S), 3)
    const = egf.coeff(1, 0)
    assert const.eval(-1) == 3
    assert const.eval(1) == -2
    assert egf.coeff(1, 1) == 1


@pytest.mark.parametrize("L,R", [(2, 0), (1, 1), (0, 2)])
def test_e1_closed_forms_match_inversion(L, R):
    closed = closed_form_e1(L, R, S, 8)
    inverted = group_inverse(two_point_pair(TwoPointParams(1, 1, -L, R, S), 8))
    assert closed.first == inverted.first
    assert closed.second == inverted.second


def test_e1_closed_form_degenerate_points():
    # the printed (2,0) and (0,2) forms are 0/0 at s = +1 and s = -1, but
    # P and M have constant term 1 there, so every word is computed directly
    for s in (1, -1):
        for L, R in ((2, 0), (1, 1), (0, 2)):
            assert closed_form_e1(L, R, s, 7) == group_inverse(
                two_point_pair(TwoPointParams(1, 1, -L, R, s), 7))
    one_plus_z = Series((1, 1), 7)
    assert closed_form_e1(2, 0, 1, 7).first == (one_plus_z ** 2).reciprocal()


def test_symbolic_closed_form_evaluates_to_the_limit():
    # the symbolic (2,0) form is finite at s = 1 even though the printed
    # formula is 0/0 there; it must still agree with the inverted pair
    lim = closed_form_e1(2, 0, S, 7).eval_s(1)
    direct = group_inverse(two_point_pair(TwoPointParams(1, 1, -2, 0, 1), 7))
    assert lim == direct
    # and with the numeric form, for every word at both endpoints
    for s in (1, -1):
        for L, R in ((2, 0), (1, 1), (0, 2)):
            assert (closed_form_e1(L, R, S, 7).eval_s(s)
                    == closed_form_e1(L, R, s, 7))


def test_e1_closed_form_requires_excess_one():
    with pytest.raises(ValueError):
        closed_form_e1(3, 0, S, 6)
    with pytest.raises(ValueError):
        closed_form_e1(3, -1, S, 6)


@given(param_st.filter(lambda q: abs(q) != 1))
@example(Fraction(1, 3))
@settings(max_examples=20, deadline=None)
def test_e1_gbar_matches_the_printed_radical_forms(s):
    # away from s = +-1, 1 -+ s is a nonzero rational, so the printed
    # rationalized forms need only a scalar division
    N = 7
    q = Series((1, 2 * s, 1), N)
    zsq = Series((s, 1), N) * q.pow_rational(Fraction(1, 2))  # (z+s) sqrt(Q)
    assert closed_form_e1(2, 0, s, N).first == (q - zsq) / q * (1 / (1 - s))
    assert closed_form_e1(1, 1, s, N).first == q.pow_rational(Fraction(-1, 2))
    assert closed_form_e1(0, 2, s, N).first == (q + zsq) / q * (1 / (1 + s))


@pytest.mark.parametrize("L,R", [(3, 0), (2, 1), (1, 2), (0, 3)])
def test_quartic_residual_vanishes(L, R):
    assert quartic_residual(L, R, S, 7).is_zero()
    assert quartic_residual(L, R, Fraction(1, 3), 7).is_zero()


def test_quartic_degenerates_at_endpoints():
    for s in (-1, 1):
        c4, c3 = quartic_leading_coeffs(s)
        assert c4.is_zero() and c3.is_zero()
        assert quartic_residual(2, 1, s, 7).is_zero()
    c4, c3 = quartic_leading_coeffs(S)
    assert not c4.is_zero() and not c3.is_zero()


def test_quartic_requires_excess_two():
    with pytest.raises(ValueError):
        quartic_residual(1, 1, S, 6)


def _quartic_by_coefficients(w: Series, s) -> Series:
    """The printed quartic in w, expanded term by term."""
    N = w.order
    z = Series.variable(N)
    c4, c3 = quartic_leading_coeffs(s)
    w2 = w * w
    lin2 = Series((-s, 1 - 3 * s * s), N)  # (1-3s^2) z - s
    lin1 = Series((1, 2 * s), N)           # 1 + 2 s z
    return (c4 * (z * w2 * w2) + c3 * (z * w2 * w) - 8 * (lin2 * w2)
            - 16 * (lin1 * w) + 16 * z)


@given(st.lists(param_st, min_size=5, max_size=5))
@example([0, 0, 0, 0, 0])
@settings(max_examples=15, deadline=None)
def test_quartic_residual_is_the_printed_quartic_off_the_root(tail):
    # with group inversion replaced by an arbitrary w (w_0 = 0, w_1 = 1),
    # neither side vanishes, and 8 (2 z (M P)^2 - (P^2 - M^2)) must still
    # be the printed quartic, coefficient by coefficient
    N = 6
    w = Series([0, 1] + tail, N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(two_point, "group_inverse",
                   lambda pair: RiordanPair(pair.first, w))
        for s in (S, -1, 1, Fraction(1, 3)):
            assert (quartic_residual(2, 1, s, N)
                    == _quartic_by_coefficients(w, s))
