"""Generalized Stirling triangles: the three computation routes, the
parameter symmetries, and the characterizing PDE."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from bosonorder import hsu_shiue
from bosonorder.hsu_shiue import (HSParams, hs_coeff_sum, hs_egf, hs_pair,
                                  hs_pde_residual, hs_triangle_rec)
from bosonorder.riordan import BivariateEGF, Triangle, group_inverse
from bosonorder.scalars import SPoly, as_spoly, falling_row
from bosonorder.series import Series

param_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)
nonzero_st = param_st.filter(lambda q: q != 0)


def test_stirling_triangle_frozen():
    tri = hs_triangle_rec(HSParams(0, 1, 0), 5)
    assert tri.row_poly(4) == [0, 1, 7, 6, 1]
    assert tri.row_poly(5) == [0, 1, 15, 25, 10, 1]


def test_shifted_stirling_triangle():
    # HS(0, 1, 1)_{n,k} = S(n+1, k+1)
    big = hs_triangle_rec(HSParams(0, 1, 0), 7)
    tri = hs_triangle_rec(HSParams(0, 1, 1), 6)
    for n in range(7):
        for k in range(n + 1):
            assert tri.entry(n, k) == big.entry(n + 1, k + 1)


def test_signed_laguerre_triangle_frozen():
    # HS(-1, 1, 1)_{n,k} = C(n,k) n!/k!
    tri = hs_triangle_rec(HSParams(-1, 1, 1), 4)
    assert tri.row_poly(4) == [24, 96, 72, 16, 1]


def test_spot_row_with_all_parameters():
    tri = hs_triangle_rec(HSParams(1, 1, 2), 3)
    assert tri.row_poly(2) == [2, 4, 1]
    assert tri.row_poly(3) == [0, 6, 6, 1]


def _hs_rows_by_fractions(p, N):
    """The recurrence on Fractions, one cell at a time."""
    rows = [[Fraction(1)]]
    for n in range(N):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            val = Fraction(0)
            if k <= n:
                val += (p.r - p.A * n + p.B * k) * prev[k]
            if 1 <= k:
                val += prev[k - 1]
            row.append(val)
        rows.append(row)
    return rows


# zero, small and large denominators, each parameter drawn independently
wide_param_st = st.one_of(st.just(Fraction(0)), param_st,
                          st.fractions(min_value=-7, max_value=7,
                                       max_denominator=10 ** 6))


@given(wide_param_st, wide_param_st, wide_param_st, st.integers(0, 14))
@example(0, 0, 0, 10)
@example(0, Fraction(3, 2), Fraction(-5, 3), 14)
@example(2, 0, -1, 14)
@example(Fraction(1, 999983), Fraction(-7, 65536), Fraction(3, 1000003), 12)
@example(Fraction(-4, 3), Fraction(5, 2), 0, 0)
@settings(max_examples=40, deadline=None)
def test_integer_recurrence_matches_the_fraction_recurrence(a, b, r, N):
    p = HSParams(a, b, r)
    assert hs_triangle_rec(p, N) == Triangle(N, _hs_rows_by_fractions(p, N))


@given(st.one_of(st.just(Fraction(0)), param_st), param_st, param_st)
@example(Fraction(0), Fraction(1), Fraction(-5, 2))
@example(Fraction(-2, 3), Fraction(1, 3), Fraction(1))
@settings(max_examples=30, deadline=None)
def test_pair_is_exp_of_a_scaled_log(a, b, r):
    # d = (1 + A z)^(r/A) and h' = (1 + A z)^((B - A)/A), each of them
    # exp((c/A) log(1 + A z)), and e^(c z) at A = 0
    def power(c, order):
        z = Series.variable(order)
        return (c * z).exp() if a == 0 else ((1 + a * z).log() * (c / a)).exp()

    N = 8
    pair = hs_pair(HSParams(a, b, r), N)
    d, h = pair.first, pair.second
    assert d == power(r, N)
    assert h[0] == 0 and h.deriv() == power(b - a, N - 1)


def _binomial_by_steps(c, a, order: int) -> Series:
    """(1 + c z)^(a/c) by the product step t_n = t_(n-1) (a - (n-1) c)/n."""
    c, step = as_spoly(c), as_spoly(a)
    out = [SPoly.const(1)]
    for n in range(1, order + 1):
        out.append(out[-1] * step / n)
        step = step - c
    return Series(out, order)


@settings(deadline=None)
@given(wide_param_st, wide_param_st, wide_param_st, st.integers(0, 16))
@example(0, Fraction(5, 3), Fraction(-1, 2), 8)  # A = 0: exponentials
@example(Fraction(2, 7), 0, Fraction(3), 8)  # B = 0: a logarithm
@example(0, 0, 0, 3)
@example(Fraction(-3, 4), Fraction(-3, 4), Fraction(-5, 9), 16)  # h = z
@example(Fraction(1, 3), Fraction(2), 0, 8)  # r = 0: d = 1
@example(Fraction(1, 3), Fraction(-1, 2), Fraction(2), 8)  # r/A = 6
@example(Fraction(5, 6), Fraction(1, 4), Fraction(-1, 10), 0)
@example(Fraction(5, 6), Fraction(1, 4), Fraction(-1, 10), 1)
@example(Fraction(1, 999983), Fraction(-7, 1000003), Fraction(3, 999979), 12)
def test_pair_matches_the_product_steps(a, b, r, N):
    # the pair is read from integer generalized factorials: it multiplies
    # and divides no SPoly
    def refuse(name):
        def method(self, other):
            raise AssertionError(f"hs_pair called SPoly.{name}")
        return method

    p = HSParams(a, b, r)
    dh = _binomial_by_steps(p.A, p.B - p.A, N)
    want = (_binomial_by_steps(p.A, p.r, N),
            Series([0, *(c / n for n, c in enumerate(dh.coeffs, 1))], N))
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__mul__", "__rmul__", "__truediv__"):
            mp.setattr(SPoly, name, refuse(name))
        got = hs_pair(p, N)
    assert (got.first, got.second) == want


@given(nonzero_st, param_st)
@settings(max_examples=25)
def test_equal_parameters_collapse_to_binomials(b, r):
    # HS(B, B, r)_{n,k} = C(n,k) (r | B)_{n-k}
    tri = hs_triangle_rec(HSParams(b, b, r), 6)
    for n in range(7):
        for k in range(n + 1):
            want = comb(n, k) * falling_row(r, n - k, b)[n - k]
            assert tri.entry(n, k) == want


@given(param_st, nonzero_st, param_st)
@settings(max_examples=20)
def test_summation_matches_recurrence(a, b, r):
    p = HSParams(a, b, r)
    tri = hs_triangle_rec(p, 6)
    for n in range(7):
        for k in range(n + 1):
            assert tri.entry(n, k) == hs_coeff_sum(p, n, k)


@given(param_st, param_st, param_st)
@settings(max_examples=20)
def test_egf_matches_recurrence(a, b, r):
    # draws A = 0 and B = 0 too, where L_A and E_B reduce to z and x
    p = HSParams(a, b, r)
    tri = hs_triangle_rec(p, 6)
    egf_tri = hs_egf(p, 6).to_triangle()
    for n in range(7):
        for k in range(n + 1):
            assert tri.entry(n, k) == egf_tri.entry(n, k)


def test_summation_requires_nonzero_b():
    with pytest.raises(ValueError):
        hs_coeff_sum(HSParams(1, 0, 2), 3, 1)


@given(param_st, param_st, param_st)
@settings(max_examples=20)
def test_duality_is_group_inversion(a, b, r):
    p = HSParams(a, b, r)
    assert group_inverse(hs_pair(p, 7)) == hs_pair(p.dual(), 7)
    assert p.dual().dual() == p


@given(param_st, param_st, param_st)
@settings(max_examples=20)
def test_negation_symmetry(a, b, r):
    p = HSParams(a, b, r)
    tri = hs_triangle_rec(p, 6)
    neg = hs_triangle_rec(HSParams(-a, -b, -r), 6)
    for n in range(7):
        for k in range(n + 1):
            assert neg.entry(n, k) == (-1) ** (n - k) * tri.entry(n, k)


@given(param_st, param_st, param_st)
@settings(max_examples=15)
def test_pde_residual_vanishes(a, b, r):
    assert hs_pde_residual(HSParams(a, b, r), 7).is_zero()


@pytest.mark.parametrize("field, weight", [
    ("A", lambda n, k: n),
    ("B", lambda n, k: -k),
    ("r", lambda n, k: -1),
], ids=["A", "B", "r"])
def test_pde_residual_detects_a_wrong_egf(monkeypatch, field, weight):
    # Feeding in the EGF c of the parameters with one of A, B, r raised by 1
    # leaves exactly that term of the identity: the residual is
    # n c_{n,k}, -k c_{n,k} or -c_{n,k}.
    p = HSParams(Fraction(1, 2), 2, -1)
    wrong = dataclasses.replace(p, **{field: getattr(p, field) + 1})
    monkeypatch.setattr(hsu_shiue, "hs_egf", lambda _, N: hs_egf(wrong, N))
    res = hs_pde_residual(p, 6)
    assert not res.is_zero()
    c = hs_egf(wrong, 6)
    for n in range(6):
        for k in range(n + 2):
            assert res.coeff(n, k) == weight(n, k) * c.coeff(n, k)


@pytest.mark.parametrize("N, delta", [(1, -1), (6, 1), (6, -1)])
def test_pde_residual_reads_every_coefficient(monkeypatch, N, delta):
    # c_{n,k} enters equation (n - 1, k) with weight -n for n >= 1, and
    # c_{0,0} equation (0, 1) with weight 1, so a change of any one
    # coefficient through z^N shows.  At N = 1, lowering c_{1,1} = 1 to 0
    # trims row 1, and only equation (0, 1) sees it.
    p = HSParams(Fraction(1, 2), 2, -1)
    good = hs_egf(p, N)
    for n in range(N + 1):
        for k in range(n + 1):
            rows = [list(good.zcoeffs[m])
                    + [SPoly()] * (m + 1 - len(good.zcoeffs[m]))
                    for m in range(N + 1)]
            rows[n][k] += delta
            bad = BivariateEGF(rows, N)
            monkeypatch.setattr(hsu_shiue, "hs_egf", lambda _, order: bad)
            assert not hs_pde_residual(p, N).is_zero(), (n, k)


def test_params_coercion_and_duality_values():
    p = HSParams(Fraction(1, 2), 2, -1)
    assert p.dual() == HSParams(2, Fraction(1, 2), 1)


def test_params_read_rationals_and_refuse_floats():
    p = HSParams(SPoly.const(Fraction(1, 2)), 2, Fraction(-3))
    assert (p.A, p.B, p.r) == (Fraction(1, 2), 2, -3)
    assert all(type(x) is Fraction for x in (p.A, p.B, p.r))
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    for args in ((0.1, 1, 0), (0, 1.0, 0), (0, 1, -0.5)):
        with pytest.raises(TypeError):
            HSParams(*args)
