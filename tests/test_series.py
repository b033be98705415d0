"""Truncated power series: ring structure, composition, reversion, exp/log."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bosonorder import scalars, series
from bosonorder.scalars import SPoly, dot
from bosonorder.series import Series

N = 8

coeff_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)
series_st = st.lists(coeff_st, max_size=N + 1).map(lambda cs: Series(cs, N))
# composable: zero constant term
inner_st = st.lists(coeff_st, max_size=N).map(lambda cs: Series([0] + cs, N))
# revertible over Q[s]: f = c z + sum_k p_k(s) z^k with a rational unit c,
# often c = 1, and deg p_k <= 2
linear_st = st.one_of(st.just(Fraction(1)), coeff_st.filter(lambda c: c != 0))
spoly2_st = st.lists(coeff_st, max_size=3).map(SPoly)
revertible_st = st.builds(lambda c, ps: Series([0, c] + ps, N), linear_st,
                          st.lists(spoly2_st, max_size=N - 1))


def test_constructors_and_indexing():
    z = Series.variable(4)
    assert z[1] == 1 and z[0] == 0 and z[4] == 0
    with pytest.raises(IndexError):
        z[5]
    assert Series.zero(3).is_zero()
    with pytest.raises(ValueError):
        Series((), -1)


def test_exp_log_frozen_coefficients():
    z = Series.variable(6)
    e = z.exp()
    assert [e[n] for n in range(5)] == [1, 1, Fraction(1, 2), Fraction(1, 6),
                                        Fraction(1, 24)]
    lg = (1 + z).log()
    assert [lg[n] for n in range(5)] == [0, 1, Fraction(-1, 2),
                                        Fraction(1, 3), Fraction(-1, 4)]


def test_sqrt_frozen_coefficients():
    z = Series.variable(4)
    r = (1 + z).pow_rational(Fraction(1, 2))
    assert [r[n] for n in range(5)] == [1, Fraction(1, 2), Fraction(-1, 8),
                                        Fraction(1, 16), Fraction(-5, 128)]
    assert (r * r - (1 + z)).is_zero()


def test_geometric_reciprocal():
    z = Series.variable(6)
    g = (1 - z).reciprocal()
    assert all(g[n] == 1 for n in range(7))
    with pytest.raises(ValueError):
        z.reciprocal()


def test_reversion_of_exp_minus_one():
    z = Series.variable(6)
    f = z.exp() - 1
    assert f.revert() == (1 + z).log()


def test_reversion_guards():
    z = Series.variable(4)
    with pytest.raises(ValueError):
        (1 + z).revert()  # nonzero constant
    with pytest.raises(ValueError):
        (z * z).revert()  # zero linear coefficient
    with pytest.raises(ValueError):
        Series.zero(0).revert()


def test_compose_requires_zero_constant():
    z = Series.variable(4)
    with pytest.raises(ValueError):
        z.compose(1 + z)


def test_truncate():
    z = Series.variable(5)
    t = (1 + z).truncate(2)
    assert t.order == 2


@given(series_st, series_st, series_st)
def test_series_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@given(series_st, st.integers(0, 9))
@example(Series([0, 1], N), 3)
def test_integer_power_is_the_product_chain(f, n):
    want = Series.one(N)
    for _ in range(n):
        want = want * f
    assert f ** n == want


def test_integer_power_multiplies_no_one(monkeypatch):
    calls = []
    mul = Series.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counted)
    z = Series.variable(N)
    # binary powering from the lowest set bit: x ** 2 is one product
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (6, 3),
                        (8, 3), (9, 4)):
        calls.clear()
        assert z ** n == Series([0] * n + [1], N)
        assert len(calls) == products


@given(series_st)
def test_reciprocal_inverts(f):
    if f[0].is_zero() or not f[0].is_rational():
        return
    assert f * f.reciprocal() == Series.one(N)


@settings(max_examples=30)
@given(series_st, inner_st, inner_st)
def test_composition_is_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(deadline=None)
@given(revertible_st)
def test_reversion_round_trip(f):
    fbar = f.revert()
    z = Series.variable(N)
    assert f.compose(fbar) == z
    assert fbar.compose(f) == z


def _revert_by_solve(f: Series) -> Series:
    """The order-by-order reversion: with g known through z^(n-1) and
    g_n = 0, [z^n] f(g) is off by exactly c g_n, so g_1 = 1/c and
    g_n = -[z^n] f(g)/c, where only the order-n truncations reach z^n."""
    c = f[1].as_rational()
    g = [SPoly(), SPoly.const(1 / c)]
    for n in range(2, f.order + 1):
        err = f.truncate(n).compose(Series(g, n))[n]
        g.append(-err / c)
    return Series(g, f.order)


@settings(deadline=None)
@given(revertible_st)
@example(Series([0, Fraction(-3, 2), SPoly.s(), 0, 1 - SPoly.s()], N))
def test_lagrange_reversion_matches_the_order_by_order_solve(f):
    assert f.revert() == _revert_by_solve(f)
    assert f.truncate(1).revert() == _revert_by_solve(f.truncate(1))


def test_reversion_makes_no_composition(monkeypatch):
    def no_compose(self, inner):
        raise AssertionError("revert called compose")

    s = SPoly.s()
    f = Series([0, Fraction(-3, 2)] + [s + k for k in range(2, N + 1)], N)
    expected = _revert_by_solve(f)
    monkeypatch.setattr(Series, "compose", no_compose)
    assert f.revert() == expected


outer_st = st.integers(0, N).flatmap(
    lambda order: st.lists(spoly2_st, max_size=order + 1).map(
        lambda cs: Series(cs, order)))


@settings(deadline=None)
@given(revertible_st, outer_st)
@example(Series([0, Fraction(-3, 2), SPoly.s(), 0, 1 - SPoly.s()], N),
         Series([1, 2, SPoly.s(), 0, Fraction(-1, 5)], N))
@example(Series([0, Fraction(1, 3), 1], N), Series([5], 0))
@example(Series([0, 2, Fraction(1, 2)], N), Series([0, 0, 0, SPoly.s()], 3))
def test_revert_outer_is_the_composition_with_the_inverse(f, u):
    # linear coefficients other than 1 are drawn and in the examples
    g, ug = f.revert(u)
    assert g == f.revert()
    assert ug.order == min(f.order, u.order)
    assert ug == u.compose(g)


def _compose_full_order(f: Series, inner: Series) -> Series:
    """Horner's rule with every step at the full order."""
    n = min(f.order, inner.order)
    out = Series.zero(n)
    for k in range(n, -1, -1):
        out = out * inner + f[k]
    return out


# Q[s] coefficients with frequent zero gaps, at orders 0 .. N
gappy_st = st.one_of(st.just(SPoly()), spoly2_st)


@st.composite
def compose_case_st(draw):
    order = draw(st.integers(0, N))
    inner_order = draw(st.integers(0, N))
    f = Series(draw(st.lists(gappy_st, max_size=order + 1)), order)
    inner = Series([0] + draw(st.lists(gappy_st, max_size=inner_order)),
                   inner_order)
    return f, inner


@settings(deadline=None)
@given(compose_case_st())
@example((Series([2], 0), Series([0, 1], 1)))
@example((Series([1, 0, SPoly.s()], 2), Series([0], 0)))
@example((Series([1, 2, 0, 3], 3), Series([0, SPoly.s(), 0, 1], 3)))
def test_truncated_horner_matches_full_order_horner(case):
    f, inner = case
    assert f.compose(inner) == _compose_full_order(f, inner)


def _mul_by_terms(f: Series, g: Series) -> Series:
    """The Cauchy product as a chain of SPoly ``+`` and ``*``, one per term."""
    n = min(f.order, g.order)
    out = [SPoly() for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + f[i] * g[j]
    return Series(out, n)


def _reciprocal_by_terms(f: Series) -> Series:
    """1/f by the triangular solve, one SPoly ``+`` and ``*`` per term."""
    inv0 = 1 / f[0].as_rational()
    out = [SPoly.const(inv0)]
    for n in range(1, f.order + 1):
        acc = SPoly()
        for k in range(1, n + 1):
            acc = acc + f[k] * out[n - k]
        out.append(-inv0 * acc)
    return Series(out, f.order)


gappy_series_st = st.integers(0, N).flatmap(
    lambda order: st.lists(gappy_st, max_size=order + 1).map(
        lambda cs: Series(cs, order)))


@settings(deadline=None)
@given(gappy_series_st, gappy_series_st)
@example(Series([SPoly.s()], 0), Series([3], 0))
@example(Series([], 0), Series([1, 2], 1))
def test_product_matches_the_term_by_term_chain(f, g):
    assert f * g == _mul_by_terms(f, g)


def _mul_by_dot(f: Series, g: Series) -> Series:
    """The Cauchy product with one ``dot`` per coefficient."""
    n = min(f.order, g.order)
    return Series([dot(f.coeffs[:k + 1], g.coeffs[k::-1])
                   for k in range(n + 1)], n)


# rationals with zeros, both signs and unrelated denominators, at orders 0 .. N
q_coeff_st = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-50, max_value=50,
                                    max_denominator=60))
q_series_st = st.integers(0, N).flatmap(
    lambda order: st.lists(q_coeff_st, max_size=order + 1).map(
        lambda cs: Series(cs, order)))


def _refuse_dot(xs, ys):
    raise AssertionError("a closed-route kernel reached scalars.dot")


def _refusing_dot(mp):
    """Patch ``dot`` in scalars and series to raise."""
    for module in (scalars, series):
        mp.setattr(module, "dot", _refuse_dot)


@st.composite
def symbolic_product_st(draw):
    """(f, g) over Q, then one coefficient of one factor, inside the
    product's order, replaced by a polynomial of degree 1 in s."""
    f, g = draw(q_series_st), draw(q_series_st)
    k = draw(st.integers(0, min(f.order, g.order)))
    cs = list(f.coeffs)
    cs[k] = SPoly((draw(q_coeff_st), draw(q_coeff_st.filter(bool))))
    f = Series(cs, f.order)
    return (g, f) if draw(st.booleans()) else (f, g)


def _check_product_runs_no_dot(f, g):
    # over Q the numerators are integers, with s in them integer lists
    want = _mul_by_dot(f, g)
    with pytest.MonkeyPatch.context() as mp:
        _refusing_dot(mp)
        got = f * g
    assert got == want == _mul_by_terms(f, g)


@settings(deadline=None)
@given(q_series_st, q_series_st)
@example(Series([], 0), Series([Fraction(1, 3)], 0))
@example(Series([Fraction(1, 2), 0, Fraction(-2, 9)], 2),
         Series([Fraction(3, 7), Fraction(-5, 11), 0, 0, 1], 4))
@example(Series([Fraction(1, 2), Fraction(1, 3)], 1),
         Series([Fraction(2, 3), -1], 1))
def test_product_over_q_never_reaches_dot(f, g):
    _check_product_runs_no_dot(f, g)


@settings(deadline=None)
@given(symbolic_product_st())
@example((Series([SPoly.s()], 0), Series([Fraction(-1, 7)], 0)))
@example((Series([Fraction(1, 2), 0, 0], 2),
          Series([0, 0, SPoly.s() / 3, Fraction(5, 9)], 3)))
def test_product_with_a_symbolic_factor_goes_through_dot(case):
    # the product over Q[s] equals the one summed by dot, which it no
    # longer calls itself
    _check_product_runs_no_dot(*case)


@settings(deadline=None)
@given(linear_st, gappy_series_st)
@example(Fraction(-2, 3), Series([0], 0))
def test_reciprocal_matches_the_term_by_term_solve(c, f):
    f = Series((c,) + f.coeffs[1:], f.order)
    assert f.reciprocal() == _reciprocal_by_terms(f)


@settings(deadline=None)
@given(q_series_st.filter(lambda f: not f[0].is_zero()))
@example(Series([-1, Fraction(1, 2), 0, 3], 3))
@example(Series([Fraction(-7, 3), Fraction(5, 11), Fraction(-1, 6)], N))
@example(Series([Fraction(-7, 3)], 0))
@example(Series([Fraction(4, 9), 0, 0, Fraction(-2, 15), 1], 4))
def test_reciprocal_over_q_never_reaches_dot(f):
    want = _reciprocal_by_terms(f)
    with pytest.MonkeyPatch.context() as mp:
        _refusing_dot(mp)
        got = f.reciprocal()
    assert got == want
    assert f * got == Series.one(f.order)


@st.composite
def symbolic_reciprocal_st(draw):
    """A series over Q with a nonzero constant term, at order >= 1, with one
    later coefficient replaced by a polynomial of degree 1 in s."""
    order = draw(st.integers(1, N))
    cs = [draw(q_coeff_st.filter(bool))] + draw(
        st.lists(q_coeff_st, min_size=order, max_size=order))
    cs[draw(st.integers(1, order))] = SPoly(
        (draw(q_coeff_st), draw(q_coeff_st.filter(bool))))
    return Series(cs, order)


@settings(deadline=None)
@given(symbolic_reciprocal_st())
@example(Series([Fraction(-7, 3), SPoly.s()], 1))
def test_reciprocal_with_a_symbolic_coefficient_goes_through_dot(f):
    calls = []

    def counted(xs, ys):
        calls.append(len(xs))
        return dot(xs, ys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "dot", counted)
        got = f.reciprocal()
    assert got == _reciprocal_by_terms(f)
    assert calls == list(range(1, f.order + 1))


@pytest.mark.parametrize("c0", [SPoly(), SPoly.s(), 1 + SPoly.s()],
                         ids=["zero", "s", "1+s"])
@pytest.mark.parametrize("rest", [(), (Fraction(1, 2), SPoly.s())],
                         ids=["order-0", "order-2"])
def test_reciprocal_refuses_a_constant_term_it_cannot_invert(c0, rest):
    f = Series((c0,) + rest, len(rest))
    with pytest.raises(ValueError,
                       match=f"^constant term {re.escape(str(c0))} is not "
                             "invertible; cannot take reciprocal$"):
        f.reciprocal()


def _revert_by_dot(f: Series, u=None) -> tuple:
    """Lagrange inversion with phi^n as a running Series product and
    [z^n] u(g) as one ``dot`` per n: the pair (g, u o g)."""
    N = f.order
    phi = Series(f.coeffs[1:], N - 1).reciprocal()
    u = Series.zero(0) if u is None else u
    m = min(N, u.order)
    du = [k * c for k, c in enumerate(u.coeffs) if k]
    g, ug = [SPoly()], [u[0]]
    power = phi
    for n in range(1, N + 1):
        p = power.coeffs
        g.append(p[n - 1] / n)
        if n <= m:
            ug.append(dot(du[:n], p[n - 1::-1]) / n)
        if n < N:
            power = power * phi
    return Series(g, N), Series(ug, m)


# revertible over Q at orders 1 .. N, the linear coefficient often 1
q_revertible_st = st.integers(1, N).flatmap(
    lambda order: st.builds(
        lambda c, cs: Series([0, c] + cs, order),
        st.one_of(st.just(Fraction(1)), q_coeff_st.filter(bool)),
        st.lists(q_coeff_st, max_size=order - 1)))


@st.composite
def symbolic_revert_st(draw):
    """(f, u): f over Q at order >= 2 and u over Q, then one coefficient
    replaced by a polynomial of degree 1 in s, either f_k with k >= 2 or
    u_k with 1 <= k <= min(f.order, u.order)."""
    f, u = draw(q_revertible_st.filter(lambda f: f.order >= 2)), draw(q_series_st)
    m = min(f.order, u.order)
    poly = SPoly((draw(q_coeff_st), draw(q_coeff_st.filter(bool))))
    in_f = m == 0 or draw(st.booleans())
    cs = list((f if in_f else u).coeffs)
    cs[draw(st.integers(2, f.order) if in_f else st.integers(1, m))] = poly
    if in_f:
        return Series(cs, f.order), u
    return f, Series(cs, u.order)


def _check_revert_runs_no_dot(f, u):
    # phi^n and u' phi^n are integer numerators over Q, integer lists with
    # s in them; series.dot stays, since the reciprocal of z/f keeps its dot
    # lane over Q[s]
    want_g, want_ug = _revert_by_dot(f, u)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "dot", _refuse_dot)
        g = f.revert()
        got = f.revert(u)
    assert g == got[0] == want_g
    assert got[1] == want_ug


@settings(deadline=None)
@given(q_revertible_st, q_series_st)
@example(Series([0, 1], 1), Series([Fraction(2, 3), 5], 1))  # order 1
@example(Series([0, Fraction(-3, 2), Fraction(1, 3), 0, 4], N),
         Series([1, Fraction(-1, 5), 0, 7], N))
@example(Series([0, Fraction(2, 7), 1, Fraction(-5, 6)], N),
         Series([0, 3, Fraction(1, 4)], 2))  # outer of lower order
@example(Series([0, Fraction(5, 3), Fraction(-1, 2)], N),
         Series([Fraction(-4, 9)], 0))  # outer of order 0
def test_revert_over_q_never_reaches_dot(f, u):
    _check_revert_runs_no_dot(f, u)


@settings(max_examples=40, deadline=None)
@given(symbolic_revert_st())
@example((Series([0, Fraction(-3, 2), SPoly.s()], 2), Series([1], 0)))
@example((Series([0, 1, Fraction(1, 2)], 3), Series([0, SPoly.s()], 1)))
def test_revert_with_a_symbolic_coefficient_goes_through_dot(case):
    # the reversion over Q[s] equals the one whose powers are summed by
    # dot, which it no longer calls itself
    f, u = case
    _check_revert_runs_no_dot(f, u)
    g, ug = f.revert(u)
    assert g == _revert_by_solve(f)
    assert ug == u.compose(g)


def test_revert_takes_its_powers_from_the_miller_kernel(monkeypatch):
    # step n asks for [z^k] P^n at k < n only, P the numerators of z/f
    s = SPoly.s()
    cases = [(Series([0, Fraction(-3, 2), Fraction(1, 3), 0, 4], N),
              Series([1, Fraction(-1, 5), 0, 7], N)),
             (Series([0, 1, s, 0, 1 - s], N), Series([0, s, 2], N))]
    want = [_revert_by_dot(f, u) for f, u in cases]
    calls, kernel = [], scalars._miller_power

    def recording(A, alpha):
        calls.append((len(A), alpha))
        return kernel(A, alpha)

    monkeypatch.setattr(series, "_miller_power", recording)
    assert [f.revert(u) for f, u in cases] == want
    assert calls == 2 * [(n, n) for n in range(1, N + 1)]


@st.composite
def miller_case_st(draw):
    """(f, alpha): f at order K in 0..10 with a nonzero rational constant
    term and the other coefficients rational, or polynomials in s of
    degree <= 2; alpha in -6..6."""
    K = draw(st.integers(0, 10))
    rest = q_coeff_st if draw(st.booleans()) else spoly2_st
    cs = [draw(q_coeff_st.filter(bool))] + draw(st.lists(rest, max_size=K))
    return Series(cs, K), draw(st.integers(-6, 6))


@settings(deadline=None)
@given(miller_case_st())
@example((Series([Fraction(-3, 2), 1, SPoly.s()], 2), 0))  # alpha = 0
@example((Series([Fraction(5, 3)], 0), -4))  # K = 0
@example((Series([1, 2, -1, SPoly.s()], 3), 4))  # A_0 = 1
@example((Series([-1, SPoly.s(), 2], 2), -5))  # A_0 = -1
# a negative non-unit A_0 = -3, from the leading coefficient -3/2
@example((Series([Fraction(-3, 2), SPoly.s(), 0, Fraction(1, 2)], 3), 5))
@example((Series([Fraction(-3, 2), SPoly.s(), 0, Fraction(1, 2)], 3), -5))
@example((Series([Fraction(-3, 2), 1, Fraction(1, 4), 2], 3), -2))
def test_miller_power_is_the_scaled_power_of_its_numerators(case):
    f, alpha = case
    [(A, d)] = scalars._over_lcm(f.coeffs)
    R = scalars._miller_power(A, alpha)
    a = A[0] if type(A[0]) is int else A[0][0]
    num = [SPoly.ratio(x, 1) for x in R]
    # A = d f: R_k = d^alpha [z^k] f^alpha, times a^(k - alpha) for alpha < 0
    if alpha >= 0:
        want = [d ** alpha * c for c in (f ** alpha).coeffs]
    else:
        power = f.reciprocal() ** -alpha
        want = [Fraction(a) ** (k - alpha) * Fraction(d) ** alpha * c
                for k, c in enumerate(power.coeffs)]
    assert num == want
    # every exact division k a R_k = sum_j ((alpha+1) j - k) B_j R_(k-j)
    # left remainder 0
    B = [SPoly.ratio(x, 1) * (a ** j if alpha < 0 else 1)
         for j, x in enumerate(A)]
    for k in range(1, len(R)):
        assert k * a * num[k] == sum(
            ((alpha + 1) * j - k) * B[j] * num[k - j] for j in range(1, k + 1))


@given(inner_st)
def test_log_inverts_exp(u):
    assert u.exp().log() == u


@given(st.fractions(min_value=-5, max_value=5, max_denominator=3),
       st.fractions(min_value=-5, max_value=5, max_denominator=3), inner_st)
def test_rational_powers_add(a, b, u):
    f = 1 + u
    lhs = f.pow_rational(a) * f.pow_rational(b)
    assert lhs == f.pow_rational(a + b)


def test_pow_rational_refuses_floats():
    f = 1 + Series.variable(3)
    assert f.pow_rational(2) == f * f
    with pytest.raises(TypeError):
        f.pow_rational(0.1)


def test_pow_rational_needs_unit_constant():
    z = Series.variable(3)
    with pytest.raises(ValueError):
        (2 + z).pow_rational(Fraction(1, 2))


def test_json_round_trip():
    s = SPoly.s()
    f = Series((1, s, 2 * s * s - 1), 4)
    assert f.to_json() == {"trunc_order": 4,
                           "coeffs": [["1"], ["0", "1"], ["-1", "0", "2"],
                                      [], []]}

