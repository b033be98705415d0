"""Ordered expansions of powers and exponentials of boson words.

The central objects are words w = ad^L a ad^R with a single annihilator,
classified by their excess e = L + R - 1 >= 0.  Two entirely separate
computation routes exist for exp(lambda w) and w^n:

* the ORACLE route: concatenate letters and normal-order by brute-force
  rewriting (:mod:`.weyl`); no series, no arrays, integer arithmetic;

* the CLOSED route: the coefficients form Hsu-Shiue triangles, and the
  s-ordered symbol of exp(lambda w) is the two-point bivariate EGF
  evaluated at (t, z) = (x* x, lambda x*^e) with parameters
  (A, B, r, r') = (e, 1, -L, R).

The two routes share nothing but the scalar types, and every verification
suite drives them onto the same normal forms.  Both deliver exp(lambda w)
as a plain list whose entry n is the lambda^n coefficient, a NormalForm:
:func:`oracle_exponential` directly, the closed route through
:meth:`SymbolSeries.quantize` of the s-ordered symbol series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .scalars import SPoly, as_s
from .series import Series
from .riordan import RiordanPair, pair_to_egf, raising_series, sheffer_row
from .hsu_shiue import HSParams, hs_triangle_rec
from .two_point import TwoPointParams, two_point_egf, two_point_pair
from .weyl import (AntiNormalForm, ClassicalPoly, NormalForm, Word,
                   normal_order, s_quantize)


@dataclass(frozen=True)
class SingleAnnihilatorWord:
    """The word ad^L a ad^R; excess e = L + R - 1 must be >= 0."""

    L: int
    R: int

    def __post_init__(self):
        if self.L < 0 or self.R < 0 or self.L + self.R < 1:
            raise ValueError("need L, R >= 0 with L + R >= 1")

    @property
    def e(self) -> int:
        return self.L + self.R - 1

    def word(self) -> Word:
        return Word("c" * self.L + "a" + "c" * self.R)

    def two_point_params(self, s) -> TwoPointParams:
        """The parameter map (A, B, r, r') = (e, 1, -L, R)."""
        return TwoPointParams(self.e, 1, -self.L, self.R, as_s(s))


@dataclass(frozen=True, slots=True)
class SymbolSeries:
    """Truncated series in lambda whose coefficients are classical symbols,
    tagged with the ordering parameter s they belong to."""

    terms: tuple
    order: int
    s: SPoly

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) != self.order + 1:
            raise ValueError("need exactly order+1 coefficient polynomials")
        object.__setattr__(self, "s", as_s(self.s))

    def __getitem__(self, n: int) -> ClassicalPoly:
        return self.terms[n]

    def quantize(self) -> list:
        """s-quantize every lambda coefficient at this series' own s; the
        lambda^n coefficient is entry n of the returned list of NormalForms."""
        return [s_quantize(t, self.s) for t in self.terms]

    def to_json(self) -> dict:
        return {"trunc_order": self.order, "s": self.s.to_json(),
                "terms": [t.to_json() for t in self.terms]}


# ---------------------------------------------------------------------------
# Oracle route: pure word rewriting.
# ---------------------------------------------------------------------------

def oracle_exponential(w: SingleAnnihilatorWord, N: int) -> list:
    """exp(lambda w) to lambda-order N by rewriting each power w^n afresh,
    as the list of its N + 1 lambda coefficients (NormalForms).

    Deliberately touches no triangle or series machinery: the n-th
    coefficient is normal_order(w^n)/n!, nothing else.
    """
    word = w.word()
    return [normal_order(word.power(n)).scale(Fraction(1, factorial(n)))
            for n in range(N + 1)]


# ---------------------------------------------------------------------------
# Closed route: triangles and EGFs.
# ---------------------------------------------------------------------------

def power_normal_form(w: SingleAnnihilatorWord, n: int, variant: str = "normal"):
    """w^n by the generalized-Stirling power theorem.

    normal:      w^n = ad^(en) sum_k HS_{n,k}(-e, 1, R) ad^k a^k
    antinormal:  w^n = sum_k HS_{n,k}(e, -1, -L) a^k ad^k ad^(en)

    Coefficients come from the triangle recurrence (valid for every
    parameter sign); returns a NormalForm or an AntiNormalForm.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    e = w.e
    if variant == "normal":
        tri = hs_triangle_rec(HSParams(-e, 1, w.R), n)
        return NormalForm(((e * n + k, k), tri.entry(n, k))
                          for k in range(n + 1))
    if variant == "antinormal":
        tri = hs_triangle_rec(HSParams(e, -1, -w.L), n)
        return AntiNormalForm(((k, k + e * n), tri.entry(n, k))
                              for k in range(n + 1))
    raise ValueError("variant must be 'normal' or 'antinormal'")


def laguerre_power(n: int, variant: str = "normal"):
    """(ad a ad)^n in closed Laguerre form.

    normal:      ad^n sum_k [n!^2 / (k!^2 (n-k)!)] ad^k a^k
    antinormal:  sum_k (-1)^(n-k) [n!^2 / (k!^2 (n-k)!)] a^k ad^k ad^n

    The row polynomial is n! L_n(-t) with L_n the Laguerre polynomial.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    nf2 = factorial(n) ** 2
    if variant == "normal":
        return NormalForm(((n + k, k), Fraction(nf2, factorial(k) ** 2 * factorial(n - k)))
                          for k in range(n + 1))
    if variant == "antinormal":
        return AntiNormalForm(
            ((k, k + n),
             (-1) ** (n - k) * Fraction(nf2, factorial(k) ** 2 * factorial(n - k)))
            for k in range(n + 1))
    raise ValueError("variant must be 'normal' or 'antinormal'")


def _row_symbol(row, e: int, n: int) -> ClassicalPoly:
    """Map t^k -> x*^(e n + k) x^k: the z^n row at t = x* x, z = lam x*^e."""
    return ClassicalPoly(((e * n + k, k), c) for k, c in enumerate(row))


def s_ordered_symbol(w: SingleAnnihilatorWord, s, N: int) -> SymbolSeries:
    """The s-ordered symbol series of exp(lambda w), via the two-point EGF.

    The lambda^n coefficient is x*^(en) T_n(x* x)/n!, with T_n the n-th
    two-point row polynomial at (A, B, r, r') = (e, 1, -L, R).  At the
    endpoints T collapses onto HS(-e, 1, R) and HS(e, -1, -L), whose EGFs
    are closed forms (with the e -> 0 limits taken analytically):

    normal (s = -1):      (1 - e lam x*^e)^(-R/e) *
                          exp[((1 - e lam x*^e)^(-1/e) - 1) x* x]
    antinormal (s = +1):  exp[-x x* ((1 + e lam x*^e)^(-1/e) - 1)] *
                          (1 + e lam x*^e)^(-L/e)
    """
    s = as_s(s)
    egf = two_point_egf(w.two_point_params(s), N)
    return SymbolSeries([_row_symbol(row, w.e, n)
                         for n, row in enumerate(egf.zcoeffs)], N, s)


def power_symbol(w: SingleAnnihilatorWord, n: int, s) -> ClassicalPoly:
    """The s-ordered symbol of the single power w^n: x*^(en) T_n(x* x).

    T_n is row n of the two-point family at (A, B, r, r') = (e, 1, -L, R),
    whose Sheffer pair [g, f] has generalized-factorial coefficients; the
    pair is built at order n + 1 and ``sheffer_row`` reads the one row from
    it by the Lagrange-Bürmann formula, with no group inversion and no
    other row.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    pair = two_point_pair(w.two_point_params(as_s(s)), n + 1)
    return _row_symbol(sheffer_row(pair, n), w.e, n)


def exp_number_closed_form(s, N: int) -> SymbolSeries:
    """The classical s-ordered expansion of exp(lambda ad a) in closed form:

        exp(lambda ad a) = :  2/(1 + E - s(1 - E)) *
                              exp[ 2(E - 1)/(1 + E - s(1 - E)) x* x ] :_s

    with E = e^lambda.  The prefactor/exponent pair is itself a Riordan
    pair in lambda, so the expansion reuses the array machinery verbatim.
    """
    s = as_s(s)
    lam = Series.variable(N)
    E = lam.exp()
    den = 1 + E - s * (1 - E)
    pref = 2 / den
    expo = (2 * (E - 1)) / den
    egf = pair_to_egf(RiordanPair(pref, expo), N)
    return SymbolSeries([_row_symbol(row, 0, n)
                         for n, row in enumerate(egf.zcoeffs)], N, s)


def weyl_power_aaa(n: int) -> ClassicalPoly:
    """The Weyl-ordered symbol of (ad a ad)^n:

        sum over k = n, n-2, n-4, ... of
        (-1)^((n-k)/2) 2^(k-n) C(n, (n-k)/2) (n!/k!)  x*^n (x* x)^k

    Times 2^(n-k), the coefficients form the exponential Riordan array
    [1/sqrt(1+4z^2), 2z/(1+sqrt(1+4z^2))]; see the weyl-power suite.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    items = []
    for k in range(n % 2, n + 1, 2):
        j = (n - k) // 2
        c = Fraction((-1) ** j * comb(n, j), 2 ** (n - k)) \
            * Fraction(factorial(n), factorial(k))
        items.append(((n + k, k), c))
    return ClassicalPoly(items)


# ---------------------------------------------------------------------------
# The Sheffer-pair exponential identity (single annihilator, general pair).
# ---------------------------------------------------------------------------

def _lmul(p: list, q: list) -> list:
    """Cauchy product in lambda of two lambda-indexed lists of series."""
    return [sum((p[k] * q[n - k] for k in range(1, n + 1)), p[0] * q[n])
            for n in range(len(p))]


def _taylor_shift(F: Series, x: Series, nl: int) -> list:
    """F(x + lambda) through lambda^nl: the lambda^j term is F^(j)(x)/j!.
    F must be known through x.order + nl."""
    out = [F.compose(x)]
    for j in range(1, nl + 1):
        F = F.deriv() * Fraction(1, j)
        out.append(F.compose(x))
    return out


def blasiak_identity_check(p: RiordanPair, nd: int, nl: int):
    """Both sides, term by term, of the normally ordered form of
    exp(lambda X) for the raising-type element

        X = (1/f'(ad)) [a - g'(ad)/g(ad)]

    of a genuine Sheffer pair [g, f]: with bbar = fbar(f(ad) + lambda),

        exp(lambda X) = : g(ad)/g(bbar) exp[(bbar - ad) a] :_N

    Both sides are expanded in the double truncation (ad-degree <= nd,
    lambda-order <= nl): the left side by left multiplication with
    X = u(ad) a - w(ad), u = 1/f' and w = u g'/g, where
    a F(ad) = F(ad) a + F'(ad) gives X F a^m = u F a^(m+1) + (u F' - w F) a^m;
    the right side as a Taylor shift in lambda,
    F(f(ad) + lambda) = sum_j F^(j)(f(ad)) lambda^j/j!.
    Yields (n, m, got, want) for each lambda^n a^m term, m outer and n
    inner: the left and right sides' series in ad through ad-degree nd.

    The pair must carry truncation order at least nd + nl + 1 so that every
    derivative and composition stays exact on the compared window (a
    shorter one raises ValueError at the first term drawn).
    """
    work = nd + nl
    if p.order < work + 1:
        raise ValueError(f"pair truncation order must be >= {work + 1}")
    g, f = p.first, p.second

    # Left side: lambda^n coefficient is X^n/n!, kept as {a-power: series in
    # ad}.  X^(n+1) = X X^n, and each step lowers the series order by one.
    u, w = raising_series(p, work)
    states = [{0: Series.one(work)}]
    for _ in range(nl):
        new: dict[int, Series] = {}
        for m, F in states[-1].items():
            new[m + 1] = new.get(m + 1, 0) + u * F
            new[m] = new.get(m, 0) + u * F.deriv() - w * F
        states.append(new)

    # Right side: lambda-indexed lists of series in ad.  bbar and 1/g(bbar)
    # are F(f(ad) + lambda) for F = fbar and F = 1/(g o fbar).  The lambda^0
    # term of bbar - ad stays fbar(f(ad)) - ad, so a wrong reversion shows.
    fbar = f.revert().truncate(work)
    f_ad = f.truncate(nd)
    bbar = _taylor_shift(fbar, f_ad, nl)
    recip = _taylor_shift(g.truncate(work).compose(fbar).reciprocal(), f_ad, nl)
    ratio = [g.truncate(nd) * c for c in recip]
    diff = [bbar[0] - Series.variable(nd)] + bbar[1:]

    rhs_m = [Series.one(nd)] + [Series.zero(nd)] * nl  # (bbar - ad)^m / m!
    for m in range(nl + 1):
        if m > 0:
            rhs_m = [c * Fraction(1, m) for c in _lmul(rhs_m, diff)]
        coeff_m = _lmul(ratio, rhs_m)
        for n in range(nl + 1):
            lhs_series = states[n].get(m)
            if lhs_series is None:
                lhs_slice = Series.zero(nd)
            else:
                lhs_slice = (lhs_series * Fraction(1, factorial(n))).truncate(nd)
            yield n, m, lhs_slice, coeff_m[n]
