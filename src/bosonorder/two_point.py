"""The two-point generalization of the Hsu-Shiue family.

Where HS(A, B, r) has a Sheffer pair built from a single binomial factor
(1 + B D), the two-point family splices two such factors at reference
points weighted by (1+s)/2 and (1-s)/2, so that the single parameter s
interpolates continuously between a pair of ordinary Hsu-Shiue families.

With the abbreviations

    P = 1 + ((1-s)/2) B D          M = 1 - ((1+s)/2) B D

the defining series of T(A, B, r, r'; s) in Sheffer convention are

    g(D) = ((1+s)/2) (P/M)^(-r/B) + ((1-s)/2) (M/P)^(r'/B)
    f(D) = (M^(-A/B) - P^(-A/B)) / A

and, as for the Hsu-Shiue pair, their coefficients are generalized
factorials.  With w+- = (1+-s)/2, each power of P or M is a binomial series
(1 + c z)^(a/c) = sum_n (a | c)_n z^n/n!, so

    (P/M)^(-r/B) = (1 + w- B D)^(-r w- / (w- B)) (1 - w+ B D)^(-r w+ / (-w+ B))

and the same with r' in place of r, while

    f_n = (w+^n - (-w-)^n) (A + B) (A + 2B) ... (A + (n-1) B) / n!

Every coefficient is a product of linear factors, read from the one
generalized factorial ``scalars.falling_row``, so one formula holds at
every (A, B), the limits A = 0 and B = 0 included.

The pair is built by one loop for every s.  With s = u/q (u and q
integers in lowest terms at a constant s; u = s and q = 1 at symbolic s),
2q w+ = q + u and 2q w- = q - u are numerators, integers or in Z[s]; with
A, B, r, r' over their lcm L, each half of g, a product of two binomial
series, is D-finite (Stanley, Europ. J. Combin. 1, 1980): its numerators
over (2qL)^n n! obey a three-term recurrence, so no convolution is needed,
and every coefficient of g and f is one numerator over a known
denominator, reduced once (the common-denominator method of Knuth, TAOCP
Vol. 2, sec. 4.5.1).  The loop runs on plain numerators -- integers at a
constant s, integer coefficient lists otherwise -- through three ring
operations picked before it: the recurrence step, the mix of the two
halves of g and the f factor (q+u)^n - (u-q)^n.

For a word (A, B, r, r') = (e, 1, -L, R) everything is integral in w-:
n! [z^n] of g, f, gbar and fbar lie in Z[w-], of degree at most n, n - 1,
n and n - 1.  Hurwitz series over a ring stay Hurwitz under products,
reciprocals and reversion (Keigher, Comm. Algebra 25, 1997), and entry
(n, k) of the array is a partial Bell polynomial with integer coefficients
in them (Comtet, Advanced Combinatorics, 1974, sec. 3.3), so it lies in
Z[w-] with degree at most n - k: at w- = a/b in lowest terms, b^(n-k)
times the entry is an integer.

At the endpoints the family collapses onto the one-point one:

    T(A, B, r, r'; -1) = HS(-A, B, r')        T(A, B, r, r'; +1) = HS(A, -B, r)

The bivariate EGF is the array of the group inverse [gbar, fbar] of [g, f],
whose fbar comes from series reversion (Lagrange inversion) -- no radicals
needed at any e.  One row needs no inverse: ``riordan.sheffer_row`` reads it
from [g, f] itself.  For the low excesses e = 1 and e = 2 the inverted pair
also has closed forms, kept here as independent cross-checks of the
inversion.  Both read in P and M taken at the inverse, P = 1 + w- fbar and
M = 1 - w+ fbar: at e = 1, fbar is a radical and gbar = Q^(-1/2) (M/P)^(L-1);
at e = 2, fbar is a root of 2 z (M P)^2 = P^2 - M^2.  P and M have constant
term 1 at every s, so neither check divides by 1 -+ s and both hold at the
endpoints s = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .scalars import (SPoly, _canonical, _mac, _over_lcm, _rationals_over_lcm,
                      as_s, as_spoly, falling_row)
from .series import Series
from .riordan import BivariateEGF, RiordanPair, group_inverse, pair_to_egf


@dataclass(frozen=True)
class TwoPointParams:
    """Parameters (A, B, r, r') plus the ordering parameter s.

    A, B, r, rp are exact rationals (ints, Fractions and constant SPolys
    are read as rationals, and a float raises TypeError); s is an SPoly and
    defaults to the symbol s itself (numeric orderings are evaluations).
    """

    A: Fraction
    B: Fraction
    r: Fraction
    rp: Fraction
    s: SPoly = field(default_factory=SPoly.s)

    def __post_init__(self):
        for name in ("A", "B", "r", "rp"):
            object.__setattr__(self, name,
                               as_spoly(getattr(self, name)).as_rational())
        object.__setattr__(self, "s", as_s(self.s))


def two_point_pair(p: TwoPointParams, N: int) -> RiordanPair:
    """The Sheffer pair [g, f] of the two-point family, at order N.

    Every coefficient is one numerator over a known denominator.  With
    s = u/q (u an integer at a constant s, u = s and q = 1 at symbolic s)
    and A, B, r, r' over their lcm L (a = A L, b = B L, rho = r L), each
    half of g is D-finite (Stanley, Europ. J. Combin. 1, 1980):
    H = (P/M)^(-r/B) solves P M H' = -r H, so its numerators
    E_n = n! (2qL)^n [z^n] H obey the three-term recurrence

        E_(n+1) = 2 (u b n - q rho) E_n + n (n-1) (q^2 - u^2) b^2 E_(n-1)

    from E_0 = 1, E_(-1) = 0, with no convolution; E' is the same with
    rho' = r' L.  Then

        g_n = ((q+u) E_n + (q-u) E'_n) / (2q n! (2qL)^n)
        f_n = ((q+u)^n - (u-q)^n) L (a + b) ... (a + (n-1) b) / ((2qL)^n n!)

    each reduced once.  The ring of the numerators and its three operations
    -- the recurrence step, the mix of E and E' and the f factor -- are
    picked from s before the loop: integers at a constant s, and otherwise
    the integer coefficient lists of polynomials in u, where multiplying by
    u is a shift and the f factor is 2 sum_(n-j odd) C(n, j) q^(n-j) u^j
    (at symbolic s, u is s itself).  No ``SPoly`` is built but the
    coefficients themselves.

    >>> print(two_point_pair(TwoPointParams(1, 1, -1, 1, 0), 4).second)
    z + 1/4*z^3 + O(z^5)
    """
    [([u], q)] = _over_lcm((p.s,))
    (a, b, rho, rhop), L = _rationals_over_lcm(p.A, p.B, p.r, p.rp)
    one, zero, step, mix, odd = (_integer_ring(u, q, N) if type(u) is int
                                 else _polynomial_ring(u, q))
    # E_n, E_(n-1), E'_n, E'_(n-1)
    e, e_prev, ep, ep_prev = one, zero, one, zero
    c0, c0p, c1 = -2 * q * rho, -2 * q * rhop, 0  # E's factor is c0 + c1 u
    # entry n >= 1 is (a + b) ... (a + (n-1) b); f_0 = 0
    fall = [0, *falling_row(a + b, N - 1, -b)]
    g, f = [], []
    den = 1  # (2qL)^n n!
    for n in range(N + 1):
        g.append(_canonical(mix(e, ep), 2 * q * den, 2 * q * den))
        f.append(_canonical(odd(n, L * fall[n]), den, den))
        t = n * (n - 1) * b * b
        e, e_prev = step(e, e_prev, c0, c1, t), e
        ep, ep_prev = step(ep, ep_prev, c0p, c1, t), ep
        c1 += 2 * b
        den *= 2 * q * L * (n + 1)
    return RiordanPair(Series(g, N), Series(f, N))


def _integer_ring(u: int, q: int, N: int) -> tuple:
    """E_0, E_(-1) and the three operations of ``two_point_pair`` at a
    constant s = u/q, on integers: the step (c0 + c1 u) x + t (q^2 - u^2) y,
    the mix (q+u) x + (q-u) y and k ((q+u)^n - (u-q)^n) for n <= N, the
    last two as one-entry numerator lists."""
    up, down, curve = q + u, q - u, q * q - u * u
    factors, pos, neg = [], 1, 1  # (q+u)^n - (u-q)^n by running powers
    for _ in range(N + 1):
        factors.append(pos - neg)
        pos, neg = pos * up, -neg * down

    def step(x, y, c0, c1, t):
        return (c0 + c1 * u) * x + t * curve * y

    def mix(x, y):
        return [up * x + down * y]

    def odd(n, k):
        return [factors[n] * k]

    return 1, 0, step, mix, odd


def _polynomial_ring(u: list, q: int) -> tuple:
    """The same where s = u/q has u in Z[s] of degree >= 1 (u = s and q = 1
    at symbolic s), on the integer coefficient lists of polynomials in u,
    kept untrimmed so that E_n has length n + 1.  Multiplying by u is a
    shift, and k ((q+u)^n - (u-q)^n) = 2k sum_(n-j odd) C(n, j) q^(n-j) u^j.
    The numerators that are reduced are read in s by putting u in for the
    indeterminate, which changes nothing at symbolic s."""
    qq = q * q

    def step(x, y, c0, c1, t):
        # (c0 + c1 u) x + t (q^2 - u^2) y
        return [c0 * x0 + c1 * x1 + t * (qq * y0 - y2) for x0, x1, y0, y2
                in zip(x + [0], [0] + x, y + [0, 0], [0, 0] + y)]

    def mix(x, y):
        # (q + u) x + (q - u) y
        return read([q * (x0 + y0) + x1 - y1 for x0, x1, y0, y1
                     in zip(x + [0], [0] + x, y + [0], [0] + y)])

    def odd(n, k):
        return read([2 * k * comb(n, j) * q ** (n - j) if (n - j) % 2 else 0
                     for j in range(n)])

    def read(c):
        if u == [0, 1]:
            return c
        out = [0]  # c(u) by Horner's rule
        for x in reversed(c):
            out, prev = [0] * (len(out) + len(u) - 1), out
            _mac(out, prev, u)
            out[0] += x
        return out

    return [1], [], step, mix, odd


def two_point_egf(p: TwoPointParams, N: int) -> BivariateEGF:
    """The bivariate EGF gbar(z) exp(t fbar(z)), with [gbar, fbar] the group
    inverse of the Sheffer pair [g, f]; fbar comes from series reversion."""
    return pair_to_egf(group_inverse(two_point_pair(p, N)), N)


def closed_form_e1(L: int, R: int, s, N: int) -> RiordanPair:
    """The radical closed form of the inverted pair [gbar, fbar] for excess
    e = 1, i.e. (A, B, r, r') = (1, 1, -L, R) with L + R = 2.

    With Q = 1 + 2 s z + z^2:

        fbar = 2 z / (1 + s z + sqrt(Q))
        gbar = (1+s) / (Q + (z+s) sqrt(Q))     for (L, R) = (2, 0)
        gbar = Q^(-1/2)                        for (L, R) = (1, 1)
        gbar = (1-s) / (Q - (z+s) sqrt(Q))     for (L, R) = (0, 2)

    All three gbar are Q^(-1/2) (M/P)^(L-1) with P = 1 + w- fbar and
    M = 1 - w+ fbar.  P and M have constant term 1 at every s, so this one
    formula holds at s = +1 and s = -1 too, where the printed (2,0) and
    (0,2) forms are 0/0.

    >>> print(closed_form_e1(2, 0, 1, 4).first)
    1 - 2*z + 3*z^2 - 4*z^3 + 5*z^4 + O(z^5)
    """
    if L < 0 or R < 0 or L + R != 2:
        raise ValueError("closed_form_e1 requires L, R >= 0 with L + R = 2")
    s = as_s(s)
    q = Series((1, 2 * s, 1), N)
    z = Series.variable(N)
    fbar = (2 * z) / (Series((1, s), N) + q.pow_rational(Fraction(1, 2)))
    P, M = 1 + (1 - s) / 2 * fbar, 1 - (1 + s) / 2 * fbar
    gbar = q.pow_rational(Fraction(-1, 2)) * (M / P).pow_rational(L - 1)
    return RiordanPair(gbar, fbar)


def quartic_residual(L: int, R: int, s, N: int) -> Series:
    """Residual of the algebraic quartic satisfied by fbar at excess e = 2,
    i.e. (A, B) = (2, 1) with L + R = 3; identically zero iff fbar is a
    root.  In terms of w = fbar(z):

        (1-s^2)^2 z w^4 + 8 s (1-s^2) z w^3 - 8[(1-3s^2) z - s] w^2
            - 16 (1 + 2 s z) w + 16 z  =  0

    The left side is 8 (2 z (M P)^2 - (P^2 - M^2)) with P = 1 + w- w and
    M = 1 - w+ w, for every series w, and that is what is computed.  At
    s = +-1 the two leading coefficients vanish and the constraint
    degenerates to a quadratic.
    """
    if L < 0 or R < 0 or L + R != 3:
        raise ValueError("quartic_residual requires L, R >= 0 with L + R = 3")
    s = as_s(s)
    p = TwoPointParams(2, 1, -L, R, s)
    w = group_inverse(two_point_pair(p, N)).second
    z = Series.variable(N)
    P, M = 1 + (1 - s) / 2 * w, 1 - (1 + s) / 2 * w
    return 8 * (2 * z * (M * P) ** 2 - (P * P - M * M))


def quartic_leading_coeffs(s) -> tuple:
    """The two leading quartic coefficients ((1-s^2)^2, 8 s (1-s^2)); both
    vanish identically at s = +-1, where the quartic degenerates."""
    s = as_s(s)
    one_m_s2 = SPoly.const(1) - s * s
    return (one_m_s2 * one_m_s2, 8 * s * one_m_s2)
