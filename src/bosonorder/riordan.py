"""Exponential Riordan arrays, Sheffer pairs, triangles, and bivariate EGFs.

An exponential Riordan pair [d, h] (d(0) = 1, h(0) = 0, h'(0) = 1) encodes
the lower-triangular array

    s_{n,k} = (n!/k!) [z^n] d(z) h(z)^k

whose row polynomials s_n(t) have the bivariate exponential generating
function d(z) exp(t h(z)).  Pairs form a group:

    [d1, h1] * [d2, h2] = [(d2 o h1) d1,  h2 o h1]
    [d, h]^(-1)         = [1/(d o hbar), hbar],   hbar = revert(h)
    identity            = [1, z]

The inverse is one Lagrange pass: the powers (z/h)^n that give hbar also
give d o hbar by the Lagrange-Bürmann formula (``Series.revert`` with d as
the outer series), and one reciprocal finishes it, with no composition.

A sequence is Sheffer for the pair [g, f] (acting by the derivative D)
exactly when its coefficient array is the exponential Riordan array of the
group inverse of [g, f].  A :class:`RiordanPair` is just two series, and
each function reads it one fixed way: ``pair_to_egf`` and ``array_coeffs``
as the array [d, h], ``sheffer_row``, ``ladder_apply`` and
``raising_series`` as the Sheffer pair [g, f], and the group operations
either way.

Ladder operators: if s_n is Sheffer for [g, f] then

    f(D) s_n = n s_(n-1)
    [t - g'(D)/g(D)] (1/f'(D)) s_n = s_(n+1)

(the lowering operator is the delta series f, NOT g: g(D) has a unit
constant term and cannot annihilate constants).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .scalars import SPoly, _over_lcm, _sum_products, as_spoly, dot
from .series import Series


@dataclass(frozen=True)
class RiordanPair:
    """Two series: the array [d, h] to ``pair_to_egf`` and ``array_coeffs``,
    the Sheffer pair [g, f] to ``sheffer_row``, ``ladder_apply`` and
    ``raising_series``; a sequence's two are group inverses of each other."""

    first: Series
    second: Series

    def __post_init__(self):
        if self.first.order != self.second.order:
            raise ValueError("pair series must share a truncation order")
        if self.first[0] != 1:
            raise ValueError("first series must have constant term 1")
        if not self.second[0].is_zero():
            raise ValueError("second series must have zero constant term")
        if self.second.order >= 1 and self.second[1] != 1:
            raise ValueError("second series must have unit linear term")

    @property
    def order(self) -> int:
        return self.first.order

    def eval_s(self, value) -> "RiordanPair":
        return RiordanPair(self.first.eval_s(value), self.second.eval_s(value))


def identity_pair(order: int) -> RiordanPair:
    return RiordanPair(Series.one(order), Series.variable(order))


def group_product(p1: RiordanPair, p2: RiordanPair) -> RiordanPair:
    """Group product [(d2 o h1) d1, h2 o h1] of two pairs."""
    d = p2.first.compose(p1.second) * p1.first
    h = p2.second.compose(p1.second)
    return RiordanPair(d, h)


def group_inverse(p: RiordanPair) -> RiordanPair:
    """Group inverse: the array [d, h] of a Sheffer pair [g, f], and back.

    One Lagrange pass, ``Series.revert`` with d as the outer series, gives
    hbar and d o hbar from the same powers (z/h)^n; one reciprocal then
    finishes the pair, with no composition.
    """
    if p.order == 0:
        return RiordanPair(Series.one(0), Series.zero(0))
    hbar, d_hbar = p.second.revert(p.first)
    return RiordanPair(d_hbar.reciprocal(), hbar)


@dataclass
class Triangle:
    """Lower-triangular table of SPoly entries; rows[n][k] for 0 <= k <= n."""

    N: int
    rows: list

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("truncation order must be >= 0")
        if len(self.rows) != self.N + 1:
            raise ValueError("row count must be N+1")
        self.rows = [[c if type(c) is SPoly else as_spoly(c) for c in row]
                     for row in self.rows]
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")

    def entry(self, n: int, k: int) -> SPoly:
        """Entry (n, k), zero outside the triangle."""
        if k < 0 or k > n or n > self.N:
            return SPoly()
        return self.rows[n][k]

    def row_poly(self, n: int) -> list:
        """Row n as the coefficient list of a polynomial in t."""
        return list(self.rows[n])

    def to_json(self) -> dict:
        return {"N": self.N, "rows": [[c.to_json() for c in row]
                                      for row in self.rows]}


def _tp_trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


class BivariateEGF:
    """A bivariate EGF stored as plain z-coefficients, each a polynomial in t.

    ``zcoeffs[n]`` is the coefficient of z^n (NOT z^n/n!); the row polynomial
    of index n is therefore n! * zcoeffs[n].  Entries of the t-polynomials
    are SPoly, so one object covers the whole symbolic-s family.
    """

    __slots__ = ("zcoeffs", "order")

    def __init__(self, zcoeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        rows = []
        for n in range(order + 1):
            src = zcoeffs[n] if n < len(zcoeffs) else ()
            rows.append(_tp_trim(c if type(c) is SPoly else as_spoly(c)
                                 for c in src))
        object.__setattr__(self, "zcoeffs", tuple(rows))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("BivariateEGF is immutable")

    def coeff(self, n: int, k: int) -> SPoly:
        """Coefficient of z^n t^k, zero for k outside the stored row."""
        row = self.zcoeffs[n]
        return row[k] if 0 <= k < len(row) else SPoly()

    def row_poly(self, n: int) -> list:
        """n! times the z^n coefficient: the row polynomial in t."""
        f = factorial(n)
        return [f * c for c in self.zcoeffs[n]]

    def to_triangle(self) -> Triangle:
        rows = []
        for n in range(self.order + 1):
            poly = self.row_poly(n)
            poly += [SPoly()] * (n + 1 - len(poly))
            if len(poly) > n + 1:
                raise ValueError(f"t-degree of row {n} exceeds n")
            rows.append(poly)
        return Triangle(self.order, rows)

    def is_zero(self) -> bool:
        return all(not row for row in self.zcoeffs)

    def __eq__(self, other):
        if not isinstance(other, BivariateEGF):
            return NotImplemented
        return self.order == other.order and self.zcoeffs == other.zcoeffs

    def to_json(self) -> dict:
        return {"trunc_order": self.order,
                "coeffs": [[c.to_json() for c in row] for row in self.zcoeffs]}


def pair_to_egf(p: RiordanPair, N: int) -> BivariateEGF:
    """Expand d(z) exp(t h(z)) through z^N for the array [d, h].

    Row n holds (1/k!) [z^n] d h^k for k <= n, read off the columns d h^k.
    With H = h/z, [z^n] d h^k = [z^(n-k)] d H^k, so column k is d H^k
    carried only at order N - k: each step multiplies at the next lower
    order and visits none of the k leading zeros of d h^k at order N.

    d and H go over the lcms of their denominators once, d = A/d_d and
    H = B/d_H, and column k is the numerator list A B^k over d_d d_H^k k!:
    the weight 1/k! rides in the running denominator, each step is one
    convolution of numerators, and each entry is reduced once.  The
    numerators are integers when every coefficient of d and H is a constant
    (every call at numeric s), and lie in Z[s] otherwise.
    """
    if N > p.order:
        raise ValueError(f"truncation order {p.order} insufficient for N={N}")
    (A, den), (B, d_H) = _over_lcm(p.first.coeffs[:N + 1],
                                   p.second.coeffs[1:N + 1])
    cols = []
    for k in range(N + 1):
        cols.append([SPoly.ratio(x, den) for x in A])
        if k < N:
            A = [_sum_products(A[:j + 1], B[j::-1]) for j in range(N - k)]
            den *= d_H * (k + 1)
    return BivariateEGF([[cols[k][n - k] for k in range(n + 1)]
                         for n in range(N + 1)], N)


def sheffer_row(p: RiordanPair, n: int) -> list:
    """Row n of the array of a Sheffer pair [g, f] of order >= n + 1, as a
    trimmed coefficient list in t, with no group inversion.

    The array is that of the inverse [gbar, fbar], and with phi = w/f the
    Lagrange-Bürmann formula (Stanley, Enumerative Combinatorics 2, sec. 5.4)
    gives

        [z^n] gbar fbar^k = [w^(n-k)] f'(w) phi(w)^(n+1) / g(w),

    so entry k is n!/k! times that.  For n >= 1, f' phi^(n+1) =
    -(w^(n+1)/n) (f^(-n))' has coefficient m ((n-m)/n) c_m, c = (f/w)^(-n),
    and J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, sec. 4.7) gives c
    in one O(n^2) pass: one division by g finishes the row, with no
    reversion, no composition, no powering and no other row.
    """
    if n < 0:
        raise ValueError("row index must be >= 0")
    if p.order < n + 1:
        raise ValueError(f"truncation order {p.order} insufficient for row {n}")
    if n == 0:
        return [SPoly.const(1)]
    F = p.second.coeffs[1:n + 1]  # f/w
    jF = [j * x for j, x in enumerate(F)]
    # c/n, by k c_k = sum_(j=1..k) ((1-n) j - k) F_j c_(k-j), linear in c
    c = [F[0] / n]
    for k in range(1, n + 1):
        c.append(((1 - n) * dot(jF[1:k + 1], c[::-1])
                  - k * dot(F[1:k + 1], c[::-1])) / k)
    q = Series([(n - m) * x for m, x in enumerate(c)], n) / p.first.truncate(n)
    nf = factorial(n)
    return list(_tp_trim(q.coeffs[n - k] * (nf // factorial(k))
                         for k in range(n + 1)))


def array_coeffs(p: RiordanPair, N: int) -> Triangle:
    """The triangle (n!/k!) [z^n] d h^k of the array [d, h] through row N."""
    return pair_to_egf(p, N).to_triangle()


# ---------------------------------------------------------------------------
# Ladder (monomiality) operators.
# ---------------------------------------------------------------------------

def _apply_dseries(op: Series, poly: list) -> list:
    """Apply a D = d/dt series of order >= deg(poly) to a t-polynomial, exactly:
    entry i is the sum over k of op_k times entry i of D^k poly."""
    derivs, cur = [], list(poly)
    while cur:
        derivs.append(cur)
        cur = [i * cur[i] for i in range(1, len(cur))]
    ops = [op[k] for k in range(len(derivs))]
    return [dot(ops, [dk[i] for dk in derivs[:len(derivs) - i]])
            for i in range(len(derivs))] or [SPoly()]


def raising_series(p: RiordanPair, order: int) -> tuple:
    """The D-series (u, w) = (1/f', u g'/g) of a Sheffer pair [g, f],
    truncated at ``order``: its raising operator is M = t u(D) - w(D)."""
    g, f = p.first, p.second
    u = f.deriv().truncate(order).reciprocal()
    return u, u * (g.deriv().truncate(order) / g.truncate(order))


def ladder_apply(p: RiordanPair, which: str, poly) -> list:
    """Apply the lowering or raising operator of a Sheffer pair to a t-polynomial.

    ``poly`` is a coefficient list in t (ascending).  The D-series are
    truncated at d = degree(poly), which is exact: lowering reads f through
    D^d, so the pair needs order d, and raising reads 1/f' and g'/g through
    D^d, so it needs order d + 1.  Returns a trimmed coefficient list.
    """
    coeffs = list(_tp_trim(as_spoly(c) for c in poly))
    d = max(len(coeffs) - 1, 0)
    if which == "lowering":
        if p.order < d:
            raise ValueError("pair truncation order too small")
        return list(_tp_trim(_apply_dseries(p.second.truncate(d), coeffs)))
    if which == "raising":
        if p.order < d + 1:
            raise ValueError("pair truncation order too small")
        u, w = raising_series(p, d)
        down = _apply_dseries(w, coeffs) + [SPoly()]
        up = [SPoly()] + _apply_dseries(u, coeffs)
        return list(_tp_trim(a - b for a, b in zip(up, down)))
    raise ValueError("which must be 'lowering' or 'raising'")


# ---------------------------------------------------------------------------
# Catalog of classical Sheffer sequences.
# ---------------------------------------------------------------------------

#: Classical Sheffer sequences by name; each entry maps the variable z of
#: the wanted truncation order to the Sheffer pair (g, f).
#:
#: touchard  Bell/Touchard polynomials    R[1, e^z - 1]   = S[1, log(1+D)]
#: hermite   probabilists' Hermite He_n   R[e^(-z^2/2), z] = S[e^(D^2/2), D]
#: laguerre  n! L_n(-t)                   R[1/(1-z), z/(1-z)] = S[1/(1+D), D/(1+D)]
#: abel      A_n(t) = t (t - n)^(n-1)     S[1, D e^D]
CATALOG = {
    "touchard": lambda z: (Series.one(z.order), (1 + z).log()),
    "hermite": lambda z: ((z * z / 2).exp(), z),
    "laguerre": lambda z: ((1 + z).reciprocal(), z / (1 + z)),
    "abel": lambda z: (Series.one(z.order), z * z.exp()),
}


def catalog(name: str, N: int) -> RiordanPair:
    """The Sheffer pair [g, f] of the :data:`CATALOG` sequence ``name``."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog sequence {name!r}; "
                         f"available: {', '.join(CATALOG)}")
    return RiordanPair(*CATALOG[name](Series.variable(N)))
