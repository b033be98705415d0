"""Truncated formal power series over Q[s], with exact arithmetic.

A :class:`Series` carries its truncation order N explicitly and stores
coefficients for z^0 .. z^N.  Binary operations return the minimum of the
operand orders, so a result is never silently pretended to more precision
than its inputs support.  All operations are exact: no floats anywhere.

The operations are the standard formal ones -- Cauchy product, composition,
compositional reversion, exp/log and rational powers f^q = exp(q log f) for
series with constant term 1.  At truncation order N each costs O(N^2)
coefficient operations or fewer, except composition and reversion, which
cost O(N^3).  A product has one loop for every s: each factor is put over
the lcm of its denominators once, and each coefficient is one sum of
products of numerators, reduced to lowest terms by one gcd, not once per
term; the numerators are integers over Q and integer coefficient lists of
polynomials in Z[s] otherwise.  Exp, log and a reciprocal over Q[s] read
each coefficient from one :func:`~bosonorder.scalars.dot`; a reciprocal over
Q takes an integer lane, 1/f = d/(sum_k A_k z^k) with d the lcm of f's
denominators, by a triangular solve on the integers A_k.  Reversion has one
loop for every s: z/f is put over the lcm d of its denominators once,
z/f = P/d, and step n reads the numerators [z^k] P^n, k < n, over d^n from
Miller's power recurrence (:func:`~bosonorder.scalars._miller_power`), with
one reduction per coefficient read off.
Composition is Horner's rule with truncated steps: the partial sum that has
just taken f_k is later multiplied by inner^k, so it is carried only to order
N - k.  Reversion is Lagrange inversion, g_n = (1/n) [z^(n-1)] (z/f)^n
(Brent & Kung, J. ACM 25, 1978): one reciprocal for z/f and, for each n,
the first n coefficients of (z/f)^n, with no composition; the same powers
give an outer series composed with the inverse, u(g), by the
Lagrange-Bürmann formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .scalars import (SPoly, _miller_power, _over_lcm, _rational,
                      _sum_products, as_spoly, dot, format_power,
                      format_terms)


@dataclass(frozen=True, slots=True)
class Series:
    """Formal power series in one variable, truncated at an explicit order.

    >>> z = Series.variable(4)
    >>> print((1 + z).pow_rational(Fraction(1, 2)))
    1 + 1/2*z - 1/8*z^2 + 1/16*z^3 - 5/128*z^4 + O(z^5)
    """

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [c if type(c) is SPoly else as_spoly(c) for c in self.coeffs]
        del cs[self.order + 1:]
        if len(cs) <= self.order:
            cs += [SPoly()] * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Series":
        return Series((), order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series((1,), order)

    @staticmethod
    def variable(order: int) -> "Series":
        """The series z."""
        return Series((0, 1), order)

    # -- queries ---------------------------------------------------------

    def __getitem__(self, n: int) -> SPoly:
        if n < 0:
            raise IndexError(n)
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                f"cannot extend truncation order {self.order} to {order}"
            )
        return Series(self.coeffs, order)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _scalar(x):
        if isinstance(x, (int, Fraction, SPoly)):
            return as_spoly(x)
        return None

    def __add__(self, other):
        sc = Series._scalar(other)
        if sc is not None:
            cs = list(self.coeffs)
            cs[0] = cs[0] + sc
            return Series(cs, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series((self.coeffs[k] + other.coeffs[k] for k in range(n + 1)), n)

    __radd__ = __add__

    def __neg__(self):
        return Series((-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        sc = Series._scalar(other)
        if sc is not None:
            return self + (-sc)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        sc = Series._scalar(other)
        if sc is not None:
            return Series((sc * c for c in self.coeffs), self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        (a, da), (b, db) = _over_lcm(self.coeffs[:n + 1], other.coeffs[:n + 1])
        d = da * db
        return Series([SPoly.ratio(_sum_products(a[:k + 1], b[k::-1]), d)
                       for k in range(n + 1)], n)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative integer power; use reciprocal")
        out, base = None, self  # out starts at the lowest set bit's power
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Series.one(self.order) if out is None else out

    def reciprocal(self) -> "Series":
        """1/f for f with invertible (nonzero rational) constant term.

        When every coefficient is a constant (a reciprocal over Q), f is put
        over the lcm d of its denominators once, f = (1/d) sum_k A_k z^k
        with integers A_k, and 1/f has coefficient n = d C_n / A_0^(n+1)
        with C_0 = 1 and C_n = -sum_(k>=1) A_k A_0^(k-1) C_(n-k): one integer
        sum of products per coefficient, reduced by one gcd.  Otherwise
        coefficient n is one :func:`~bosonorder.scalars.dot`,
        -(1/f_0) sum_(k>=1) f_k (1/f)_(n-k).

        >>> print((3 - Series.variable(3)).reciprocal())
        1/3 + 1/9*z + 1/27*z^2 + 1/81*z^3 + O(z^4)
        """
        cs = self.coeffs
        if not cs[0].is_rational() or cs[0].is_zero():
            raise ValueError(
                f"constant term {cs[0]} is not invertible; cannot take reciprocal"
            )
        if all(c.is_rational() for c in cs):
            [(a, d)] = _over_lcm(cs)
            a0 = a[0]
            # b_k = A_(k+1) A_0^k, and each C_n is one sum against C reversed
            b, p = [], 1
            for x in a[1:]:
                b.append(x * p)
                p *= a0
            C = [1]
            for n in range(1, self.order + 1):
                C.append(-sum(map(mul, b, reversed(C))))
            # d C_n / A_0^(n+1), the sign of A_0^(n+1) moved to the numerator
            sign = -1 if a0 < 0 else 1
            num, den, out = d * sign, abs(a0), []
            for cn in C:
                out.append(SPoly.ratio(num * cn, den))
                num *= sign
                den *= abs(a0)
            return Series(out, self.order)
        inv0 = 1 / cs[0].as_rational()
        out = [SPoly.const(inv0)]
        for n in range(1, self.order + 1):
            out.append(-inv0 * dot(cs[1:n + 1], out[::-1]))
        return Series(out, self.order)

    def __truediv__(self, other):
        sc = Series._scalar(other)
        if sc is not None:
            inv = 1 / sc.as_rational()
            return Series((c * inv for c in self.coeffs), self.order)
        if not isinstance(other, Series):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        sc = Series._scalar(other)
        if sc is None:
            return NotImplemented
        return self.reciprocal() * sc

    # -- composition and reversion --------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner), requiring inner to have zero constant term.

        Horner's rule, out = (...(f_n inner + f_(n-1)) inner + ...) + f_0, at
        order n = min of the two orders.  The partial sum that has just taken
        f_k is later multiplied by inner^k, whose lowest term is z^k, so it is
        needed only through z^(n-k): step k multiplies at order n - k, and
        the whole composition costs O(n^3).

        >>> z = Series.variable(4)
        >>> print((z + z * z).compose(z - z * z))
        z - 2*z^3 + z^4 + O(z^5)
        """
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition requires zero constant term in the inner series")
        n = min(self.order, inner.order)
        out = Series.zero(0)
        for k in range(n, -1, -1):
            m = n - k
            # pad to order m first: a product takes the smaller order
            out = Series(out.coeffs, m) * inner.truncate(m) + self.coeffs[k]
        return out

    def revert(self, outer=None):
        """Compositional inverse g with g(self(z)) = self(g(z)) = z, and with
        ``outer`` = u given, the pair (g, u o g) from the same pass.

        Requires zero constant term and an invertible linear coefficient,
        a rational unit c = f_1.  Lagrange inversion: with phi = z/f, whose
        constant term is 1/c, g_n = (1/n) [z^(n-1)] phi^n.  phi is one
        reciprocal at order N - 1, and step n needs phi^n only through
        z^(n-1), so reversion costs sum_n O(n^2) = O(N^3) coefficient
        products and no composition.  The Lagrange-Bürmann formula
        (Stanley, EC2, sec. 5.4) reads u o g off the same powers,
        [z^n] u(g) = (1/n) [z^(n-1)] u' phi^n for n >= 1, at the order
        min(N, u.order).

        phi = P/d_phi and u' = D/d_u go over the lcms of their denominators
        once, and step n takes the numerators [z^k] P^n, k < n, from
        Miller's recurrence, :func:`~bosonorder.scalars._miller_power` with
        alpha = n: one exact division per coefficient and no gcd.  Then
        g_n = P^n_(n-1)/(n d_phi^n), and [z^n] u(g) is one sum of products
        of D with P^n over n d_phi^n d_u, each reduced once.  The numerators
        are integers when every coefficient of phi and u' is a constant
        (every call at numeric s), and integer coefficient lists of
        polynomials in Z[s] otherwise.

        >>> z = Series.variable(4)
        >>> print((1 + z).log().revert())
        z + 1/2*z^2 + 1/6*z^3 + 1/24*z^4 + O(z^5)
        >>> print((z - z * z).revert(1 + z)[1])
        1 + z + z^2 + 2*z^3 + 5*z^4 + O(z^5)
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("reversion requires zero constant term")
        if self.order < 1:
            raise ValueError("reversion needs truncation order >= 1")
        c1 = self.coeffs[1]
        if not c1.is_rational() or c1.is_zero():
            raise ValueError(f"linear coefficient {c1} is not invertible")
        N = self.order
        phi = Series(self.coeffs[1:], N - 1).reciprocal()
        u = Series.zero(0) if outer is None else outer  # order 0: no sums
        m = min(N, u.order)
        (P, d_phi), (U, d_u) = _over_lcm(phi.coeffs, u.coeffs[1:m + 1])
        D = [k * x if type(x) is int else [k * c for c in x]
             for k, x in enumerate(U, 1)]
        g, ug = [SPoly()], [u.coeffs[0]]
        den = 1
        for n in range(1, N + 1):
            power = _miller_power(P[:n], n)  # [z^k] P^n for k < n
            den *= d_phi
            g.append(SPoly.ratio(power[n - 1], n * den))
            if n <= m:
                ug.append(SPoly.ratio(_sum_products(D, power[::-1]),
                                      n * den * d_u))
        g = Series(g, N)
        return g if outer is None else (g, Series(ug, m))

    # -- exp, log, rational powers --------------------------------------

    def exp(self) -> "Series":
        """exp(f) for f with zero constant term."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires zero constant term")
        ku = [k * u for k, u in enumerate(self.coeffs)]
        out = [SPoly.const(1)]
        for n in range(1, self.order + 1):
            out.append(dot(ku[1:n + 1], out[::-1]) / n)
        return Series(out, self.order)

    def log(self) -> "Series":
        """log(f) for f with constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        f = self.coeffs
        out, kout = [SPoly()], [SPoly()]
        for n in range(1, self.order + 1):
            out.append(f[n] - dot(kout[1:], f[n - 1:0:-1]) / n)
            kout.append(n * out[n])
        return Series(out, self.order)

    def pow_rational(self, q) -> "Series":
        """f^q = exp(q log f) for an int or Fraction q (anything else, a
        float included, raises TypeError); requires constant term 1."""
        q = _rational(q)
        if self.coeffs[0] != 1:
            raise ValueError("pow_rational requires constant term 1")
        return (self.log() * q).exp()

    def deriv(self) -> "Series":
        """d/dz; the result order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return Series(((n + 1) * self.coeffs[n + 1] for n in range(self.order)),
                      self.order - 1)

    # -- evaluation of s -------------------------------------------------

    def eval_s(self, value) -> "Series":
        """Evaluate every coefficient at a rational s."""
        return Series((SPoly.const(c.eval(value)) for c in self.coeffs), self.order)

    # -- comparisons, display, serialization ----------------------------

    def __str__(self):
        body = format_terms((c, format_power("z", n))
                            for n, c in enumerate(self.coeffs))
        return f"{body} + O(z^{self.order + 1})"

    def __repr__(self):
        return f"Series({self})"

    def to_json(self) -> dict:
        return {"trunc_order": self.order,
                "coeffs": [c.to_json() for c in self.coeffs]}
