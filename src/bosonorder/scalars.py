"""Exact scalars: rationals and dense polynomials in the ordering parameter s.

Every coefficient in this package lives in Q[s], the ring of polynomials in a
single formal parameter s with rational coefficients.  The parameter s labels
the operator-ordering convention:

    s = -1  normal order        (creators to the left)
    s =  0  Weyl (symmetric) order
    s = +1  anti-normal order   (annihilators to the left)

Keeping s symbolic by default means one computation covers the whole family;
a numeric choice of s is an evaluation, never a separate code path.

Rationals are ``fractions.Fraction`` throughout (exact, lowest terms,
positive denominator).  Serialized rationals are strings "p/q" or "p".

An :class:`SPoly` stores a trimmed tuple of lowest-terms Fractions, and its
product of two non-constant polynomials is computed on integers: each factor
is scaled to integer numerators over the lcm of its denominators, the two
integer lists are convolved, and each product coefficient is built once as
one Fraction over the product of the two lcms (the common-denominator
arithmetic of Knuth, TAOCP Vol. 2, sections 4.5.1 and 4.6).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; interior whitespace is allowed.

    >>> parse_rational("-3/4")
    Fraction(-3, 4)

    A zero denominator raises ValueError, like any other malformed text.
    """
    try:
        return Fraction(text.replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(q) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def falling(x, n: int, stride) -> Fraction:
    """Strided falling factorial x(x-h)(x-2h)...(x-(n-1)h) with stride h.

    The n = 0 product is 1.  With stride 1 this is the ordinary falling
    factorial; with stride 0 it is x**n.
    """
    x = Fraction(x)
    h = Fraction(stride)
    out = Fraction(1)
    for i in range(n):
        out *= x - i * h
    return out


class SPoly:
    """Dense polynomial in s over Q, trimmed, immutable.

    Coefficients are stored ascending:  SPoly([1, 0, -2])  is  1 - 2*s**2.
    Arithmetic coerces ints and Fractions, so degree-0 polynomials behave
    as plain rationals.

    ``coeffs`` is always a tuple of lowest-terms ``Fraction`` values (exact
    type, never a subclass or an int) with a nonzero last entry; equality,
    hashing and serialization read it directly.  The constructor passes
    Fractions through and coerces anything else with ``Fraction(c)``.
    A product of two non-constant polynomials is an integer convolution
    over the two lcm denominators (see the module docstring); a product
    with a constant factor multiplies the coefficients one by one.

    >>> s = SPoly.s()
    >>> print((1 + s) * (1 - s))
    1 - s^2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SPoly is immutable")

    @staticmethod
    def s() -> "SPoly":
        """The polynomial s itself."""
        return SPoly((0, 1))

    @staticmethod
    def const(q) -> "SPoly":
        return SPoly((Fraction(q),))

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def as_rational(self) -> Fraction:
        """The value of a degree <= 0 polynomial; error if s actually occurs."""
        if len(self.coeffs) > 1:
            raise ValueError(f"not a rational: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, SPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return SPoly((x,))
        return NotImplemented

    def __add__(self, other):
        other = SPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return SPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return SPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = SPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = SPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SPoly()
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return SPoly([x * c for x in a])
        da = lcm(*[x.denominator for x in a])
        db = lcm(*[y.denominator for y in b])
        nb = [y.numerator * (db // y.denominator) for y in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                x = x.numerator * (da // x.denominator)
                for j, y in enumerate(nb, i):
                    out[j] += x * y
        d = da * db
        return SPoly([Fraction(n, d) for n in out])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational (or degree-0 SPoly) scalar."""
        if isinstance(other, SPoly):
            other = other.as_rational()
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division of SPoly by zero")
        return SPoly(c / other for c in self.coeffs)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of SPoly")
        out = SPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def exact_div(self, divisor: "SPoly") -> "SPoly":
        """Exact polynomial division; raises if the remainder is nonzero.

        Needed when a closed form carries an overall factor like (1 - s)
        that cancels only after expansion.
        """
        divisor = SPoly._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact_div by zero polynomial")
        if divisor.is_rational():
            return self / divisor.as_rational()
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        qs = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            qs[i - dd] = q
            for j, d in enumerate(dc):
                rem[i - dd + j] -= q * d
        if any(rem):
            raise ValueError(f"{self} is not divisible by {divisor}")
        return SPoly(qs)

    # -- calculus and evaluation ----------------------------------------

    def deriv(self) -> "SPoly":
        """d/ds."""
        return SPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def eval(self, value) -> Fraction:
        """Evaluate at a rational value of s (Horner)."""
        value = Fraction(value)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    # -- comparisons, hashing, display ----------------------------------

    def __eq__(self, other):
        other = SPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = format_rational(c)
            else:
                mag = format_rational(abs(c)) + "*" if abs(c) != 1 else ""
                term = f"{mag}s" if k == 1 else f"{mag}s^{k}"
                if c < 0:
                    term = "-" + term
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"SPoly({self})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list:
        """List of rational strings, ascending s-power, trimmed."""
        return [format_rational(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "SPoly":
        return SPoly(parse_rational(c) for c in data)


#: The symbolic ordering parameter, for convenience.
S = SPoly.s()


def as_spoly(x) -> SPoly:
    """Coerce an int, Fraction, or SPoly to SPoly."""
    out = SPoly._coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as an SPoly")
    return out


def as_s(value) -> SPoly:
    """Coerce an ordering parameter: SPoly passes through, numbers become
    constants, and the strings "normal"/"weyl"/"antinormal"/"symbolic" are
    accepted as unambiguous aliases (s = -1, 0, +1, and the symbol s)."""
    if isinstance(value, str):
        named = {"normal": SPoly.const(-1), "weyl": SPoly.const(0),
                 "antinormal": SPoly.const(1), "symbolic": SPoly.s()}
        if value in named:
            return named[value]
        return SPoly.const(parse_rational(value))
    return as_spoly(value)


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
