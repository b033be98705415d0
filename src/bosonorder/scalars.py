"""Exact scalars: rationals and dense polynomials in the ordering parameter s.

Every coefficient in this package lives in Q[s], the ring of polynomials in a
single formal parameter s with rational coefficients.  The parameter s labels
the operator-ordering convention:

    s = -1  normal order        (creators to the left)
    s =  0  Weyl (symmetric) order
    s = +1  anti-normal order   (annihilators to the left)

Keeping s symbolic by default means one computation covers the whole family;
a numeric choice of s gives the symbolic result evaluated at s.  The
closed-route kernels -- the product and reversion in ``series`` and the
array column loop and Sheffer row in ``riordan`` -- each run one loop on
numerators over one known denominator (:func:`_over_lcm`,
:func:`_sum_products`, and :func:`_miller_power` for the powers of a
series that reversion and the Sheffer row read): integers when every
coefficient is a constant (at numeric s), and otherwise plain integer
coefficient lists of polynomials in Z[s], ascending in s.  The
Sheffer pair ``two_point.two_point_pair`` picks its ring from s the same
way, with the three operations its loop needs in that ring -- a
three-term recurrence step, the mix of the two halves of g and the f
factor.  None of them builds an SPoly until each coefficient is reduced
once, by :meth:`SPoly.ratio` or :func:`_canonical`; ``ratio`` builds a
constant from an int numerator directly, with one gcd.  A kernel whose
denominator grows from step to step, the array column loop, divides the
content out of its numerators after each step with
:func:`_remove_content`, so its integers stay the size of the reduced
entries.  The reciprocal in
``series`` keeps an integer lane beside its Q[s] one, which is faster over
Q[s].  The data picks the ring, never an option.  The Hsu-Shiue and two-point
kernels read a family's rational parameters as integers over their lcm,
:func:`_rationals_over_lcm`.

Rationals are ``fractions.Fraction`` throughout (exact, lowest terms,
positive denominator).  Serialized rationals are strings "p/q" or "p".

An :class:`SPoly` stores integer numerators over one positive common
denominator, in canonical form (trimmed, no common factor, zero as
``([], 1)``), and does its ring arithmetic on those integers with the
common-denominator method of Knuth, TAOCP Vol. 2, section 4.5.1:

- a/da + b/db = (a*fa + b*fb) / (da*fa) with g = gcd(da, db), fa = db/g and
  fb = da/g; a common factor of the sum divides g, so only g is searched;
- (a/da)(b/db) first cancels gcd(content(a), db) and gcd(da, content(b)),
  then convolves the integer lists; by Gauss's lemma no factor is left;
- a sum of products, :func:`dot`, adds each convolution into one integer
  accumulator over a running common denominator and removes the content
  once, at the end: one reduction per sum, not one per term.  A product of
  two constants (the only kind at numeric s) skips the convolution and is
  added into the s^0 entry as one integer.

The gcd searches are loops that stop as soon as they reach 1, and no
Fraction is built per coefficient.  The lowest-terms ``Fraction``
coefficients are derived only for output and evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or a decimal like "1.5" into a Fraction; interior
    whitespace is allowed.

    >>> parse_rational("-3/4")
    Fraction(-3, 4)

    Exponent notation ("1e3") raises ValueError, since ``Fraction`` would
    spend minutes expanding a large exponent; so do a digit separator
    ("1_0") and a zero denominator.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    if "_" in text:  # Fraction reads "1_0" from Python 3.11 on, not on 3.10
        raise ValueError(f"digit separator in {text!r}")
    try:
        return Fraction(text.replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(q) -> str:
    """Render an int or a Fraction as "p/q", or "p" when the denominator is
    1; anything else, a float included, raises TypeError."""
    q = _rational(q)
    return _ratio_text(q.numerator, q.denominator)


def _ratio_text(n: int, d: int) -> str:
    """The reduced ratio n/d (d > 0) as "n/d", or "n" when d is 1."""
    return str(n) if d == 1 else f"{n}/{d}"


def format_power(sym: str, k: int) -> str:
    """The monomial sym^k as text: "" for k = 0, sym for k = 1."""
    if k == 0:
        return ""
    return sym if k == 1 else f"{sym}^{k}"


def format_terms(terms) -> str:
    """Render a sum of (coefficient, monomial text) terms, as every
    polynomial, series and coefficient table in the package prints.

    Coefficients are rationals or SPolys; a zero one is left out and one
    with s in it is parenthesized.  A coefficient of 1 or -1 is elided
    before a nonempty monomial, "+ -" reads "- ", and the empty sum is "0".

    >>> format_terms([(Fraction(-1), "z"), (SPoly((0, 2)), "z^2")])
    '-z + (2*s)*z^2'
    """
    parts = []
    for c, mono in terms:
        if not c:
            continue
        if isinstance(c, SPoly) and c.is_rational():
            c = c.as_rational()
        txt = f"({c})" if isinstance(c, SPoly) else format_rational(c)
        if not mono:
            parts.append(txt)
        elif txt == "1":
            parts.append(mono)
        elif txt == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{txt}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def falling_row(x, n: int, stride) -> list:
    """The generalized factorials (x | h)_m = x (x - h) ... (x - (m-1) h),
    m = 0 .. n, one step each: (x | h)_(m+1) = (x | h)_m (x - m h).  Every
    Sheffer coefficient of the Hsu-Shiue and two-point families is one
    (Hsu & Shiue, 1998).  Stride 0 gives x**m.  The row stays in the ring
    of x and h (ints, Fractions or SPolys); entry 0 is x**0."""
    out = [x ** 0]
    for _ in range(n):
        out.append(out[-1] * x)
        x = x - stride
    return out


class SPoly:
    """Dense polynomial in s over Q, trimmed, immutable.

    Coefficients are ascending:  SPoly([1, 0, -2])  is  1 - 2*s**2.
    Arithmetic coerces ints and Fractions, so degree-0 polynomials behave
    as plain rationals.

    Storage is a list of integer numerators over one positive common
    denominator, in canonical form: the last numerator is nonzero, the
    content gcd(den, *num) is 1, and zero is ``([], 1)``.  Equal
    polynomials therefore store equal data.  ``+``, ``-``, ``*``,
    negation, :meth:`deriv` and division by a rational run on these ints
    (see the module docstring) and build no ``Fraction`` per coefficient.
    The constructor, :meth:`const`, ``/`` and :meth:`eval` take ints and
    Fractions only (``/`` also a constant SPoly) and raise TypeError on
    anything else, so no float's binary expansion becomes a coefficient.

    ``coeffs`` is derived on each read: a tuple of lowest-terms ``Fraction``
    values (exact type) with a nonzero last entry.  ``str``,
    :meth:`to_json`, :meth:`eval` and the hash of a non-constant
    polynomial read it, so none of them sees the storage.  Not a dataclass:
    ``_canonical`` fills the slots of every hot-path result without
    ``__init__``, so the guard is written out.

    >>> s = SPoly.s()
    >>> print((1 + s) * (1 - s))
    1 - s^2
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        fs = [c if type(c) is Fraction else _rational(c) for c in coeffs]
        den = 1
        for f in fs:
            if f.denominator != 1:
                den = lcm(den, f.denominator)
        num = [f.numerator * (den // f.denominator) for f in fs]
        while num and not num[-1]:
            num.pop()
        # No common factor to remove: for each prime p of den, some input
        # denominator holds den's full power of p, and that input's scaled
        # numerator is prime to p.
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("SPoly is immutable")

    @staticmethod
    def s() -> "SPoly":
        """The polynomial s itself."""
        return SPoly((0, 1))

    @staticmethod
    def const(q) -> "SPoly":
        return SPoly((q,))

    @staticmethod
    def ratio(n, d: int) -> "SPoly":
        """n/d for an integer d > 0 and a numerator n in Z[s] from
        :func:`_over_lcm` or :func:`_sum_products` -- an int or an integer
        coefficient list, ascending in s -- reduced by one gcd.  An int
        builds the canonical constant directly: one ``gcd`` and two exact
        divisions, zero as ``([], 1)``.  A list goes through
        :func:`_canonical` as a copy, so the SPoly shares no storage with a
        numerator that a kernel still reads.

        >>> p = SPoly.ratio(-6, 20)
        >>> p._num, p._den, SPoly.ratio(0, 7)._den
        ([-3], 10, 1)
        """
        if type(n) is not int:
            return _canonical(n[:], d, d)
        p = _new(SPoly)
        if n:
            g = gcd(n, d)
            _set_num(p, [n // g])
            _set_den(p, d // g)
        else:
            _set_num(p, [])
            _set_den(p, 1)
        return p

    # -- queries ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients as lowest-terms Fractions, trimmed."""
        den = self._den
        return tuple([Fraction(n, den) for n in self._num])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return len(self._num) <= 1

    def as_rational(self) -> Fraction:
        """The value of a degree <= 0 polynomial; error if s actually occurs."""
        num = self._num
        if len(num) > 1:
            raise ValueError(f"not a rational: {self}")
        return Fraction(num[0], self._den) if num else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        num = self._num
        return Fraction(num[k], self._den) if 0 <= k < len(num) else Fraction(0)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, SPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return _canonical([x.numerator], x.denominator, 1)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not SPoly:
            other = SPoly._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, da = self._num, self._den
        b, db = other._num, other._den
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        # a/da + b/db = (a*fa + b*fb) / (da*fa) with fa = db/g, fb = da/g,
        # g = gcd(da, db); the content of the sum divides g (Knuth 4.5.1).
        if da == db:
            g = da
            out = [x + y for x, y in zip(a, b)]
            out += a[len(b):]
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = [x * fa + y * fb for x, y in zip(a, b)]
            out += [x * fa for x in a[len(b):]]
            da *= fa
        return _canonical(out, da, g)

    __radd__ = __add__

    def __neg__(self):
        return _canonical([-x for x in self._num], self._den, 1)

    def __sub__(self, other):
        if type(other) is not SPoly:
            other = SPoly._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, da = self._num, self._den
        b, db = other._num, other._den
        # as in __add__, with b negated; no swap, so either tail may remain
        if da == db:
            g, fa, fb = da, 1, 1
            out = [x - y for x, y in zip(a, b)]
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = [x * fa - y * fb for x, y in zip(a, b)]
            da *= fa
        if len(a) > len(b):
            out += [x * fa for x in a[len(b):]]
        else:
            out += [-y * fb for y in b[len(a):]]
        return _canonical(out, da, g)

    def __rsub__(self, other):
        other = SPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not SPoly:
            other = SPoly._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, da = self._num, self._den
        b, db = other._num, other._den
        if not a or not b:
            return _canonical([], 1, 1)
        # (a/da)(b/db): cancel gcd(content(a), db) and gcd(content(b), da)
        # first; what is left has content 1 by Gauss's lemma.
        ga = _gcd_into(db, a)
        if ga != 1:
            a = [x // ga for x in a]
            db //= ga
        gb = _gcd_into(da, b)
        if gb != 1:
            b = [y // gb for y in b]
            da //= gb
        if len(a) == 1 == len(b):
            return _canonical([a[0] * b[0]], da * db, 1)
        out = [0] * (len(a) + len(b) - 1)
        _mac(out, a, b)
        return _canonical(out, da * db, 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational (or degree-0 SPoly) scalar."""
        if isinstance(other, SPoly):
            other = other.as_rational()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, d = other.numerator, other.denominator
        if not n:
            raise ZeroDivisionError("division of SPoly by zero")
        if n < 0:
            n, d = -n, -d
        den = self._den * n
        return _canonical([x * d for x in self._num], den, den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of SPoly")
        out = SPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    # -- calculus and evaluation ----------------------------------------

    def deriv(self) -> "SPoly":
        """d/ds."""
        num, den = self._num, self._den
        return _canonical([k * num[k] for k in range(1, len(num))], den, den)

    def eval(self, value) -> Fraction:
        """Evaluate at a rational value of s (Horner)."""
        value = _rational(value)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    # -- comparisons, hashing, display ----------------------------------

    def __eq__(self, other):
        if type(other) is not SPoly:
            other = SPoly._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if len(self._num) <= 1:
            return hash(self.as_rational())
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self._num)

    def __str__(self):
        return format_terms((c, format_power("s", k))
                            for k, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"SPoly({self})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list:
        """List of rational strings, ascending s-power, trimmed: each
        numerator over the stored denominator, reduced by one gcd.  A
        constant's one numerator is already prime to the denominator (the
        content is 1), so it is printed without a gcd."""
        num, den = self._num, self._den
        if len(num) <= 1:
            return [_ratio_text(num[0], den)] if num else []
        return [_ratio_text(n // g, den // g)
                for n in num for g in (gcd(n, den),)]

    @staticmethod
    def from_json(data) -> "SPoly":
        return SPoly(parse_rational(c) for c in data)


def _rational(x):
    """x itself if it is an int or a Fraction, else TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"{x!r} is not an int or a Fraction")


_new = object.__new__
_set_num = SPoly._num.__set__
_set_den = SPoly._den.__set__


def _gcd_into(g: int, num: list) -> int:
    """gcd(g, *num) by a loop that stops at 1; builds no argument tuple."""
    for n in num:
        if g == 1:
            break
        g = gcd(g, n)
    return g


def _mac(acc: list, a: list, b: list) -> None:
    """acc += a*b on integer lists by schoolbook convolution, a scalar
    multiply when one side has one entry; acc must be long enough.  The
    outer loop runs over the shorter side, so the longer one is the inner
    loop and a zero entry of the shorter one skips a whole pass."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        for i, x in enumerate(a):
            acc[i] += x * c
    else:
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    acc[i] += x * y


def dot(xs, ys) -> SPoly:
    """The sum of x*y over paired SPolys, reduced once: each product of
    numerators is added into one integer accumulator over a running common
    denominator D (a product over d first brings D to lcm(D, d)), and the
    content is removed at the end, giving the canonical SPoly of the sum.
    A product of two constants is one integer, added into a separate s^0
    total with no list and no convolution, so a sum over Q never convolves.

    >>> print(dot([SPoly((1, 1)), SPoly.const(Fraction(1, 2))],
    ...           [SPoly((0, 1)), SPoly.const(Fraction(2, 3))]))
    1/3 + s + s^2
    >>> print(dot([SPoly.const(Fraction(1, 2)), SPoly.const(3)],
    ...           [SPoly.const(Fraction(1, 3)), SPoly.const(Fraction(-1, 4))]))
    -7/12
    """
    acc, c0, D = [], 0, 1
    for x, y in zip(xs, ys):
        a, b = x._num, y._num
        if not a or not b:
            continue
        d = x._den * y._den
        f = 1
        if d != D:
            g = gcd(D, d)
            if g != d:
                e = d // g
                if acc:
                    acc = [n * e for n in acc]
                c0 *= e
                D *= e
            f = D // d
        if len(a) == 1 == len(b):
            c0 += a[0] * b[0] * f
            continue
        if f != 1:
            a = [n * f for n in a]
        acc += [0] * (len(a) + len(b) - 1 - len(acc))
        _mac(acc, a, b)
    acc[:1] = [acc[0] + c0] if acc else [c0]
    return _canonical(acc, D, D)


def _over_lcm(*lists) -> list:
    """Each list of SPolys as numerators over the lcm of its denominators:
    one (numerators, lcm) per list.  The numerators are ints when every
    coefficient of every list is a constant, and integer coefficient lists
    of polynomials in Z[s] otherwise, so the lists that a kernel combines
    share one ring, picked from the data."""
    ints = all(len(c._num) <= 1 for cs in lists for c in cs)
    out = []
    for cs in lists:
        den = 1
        for c in cs:
            if c._den != 1:
                den = lcm(den, c._den)
        if ints:
            out.append(([c._num[0] * (den // c._den) if c._num else 0
                         for c in cs], den))
        else:
            out.append(([[n * (den // c._den) for n in c._num] for c in cs],
                        den))
    return out


def _rationals_over_lcm(*qs) -> tuple:
    """Fractions as integer numerators over the lcm L of their
    denominators: ([q L for q in qs], L)."""
    L = lcm(*(q.denominator for q in qs))
    return [q.numerator * (L // q.denominator) for q in qs], L


def _sum_products(xs, ys):
    """The sum of x*y over paired numerators from :func:`_over_lcm`, xs
    nonempty, in the same ring: one integer ``sum(map(mul, ...))`` on ints;
    on integer coefficient lists, every product added into one trimmed list
    by :func:`_mac`, with no gcd."""
    if type(xs[0]) is int:
        return sum(map(mul, xs, ys))
    acc = []
    for a, b in zip(xs, ys):
        if a and b:
            acc += [0] * (len(a) + len(b) - 1 - len(acc))
            _mac(acc, a, b)
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _remove_content(xs, den: int) -> tuple:
    """(xs/g, den/g) for numerators xs from :func:`_over_lcm` or
    :func:`_sum_products` over den, xs nonempty, in either ring: g =
    gcd(den, every numerator) by one sweep that stops at 1, then one
    exact division per numerator.

    >>> _remove_content([6, -4, 0], 10), _remove_content([[2, 4], []], 6)
    (([3, -2, 0], 5), ([[1, 2], []], 3))
    """
    if type(xs[0]) is int:
        g = _gcd_into(den, xs)
        if g != 1:
            xs = [x // g for x in xs]
    else:
        g = den
        for x in xs:
            if g == 1:
                break
            g = _gcd_into(g, x)
        if g != 1:
            xs = [[y // g for y in x] for x in xs]
    return xs, den // g


def _miller_power(A, alpha: int) -> list:
    """The first len(A) coefficients of A^alpha, for numerators A from
    :func:`_over_lcm` with a constant a = A_0 != 0 and any integer alpha,
    scaled to stay integral: R_k = [z^k] A^alpha for alpha >= 0, and
    R_k = a^(k - alpha) [z^k] A^alpha for alpha < 0.

    J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, sec. 4.7) reads
    A R' = alpha A' R coefficientwise, k a R_k = sum_(j=1..k)
    ((alpha+1) j - k) B_j R_(k-j), with B_j = A_j for alpha >= 0 and
    B_j = a^j A_j for alpha < 0: one exact division per coefficient.  On
    ints each sum is two ``sum(map(mul, ...))``; on integer coefficient
    lists, one :func:`_sum_products` of the weighted B_j.

    >>> _miller_power([1, 1, 0, 0], 3), _miller_power([2, 1, 0], -1)
    ([1, 3, 3, 1], [1, -1, 1])
    """
    c, scaled = alpha + 1, alpha < 0
    if type(A[0]) is int:
        a = A[0]
        B = [x * a ** j for j, x in enumerate(A)] if scaled else A
        B1 = B[1:]
        jB1 = [j * x for j, x in enumerate(B1, 1)]
        R = [1 if scaled else a ** alpha]
        for k in range(1, len(A)):
            R.append((c * sum(map(mul, jB1, reversed(R)))
                      - k * sum(map(mul, B1, reversed(R)))) // (k * a))
        return R
    a = A[0][0]
    B = [[y * a ** j for y in x] for j, x in enumerate(A)] if scaled else A
    R = [[1 if scaled else a ** alpha]]
    for k in range(1, len(A)):
        ka = k * a
        R.append([x // ka for x in _sum_products(
            [[(c * j - k) * y for y in B[j]] for j in range(1, k + 1)],
            R[::-1])])
    return R


def _canonical(num: list, den: int, g: int) -> SPoly:
    """The SPoly num/den, with num trimmed in place and the content removed.

    ``g`` is a multiple of every common factor of den and num that can occur
    (den itself always is; 1 says there is none).  num stays a list, so a
    result allocates no tuple.
    """
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif g != 1:
        g = _gcd_into(g, num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    p = _new(SPoly)
    _set_num(p, num)
    _set_den(p, den)
    return p


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

