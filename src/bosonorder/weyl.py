"""Single-mode boson algebra: words, ordered forms, and the conversion calculus.

The algebra has one annihilator a and one creator a-dagger with
[a, a-dagger] = 1.  Everything here is elementary and independent of the
series/array machinery -- this module is the brute-force side of every
cross-check in the package.

Ordering conventions and the sign of s
--------------------------------------
The s-ordered monomial interpolates between the three classical orders:

    s = -1  normal order       :x*^n x^m:_N = ad^n a^m
    s =  0  Weyl order         symmetrized average over all interleavings
    s = +1  anti-normal order  :x*^n x^m:_A = a^m ad^n

Beware: the opposite sign convention also circulates in the literature.
Here s = -1 is ALWAYS normal order; the CLI accepts the unambiguous names
"normal", "weyl", "antinormal" for exactly this reason.

The single conversion rule behind everything (with x* the classical symbol
of the creator, x of the annihilator):

    :x*^n x^m:_s = sum_k k! C(n,k) C(m,k) ((s-s')/2)^k  :x*^(n-k) x^(m-k):_s'

equivalently, symbols transport along orderings by the heat-type propagator
exp[((s'-s)/2) d^2/dx dx*], which on polynomials is a finite sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .scalars import SPoly, as_s, as_spoly, format_power, format_terms

ANNIHILATOR = "a"
CREATOR = "c"

#: Hard cap for the shuffle enumeration in weyl_quantize_monomial; the
#: number of interleavings C(n+m, n) grows too fast beyond this.
WEYL_SHUFFLE_CAP = 14


class Word:
    """A word in the letters a (annihilator) and c (creator).

    Words are written left to right in operator order, e.g. ``Word("cac")``
    is (a-dagger a a-dagger).  Strings may contain spaces for readability.
    ``letters`` is the validated string the rewriting oracle works on.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = "".join(letters).replace(" ", "")
        for ch in letters:
            if ch not in (ANNIHILATOR, CREATOR):
                raise ValueError(f"letters must be 'a' or 'c', got {ch!r}")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def power(self, n: int) -> "Word":
        if n < 0:
            raise ValueError("negative word power")
        return Word(self.letters * n)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return " ".join("a" if ch == ANNIHILATOR else "a†"
                        for ch in self.letters) or "1"

    def __repr__(self):
        return f"Word({self.letters!r})"


def _mono(sym_hi: str, sym_lo: str, p: int, q: int) -> str:
    """The monomial sym_hi^p sym_lo^q as text, "" when p = q = 0."""
    return " ".join(t for t in (format_power(sym_hi, p),
                                format_power(sym_lo, q)) if t)


class _Table:
    """Shared machinery for sparse coefficient tables keyed by integer pairs.

    ``_symbols`` names the two factors of the monomial keyed (p, q) when a
    table is printed.
    """

    __slots__ = ("table",)

    def __init__(self, items=()):
        tab = {}
        src = items.items() if isinstance(items, dict) else items
        for key, c in src:
            n, m = key
            if n < 0 or m < 0:
                raise ValueError(f"negative exponent in key {key}")
            c = as_spoly(c)
            if key in tab:
                c = tab[key] + c
            if c.is_zero():
                tab.pop(key, None)
            else:
                tab[key] = c
        object.__setattr__(self, "table", tab)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def coeff(self, n: int, m: int) -> SPoly:
        return self.table.get((n, m), SPoly())

    def items(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        return type(self)([*self.table.items(), *other.table.items()])

    def scale(self, c):
        c = as_spoly(c)
        return type(self)((k, c * v) for k, v in self.table.items())

    def __str__(self):
        hi, lo = self._symbols
        return format_terms((c, _mono(hi, lo, p, q))
                            for (p, q), c in self.items())

    __repr__ = __str__

    def to_json(self) -> list:
        """Sorted list of {"n":, "m":, "coeff":} records."""
        return [{"n": k[0], "m": k[1], "coeff": c.to_json()}
                for k, c in self.items()]

    @classmethod
    def monomial(cls, p: int, q: int, coeff=1):
        """The single term keyed (p, q)."""
        return cls((((p, q), coeff),))

    @classmethod
    def from_json(cls, data):
        return cls(((rec["n"], rec["m"]), SPoly.from_json(rec["coeff"]))
                   for rec in data)


class NormalForm(_Table):
    """Sum of normally ordered monomials ad^n a^m, keyed (n, m)."""

    _symbols = ("a†", "a")

    def __mul__(self, other):
        """Normally ordered product, by contracting a^m1 against ad^n2."""
        if not isinstance(other, NormalForm):
            return NotImplemented
        items = []
        for (n1, m1), c1 in self.table.items():
            for (n2, m2), c2 in other.table.items():
                c = c1 * c2
                for k in range(min(m1, n2) + 1):
                    w = _contract(m1, n2, k)
                    items.append(((n1 + n2 - k, m1 + m2 - k), w * c))
        return NormalForm(items)

    def symbol(self) -> "ClassicalPoly":
        """The normal-order symbol: keys carried over verbatim."""
        return ClassicalPoly(self.table.items())


class AntiNormalForm(_Table):
    """Sum of anti-normally ordered monomials a^m ad^n, keyed (m, n)."""

    _symbols = ("a", "a†")

    def to_normal(self) -> NormalForm:
        """Expand into normal order: a^m ad^n is the s = +1 quantization of
        the symbol x*^n x^m."""
        return s_quantize(ClassicalPoly(((n, m), c)
                                        for (m, n), c in self.table.items()), 1)


def _contract(m: int, n: int, k: int) -> int:
    """k! C(m,k) C(n,k): the number of ways to contract k pairs when moving
    a^m across ad^n."""
    return factorial(k) * comb(m, k) * comb(n, k)


class ClassicalPoly(_Table):
    """Polynomial in the commuting symbols x* and x, keyed (n, m) for x*^n x^m."""

    _symbols = ("x*", "x")

    def mixed_second(self) -> "ClassicalPoly":
        """d^2/dx dx* acting on the polynomial."""
        return ClassicalPoly((((n - 1, m - 1), (n * m) * c)
                              for (n, m), c in self.table.items()
                              if n >= 1 and m >= 1))

    def deriv_s(self) -> "ClassicalPoly":
        """Differentiate every coefficient with respect to s."""
        return ClassicalPoly(((k, c.deriv()) for k, c in self.table.items()))

    def eval_s(self, value) -> "ClassicalPoly":
        return ClassicalPoly(((k, SPoly.const(c.eval(value)))
                              for k, c in self.table.items()))

    def heat_propagate(self, delta) -> "ClassicalPoly":
        """Apply exp[delta d^2/dx dx*] -- a finite sum on polynomials.

        This is the engine of every change of ordering convention: moving a
        symbol from convention s' to s applies delta = (s' - s)/2.
        """
        delta = as_spoly(delta)
        items = []
        for (n, m), c in self.table.items():
            dk = as_spoly(1)
            for k in range(min(n, m) + 1):
                items.append(((n - k, m - k), _contract(m, n, k) * dk * c))
                dk = dk * delta
        return ClassicalPoly(items)

    def total_degree(self) -> int:
        """Largest n + m over the support; -1 for the zero polynomial."""
        return max((n + m for (n, m) in self.table), default=-1)


# ---------------------------------------------------------------------------
# Word rewriting: the brute-force ordering oracles.
# ---------------------------------------------------------------------------

def normal_order(word: Word) -> NormalForm:
    """Normal-order a word by repeated leftmost  a c -> c a + 1  rewriting.

    The word is one string, split once at its leftmost pair "ac" by
    ``str.partition``.  The rewriting system is confluent, so the reduction
    order cannot change the answer; leftmost-first merely makes runs
    deterministic.  Identical intermediate words are merged within a pass
    only: a word reached again in a later pass is rewritten again.
    """
    done = _rewrite(word.letters, ANNIHILATOR, CREATOR, 1)
    return NormalForm((((w.count(CREATOR), w.count(ANNIHILATOR)), c)
                       for w, c in done.items()))


def anti_normal_order(word: Word) -> AntiNormalForm:
    """Anti-normal-order a word by repeated leftmost  c a -> a c - 1  rewriting."""
    done = _rewrite(word.letters, CREATOR, ANNIHILATOR, -1)
    return AntiNormalForm((((w.count(ANNIHILATOR), w.count(CREATOR)), c)
                           for w, c in done.items()))


def _rewrite(word: str, first: str, second: str, sign: int) -> dict:
    """Rewrite  first second -> second first + sign  at the leftmost pair
    until none is left; returns {reduced word as a str: integer coefficient}.

    Words are strings: ``str.partition`` splits a word once into the part
    before its leftmost pair, the pair, and the part after it, and the
    swapped and the contracted successor are joined from those parts.  Each
    pass rewrites every pending word once and merges equal successors; the
    passes visit words in insertion order, which is deterministic, and the
    result does not depend on it.

    No merged coefficient is ever zero, so no pass filters zeros out: every
    path from ``word`` to a word w contracts (len(word) - len(w)) / 2 pairs,
    so the coefficient of w is sign to that power times a count of paths.
    """
    pair = first + second
    swap = second + first
    pending = {word: 1}
    done: dict[str, int] = {}
    while pending:
        nxt: dict[str, int] = {}
        get = nxt.get
        for w, coef in pending.items():
            head, sep, tail = w.partition(pair)
            if not sep:
                done[w] = done.get(w, 0) + coef
                continue
            swapped = f"{head}{swap}{tail}"
            contracted = head + tail
            nxt[swapped] = get(swapped, 0) + coef
            nxt[contracted] = get(contracted, 0) + sign * coef
        pending = nxt
    return done


def weyl_quantize_monomial(n: int, m: int) -> NormalForm:
    """Weyl (symmetric) quantization of x*^n x^m by brute-force enumeration.

    Averages all C(n+m, n) interleavings of n creators and m annihilators
    and normal-orders each one.  This is deliberately the slow, obviously
    correct definition; it exists as an independent oracle for the s = 0
    point of the conversion calculus.
    """
    if n < 0 or m < 0:
        raise ValueError("exponents must be nonnegative")
    if n + m > WEYL_SHUFFLE_CAP:
        raise ValueError(
            f"shuffle enumeration capped at n+m <= {WEYL_SHUFFLE_CAP}")
    total = NormalForm()
    for positions in combinations(range(n + m), n):
        letters = [ANNIHILATOR] * (n + m)
        for p in positions:
            letters[p] = CREATOR
        total = total + normal_order(Word(letters))
    return total.scale(Fraction(1, comb(n + m, n)))


# ---------------------------------------------------------------------------
# The conversion calculus between ordering conventions.
# ---------------------------------------------------------------------------

def s_quantize(f: ClassicalPoly, s) -> NormalForm:
    """The s-ordered operator :f:_s, returned in normal form: the symbol
    is moved to normal order (s' = -1) by :func:`convert_order`, then read
    off as ad^n a^m monomials.
    """
    return NormalForm(convert_order(f, s, -1).table.items())


def s_transform(g: NormalForm, s) -> ClassicalPoly:
    """The s-order symbol of an operator given in normal form.

    Inverse of :func:`s_quantize`: the normal-order symbol (s' = -1) is
    moved to the requested s by :func:`convert_order`.
    """
    return convert_order(g.symbol(), -1, s)


def convert_order(f: ClassicalPoly, s_from, s_to) -> ClassicalPoly:
    """Transport a symbol from convention s_from to convention s_to: the
    heat propagator with delta = (s_from - s_to)/2, the one place in the
    package that writes the ordering shift.

    Composition law: going s -> s' -> s'' equals going s -> s'' directly,
    because the propagators commute and their deltas add.
    """
    s_from = as_s(s_from)
    s_to = as_s(s_to)
    return f.heat_propagate((s_from - s_to) / 2)
