"""The independent correctness gate, run after the timed phase.

Every output is compared with a route that shares no code with the one
that produced it:

* ``order``, ``power`` and ``two-point-egf`` (closed route, series and
  Riordan code): each lambda^n coefficient is s-quantized and compared with
  ``power_normal_form(w, n)/n!``, which uses only the Hsu-Shiue triangle
  recurrence;
* ``hs-egf`` (series route): compared entry by entry with
  ``hs_triangle_rec``; ``hs-triangle`` (recurrence, B != 0) with the finite
  sum ``hs_coeff_sum``;
* ``normal_order`` / ``anti_normal_order`` (rewriting): compared with the
  other rewriting direction through ``AntiNormalForm.to_normal``, and for a
  power of a single-annihilator word also with ``power_normal_form``;
* ``s_quantize`` / ``convert_order``: compared with the defining sum
  :x*^n x^m:_s = sum_k k! C(n,k) C(m,k) ((s+1)/2)^k ad^(n-k) a^(m-k),
  written out here, and at s = +1 also with the rewriting oracle on a^m ad^n.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

from bosonorder.hsu_shiue import HSParams, hs_coeff_sum, hs_triangle_rec
from bosonorder.ordering import SingleAnnihilatorWord, power_normal_form
from bosonorder.scalars import SPoly, as_s, parse_rational
from bosonorder.weyl import (ClassicalPoly, NormalForm, Word,
                             anti_normal_order, normal_order, s_quantize)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _expected_series_term(w, n):
    return power_normal_form(w, n).scale(Fraction(1, factorial(n)))


def _check_order(op, data) -> bool:
    w = SingleAnnihilatorWord(op.L, op.R)
    s = SPoly.from_json(data["s"])
    terms = data["terms"]
    if data["trunc_order"] != op.size or len(terms) != op.size + 1:
        return False
    return all(s_quantize(ClassicalPoly.from_json(t), s)
               == _expected_series_term(w, n) for n, t in enumerate(terms))


def _check_power(op, data) -> bool:
    w = SingleAnnihilatorWord(op.L, op.R)
    got = s_quantize(ClassicalPoly.from_json(data), as_s(op.s))
    return got == power_normal_form(w, op.size)


def _check_two_point(op, data) -> bool:
    w = SingleAnnihilatorWord(op.L, op.R)
    s, e = as_s(op.s), w.e
    rows = data["coeffs"]
    if data["trunc_order"] != op.size or len(rows) != op.size + 1:
        return False
    for n, row in enumerate(rows):
        sym = ClassicalPoly(((e * n + k, k), SPoly.from_json(c))
                            for k, c in enumerate(row))
        if s_quantize(sym, s) != _expected_series_term(w, n):
            return False
    return True


def _hs_params(argv) -> HSParams:
    return HSParams(*(parse_rational(_flag(argv, f)) for f in
                      ("--A", "--B", "--r")))


def _check_hs_egf(op, data) -> bool:
    tri = hs_triangle_rec(_hs_params(op.args), op.size)
    rows = data["coeffs"]
    if len(rows) != op.size + 1:
        return False
    for n, row in enumerate(rows):
        got = [factorial(n) * SPoly.from_json(c) for c in row]
        got += [SPoly()] * (n + 1 - len(got))
        if got != [tri.entry(n, k) for k in range(n + 1)]:
            return False
    return True


def _check_hs_triangle(op, data) -> bool:
    p = _hs_params(op.args)
    rows = data["rows"]
    if data["N"] != op.size or len(rows) != op.size + 1:
        return False
    return all(SPoly.from_json(c) == hs_coeff_sum(p, n, k)
               for n, row in enumerate(rows) for k, c in enumerate(row))


def _power_word(op):
    if op.L < 0:
        return None
    return SingleAnnihilatorWord(op.L, op.R)


def _check_normal_order(op, result) -> bool:
    word = Word(op.args[0])
    if anti_normal_order(word).to_normal() != result:
        return False
    w = _power_word(op)
    return w is None or result == power_normal_form(w, op.size)


def _check_anti_normal_order(op, result) -> bool:
    word = Word(op.args[0])
    if result.to_normal() != normal_order(word):
        return False
    w = _power_word(op)
    return w is None or result == power_normal_form(w, op.size, "antinormal")


def symbol_of(op) -> ClassicalPoly:
    """The op's input symbol, built from its plain-data terms."""
    return ClassicalPoly(((n, m), parse_rational(c))
                         for n, m, c in op.args[0])


def _quantize_by_definition(f: ClassicalPoly, s) -> NormalForm:
    """:f:_s in normal form by the defining contraction sum."""
    delta = (as_s(s) + 1) / 2
    items = []
    for (n, m), c in f.items():
        power = SPoly.const(1)
        for k in range(min(n, m) + 1):
            weight = factorial(k) * comb(n, k) * comb(m, k)
            items.append(((n - k, m - k), c * power * weight))
            power = power * delta
    return NormalForm(items)


def _quantize_antinormal_by_rewriting(f: ClassicalPoly) -> NormalForm:
    """:f:_A = sum c a^m ad^n, normal-ordered by the rewriting oracle."""
    total = NormalForm()
    for (n, m), c in f.items():
        total = total + normal_order(Word("a" * m + "c" * n)).scale(c)
    return total


def _check_s_quantize(op, result) -> bool:
    f = symbol_of(op)
    if result != _quantize_by_definition(f, op.s):
        return False
    if op.s == "antinormal":
        return result == _quantize_antinormal_by_rewriting(f)
    return True


def _check_convert_order(op, result) -> bool:
    return (_quantize_by_definition(result, op.s_to)
            == _quantize_by_definition(symbol_of(op), op.s))


_JSON_CHECKS = {
    "order": _check_order,
    "power": _check_power,
    "two-point-egf": _check_two_point,
    "hs-egf": _check_hs_egf,
    "hs-triangle": _check_hs_triangle,
}

_OBJECT_CHECKS = {
    "normal_order": _check_normal_order,
    "anti_normal_order": _check_anti_normal_order,
    "s_quantize": _check_s_quantize,
    "convert_order": _check_convert_order,
}


def output_ok(op, output) -> bool:
    """True when ``output`` (CLI text, or the oracle's return value) is the
    correct answer to ``op``.  A malformed output counts as wrong."""
    try:
        if op.kind in _JSON_CHECKS:
            return _JSON_CHECKS[op.kind](op, json.loads(output))
        return _OBJECT_CHECKS[op.kind](op, output)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False
