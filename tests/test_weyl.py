"""Word rewriting, the three table types, and conversion between orderings.

The rewriting functions are the package's ground truth, so they get the
densest checks: frozen hand-computed normal forms, the homomorphism law,
adjoint/anti-normal consistency on random words, the rook-number normal
form of every word, the string-word rewriting kernel against a slow
reference loop, and the sign of every coefficient that kernel returns.
The oracle's source imports no package module but the scalars.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bosonorder.ordering import SingleAnnihilatorWord, power_normal_form
from bosonorder.scalars import SPoly
from bosonorder.weyl import (ANNIHILATOR, CREATOR, AntiNormalForm,
                             ClassicalPoly, NormalForm, Word, _rewrite,
                             anti_normal_order, convert_order, normal_order,
                             s_quantize, s_transform, weyl_quantize_monomial)

S = SPoly.s()

word_st = st.text(alphabet="ac", max_size=6).map(Word)
s_st = st.fractions(min_value=-2, max_value=2, max_denominator=4)
key_st = st.tuples(st.integers(0, 4), st.integers(0, 4))
poly_st = st.dictionaries(key_st, s_st.filter(lambda q: q != 0),
                          max_size=4).map(ClassicalPoly)


def test_oracle_imports_only_the_scalars():
    # importing bosonorder.weyl loads the whole package, so sys.modules
    # cannot show this; the module's own import statements can
    import bosonorder.weyl as weyl
    tree = ast.parse(Path(weyl.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            package.update(n for n in names if n.split(".")[0] == "bosonorder")
    assert package == {".scalars"}


def test_word_parsing_and_display():
    w = Word("c a c")
    assert str(w) == "a† a a†"
    assert w.power(2) == Word("caccac")
    assert w.power(0) == Word("")
    with pytest.raises(ValueError):
        Word("cbq")


def test_frozen_normal_forms():
    # a ad = ad a + 1
    assert normal_order(Word("ac")) == NormalForm({(1, 1): 1, (0, 0): 1})
    # ad a ad = ad^2 a + ad
    assert normal_order(Word("cac")) == NormalForm({(2, 1): 1, (1, 0): 1})
    # a a ad ad = ad^2 a^2 + 4 ad a + 2
    assert normal_order(Word("aacc")) == NormalForm(
        {(2, 2): 1, (1, 1): 4, (0, 0): 2})
    assert normal_order(Word("")) == NormalForm.monomial(0, 0)


def test_frozen_anti_normal_forms():
    # ad ad a = a ad^2 - 2 ad
    assert anti_normal_order(Word("cca")) == AntiNormalForm(
        {(1, 2): 1, (0, 1): -2})
    # ad a = a ad - 1
    assert anti_normal_order(Word("ca")) == AntiNormalForm(
        {(1, 1): 1, (0, 0): -1})


@given(word_st, word_st)
def test_normal_order_is_multiplicative(w1, w2):
    assert normal_order(w1 * w2) == normal_order(w1) * normal_order(w2)


@given(word_st)
def test_adjoint_matches_reversed_word(w):
    flipped = Word("".join("a" if ch == "c" else "c" for ch in reversed(w.letters)))
    swapped = NormalForm(((m, n), c) for (n, m), c in normal_order(w).table.items())
    assert normal_order(flipped) == swapped


@given(word_st)
def test_anti_normal_consistent_with_normal(w):
    assert anti_normal_order(w).to_normal() == normal_order(w)


def _rook_normal_form(word: str) -> NormalForm:
    """Normal form of a word from the rook numbers of its Ferrers board
    (Navon 1973; Varvak 2005), sharing no code with the rewriting kernel.

    The board has one row per annihilator, whose length is the number of
    creators to its right.  Adding a row of length c to a board with rook
    numbers R_k (rows shortest first) gives R'_k = R_k + (c - k + 1) R_(k-1),
    and a word with U creators and D annihilators equals
    sum_k r_k ad^(U-k) a^(D-k).
    """
    rows, creators = [], 0
    for ch in reversed(word):
        if ch == CREATOR:
            creators += 1
        else:
            rows.append(creators)
    r = [1]
    for c in sorted(rows):
        r = [r[0]] + [(r[k] if k < len(r) else 0) + (c - k + 1) * r[k - 1]
                      for k in range(1, len(r) + 1)]
    U, D = word.count(CREATOR), word.count(ANNIHILATOR)
    return NormalForm(((U - k, D - k), rk) for k, rk in enumerate(r) if rk)


@settings(max_examples=300)
@given(st.text(alphabet="ac", max_size=18))
@example("")
@example("a" * 18)
@example("c" * 18)
@example("a" * 9 + "c" * 9)
def test_normal_order_matches_rook_numbers(letters):
    assert normal_order(Word(letters)) == _rook_normal_form(letters)


def _reference_rewrite(letters: tuple, first: str, second: str,
                       sign: int) -> dict:
    """Reference for _rewrite, the slow obvious loop: tuple words, a Python
    scan for the leftmost pair, and passes in sorted order."""
    pending = {letters: 1}
    done = {}
    while pending:
        nxt = {}
        for w, coef in sorted(pending.items()):
            idx = _reference_leftmost(w, first, second)
            if idx < 0:
                done[w] = done.get(w, 0) + coef
                continue
            swapped = w[:idx] + (second, first) + w[idx + 2:]
            contracted = w[:idx] + w[idx + 2:]
            nxt[swapped] = nxt.get(swapped, 0) + coef
            nxt[contracted] = nxt.get(contracted, 0) + sign * coef
        pending = {w: c for w, c in nxt.items() if c}
    return done


def _reference_leftmost(w: tuple, first: str, second: str) -> int:
    for i in range(len(w) - 1):
        if w[i] == first and w[i + 1] == second:
            return i
    return -1


@settings(max_examples=200)
@given(st.text(alphabet="ac", max_size=14).map(Word))
@example(Word("cac" * 4))
@example(Word("ccac" * 3))
@example(Word("acc" * 4))
def test_rewrite_matches_reference_loop(w):
    for first, second, sign in ((ANNIHILATOR, CREATOR, 1),
                                (CREATOR, ANNIHILATOR, -1)):
        want = {"".join(k): c for k, c in
                _reference_rewrite(tuple(w.letters), first, second, sign).items()}
        assert _rewrite(w.letters, first, second, sign) == want


@settings(max_examples=200)
@given(st.text(alphabet="ac", max_size=16))
@example("ac" * 8)
@example("ca" * 8)
def test_rewrite_coefficients_never_cancel(word):
    # _rewrite keeps no zero filter: each path to w contracts the same
    # number of pairs, so its coefficient is sign^k times a path count.
    for first, second, sign in ((ANNIHILATOR, CREATOR, 1),
                                (CREATOR, ANNIHILATOR, -1)):
        for w, c in _rewrite(word, first, second, sign).items():
            assert c * sign ** ((len(word) - len(w)) // 2) > 0


def test_normal_order_of_bench_size_power():
    # (ad a ad)^10, the largest power the rewrite benchmark uses
    w = SingleAnnihilatorWord(1, 1)
    assert normal_order(w.word().power(10)) == power_normal_form(w, 10)


def test_normal_form_product_contraction():
    # (ad a)(ad a) = ad^2 a^2 + ad a
    f = NormalForm({(1, 1): 1})
    assert f * f == NormalForm({(2, 2): 1, (1, 1): 1})


def test_weyl_quantize_frozen():
    # symmetrized x*^2 x: (ad^2 a + ad a ad + a ad^2)/3 = ad^2 a + ad
    assert weyl_quantize_monomial(2, 1) == NormalForm({(2, 1): 1, (1, 0): 1})
    assert weyl_quantize_monomial(0, 0) == NormalForm.monomial(0, 0)


def test_weyl_quantize_cap():
    with pytest.raises(ValueError):
        weyl_quantize_monomial(8, 8)


def test_shuffle_average_equals_heat_propagator():
    for n in range(4):
        for m in range(4):
            direct = weyl_quantize_monomial(n, m)
            via_heat = s_quantize(ClassicalPoly.monomial(n, m), 0)
            assert direct == via_heat


def test_s_quantize_symbolic_frozen():
    # :x*^2 x:_s -> ad^2 a + (1 + s) ad
    got = s_quantize(ClassicalPoly.monomial(2, 1), S)
    assert got == NormalForm({(2, 1): 1, (1, 0): 1 + S})


def test_s_transform_symbolic_frozen():
    # symbol of ad^2 a + ad at parameter s is x*^2 x - s x*
    got = s_transform(normal_order(Word("cac")), S)
    assert got == ClassicalPoly({(2, 1): 1, (1, 0): -S})


@given(poly_st, s_st)
def test_quantize_transform_round_trip(f, s):
    assert s_transform(s_quantize(f, s), s) == f


@given(poly_st, s_st, s_st, s_st)
def test_conversion_composes(f, s1, s2, s3):
    step = convert_order(convert_order(f, s1, s2), s2, s3)
    assert step == convert_order(f, s1, s3)


@given(poly_st, s_st, s_st)
def test_conversion_round_trip(f, s1, s2):
    assert convert_order(convert_order(f, s1, s2), s2, s1) == f


def test_heat_equation_for_symbolic_target():
    f = ClassicalPoly({(3, 2): 1, (1, 1): Fraction(-2, 3)})
    fam = convert_order(f, Fraction(0), S)
    assert fam.deriv_s() == fam.mixed_second().scale(Fraction(-1, 2))


def test_classical_poly_helpers():
    f = ClassicalPoly({(2, 1): 1 + S})
    assert f.mixed_second() == ClassicalPoly({(1, 0): 2 * (1 + S)})
    assert f.deriv_s() == ClassicalPoly({(2, 1): 1})
    assert f.eval_s(1) == ClassicalPoly({(2, 1): 2})
    assert f.total_degree() == 3
    assert ClassicalPoly().total_degree() == -1


def test_monomial_keeps_its_class():
    for cls in (NormalForm, AntiNormalForm, ClassicalPoly):
        mono = cls.monomial(1, 2)
        assert type(mono) is cls
        assert mono.table == {(1, 2): SPoly.const(1)}


def test_symbol_inverts_table():
    nf = normal_order(Word("caac"))
    assert s_quantize(nf.symbol(), -1) == nf


def test_table_json_round_trip():
    nf = normal_order(Word("aacc"))
    assert NormalForm.from_json(nf.to_json()) == nf
    assert nf.to_json()[0] == {"n": 0, "m": 0, "coeff": ["2"]}
