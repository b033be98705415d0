"""Every value type of the package refuses assignment to its fields."""

import pytest

from bosonorder.hsu_shiue import HSParams
from bosonorder.ordering import SingleAnnihilatorWord, SymbolSeries
from bosonorder.riordan import BivariateEGF, Triangle, identity_pair
from bosonorder.scalars import SPoly
from bosonorder.series import Series
from bosonorder.two_point import TwoPointParams
from bosonorder.weyl import ClassicalPoly, NormalForm, Word

#: name -> (instance, its fields)
VALUES = {
    "Series": (Series.variable(2), ("coeffs", "order")),
    "BivariateEGF": (BivariateEGF(((1,), (0, 1)), 1), ("zcoeffs", "order")),
    "Triangle": (Triangle(1, [[1], [0, 1]]), ("N", "rows")),
    "SymbolSeries": (SymbolSeries((ClassicalPoly.monomial(0, 0),), 0, 0),
                     ("terms", "order", "s")),
    "Word": (Word("cac"), ("letters",)),
    "RiordanPair": (identity_pair(2), ("first", "second")),
    "HSParams": (HSParams(0, 1, 0), ("A", "B", "r")),
    "TwoPointParams": (TwoPointParams(1, 1, -1, 1), ("A", "B", "r", "rp", "s")),
    "SingleAnnihilatorWord": (SingleAnnihilatorWord(1, 1), ("L", "R")),
    "SPoly": (SPoly((1, 2)), ("_num", "_den")),
    "NormalForm": (NormalForm.monomial(1, 1), ("table",)),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_refuses_assignment(name):
    value, fields = VALUES[name]
    for field in fields:
        old = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, old)
        assert getattr(value, field) is old


def test_triangle_rows_are_frozen_and_hashable():
    tri = Triangle(1, [[1], [0, 1]])
    with pytest.raises(TypeError):
        tri.rows[1][0] = 5
    with pytest.raises(TypeError):
        tri.rows[0] = [2]
    assert tri.entry(1, 0) == 0 and type(tri.entry(1, 0)) is SPoly
    same = Triangle(1, ([SPoly.const(1)], (0, SPoly.const(1))))
    assert same == tri and hash(same) == hash(tri)
