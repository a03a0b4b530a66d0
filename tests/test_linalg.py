"""Exact linear algebra over QQ and tower fields."""

from fractions import Fraction

from hypercircle.fields import QQ, make_extension
from hypercircle.linalg import rref
from hypercircle.upoly import UniPoly


def _F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity_block():
    m, pivots = rref(_F([[2, 4], [1, 3]]), QQ)
    assert m == _F([[1, 0], [0, 1]])
    assert pivots == [0, 1]


def test_rref_with_free_column():
    m, pivots = rref(_F([[1, 2, 3], [2, 4, 8]]), QQ)
    assert pivots == [0, 2]
    assert m == _F([[1, 2, 0], [0, 0, 1]])


def test_linalg_over_tower():
    K = make_extension(QQ, UniPoly(QQ, (1, 0, 1)), "a")
    i = K.gen()
    # x + i y = 2, i x + y = 0 has the unique solution in the last column
    m, pivots = rref([[K.one, i, K.coerce(2)], [i, K.one, K.zero]], K)
    assert pivots == [0, 1]
    sol = [row[2] for row in m]
    assert sol[0] + i * sol[1] == K.coerce(2)
    assert i * sol[0] + sol[1] == K.zero
