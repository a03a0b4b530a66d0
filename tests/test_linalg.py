"""Exact linear algebra over QQ: the fraction-free Gauss-Jordan
elimination of `fields` against a Fraction reduced row echelon form."""

import random
from fractions import Fraction

from helpers import rref

from hypercircle.fields import QQ, _row_reduce


def _F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _over(rows, D):
    return [[Fraction(x, D) for x in row] for row in rows]


def test_rref_identity_block():
    m, pivots, D = _row_reduce([[2, 4], [1, 3]])
    assert _over(m, D) == _F([[1, 0], [0, 1]])
    assert pivots == [0, 1]
    # D is the determinant up to sign
    assert abs(D) == 2


def test_rref_with_free_column():
    m, pivots, D = _row_reduce([[1, 2, 3], [2, 4, 8]])
    assert pivots == [0, 2]
    assert _over(m, D) == _F([[1, 2, 0], [0, 0, 1]])


def _random_matrix(rng):
    rows = rng.randint(1, 6)
    cols = rng.choice([1, rows, rows + rng.randint(1, 4)])
    rank = rng.randint(0, min(rows, cols))
    # rank-deficient by construction: a product of rows x rank and
    # rank x cols integer factors
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    zero = rng.randrange(cols) if rng.random() < 0.5 else None
    if zero is not None:
        for row in right:
            row[zero] = 0
    return [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)]
            if rank else [0] * cols for lrow in left]


def test_row_reduce_is_the_rref_times_the_last_pivot():
    rng = random.Random(20)
    cases = [[[0]], [[7]], [[-3]], [[0, 0], [0, 0]], [[0, 1], [0, 2]],
             [[1, 2, 3, 4]], [[2], [4], [6]], [[0, 5, 1], [0, 1, 1]]]
    cases += [_random_matrix(rng) for _ in range(300)]
    cases += [[[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
              for r, c in [(1, 1), (3, 5), (4, 4), (5, 2), (2, 7)]
              for _ in range(20)]
    for a in cases:
        m, pivots, D = _row_reduce(a)
        want, want_pivots = rref(_F(a), QQ)
        assert pivots == want_pivots, a
        assert _over(m, D) == want, a
        assert D != 0 and all(isinstance(x, int) for row in m for x in row)
        if not pivots:
            assert D == 1
