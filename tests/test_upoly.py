"""Dense univariate polynomials, resultants, rational functions."""

import ast
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unipoly, reference_rational_roots, repo_root

from hypercircle import modp, numtheory
from hypercircle.fields import QQ, make_extension
from hypercircle.upoly import (
    RationalFunction,
    UniPoly,
    bareiss_det,
    rational_roots,
    resultant,
    sylvester_resultant_lists,
)

coeff = st.fractions(max_denominator=20, min_value=Fraction(-20), max_value=Fraction(20))
polys = st.lists(coeff, max_size=6).map(lambda cs: UniPoly(QQ, cs))


def _P(*coeffs):
    """Ascending coefficients over QQ."""
    return UniPoly(QQ, [Fraction(c) for c in coeffs])


def test_degree_and_normalization():
    assert _P(1, 2, 0, 0).degree() == 1
    assert _P().is_zero() and _P(0, 0).is_zero()
    assert _P(5).degree() == 0
    assert UniPoly.x(QQ).degree() == 1


def test_ring_ops():
    f = _P(1, 1)  # 1 + x
    g = _P(-1, 1)  # -1 + x
    assert f * g == _P(-1, 0, 1)
    assert f + g == _P(0, 2)
    assert f - f == _P()
    assert (f * g).evaluate(Fraction(3)) == 8


@settings(max_examples=150, deadline=None)
@given(polys, polys.filter(lambda p: not p.is_zero()))
def test_divrem_identity(f, g):
    q, r = f.divrem(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree() < g.degree()


def test_gcd_known():
    f = _P(-1, 0, 1)  # (x-1)(x+1)
    g = _P(-1, 1) * _P(3, 1)
    assert f.gcd(g) == _P(-1, 1)
    assert _P().gcd(f) == f.monic()


def test_resultant_known_values():
    # res(x^2+1, x-2) = 2^2+1 evaluated at the root of the linear factor
    assert resultant(_P(1, 0, 1), _P(-2, 1)) == 5
    # shared root makes the resultant vanish
    assert resultant(_P(-1, 0, 1), _P(-1, 1)) == 0
    assert resultant(_P(6), _P(-1, 1)) == 6


@settings(max_examples=60, deadline=None)
@given(polys.filter(lambda p: p.degree() >= 1), polys.filter(lambda p: p.degree() >= 1))
def test_resultant_multiplicative_in_roots(f, g):
    # res(f, g*h) = res(f, g) res(f, h)
    h = _P(1, 1)
    assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_sylvester_lists_matches_resultant():
    rng = random.Random(7)
    for _ in range(25):
        f = random_unipoly(rng, QQ, 3)
        g = random_unipoly(rng, QQ, 3)
        if f.is_zero() or g.is_zero() or f.degree() + g.degree() == 0:
            continue
        via_lists = sylvester_resultant_lists(
            list(f.coeffs), list(g.coeffs), Fraction(0), Fraction(1)
        )
        assert via_lists == resultant(f, g)


def test_bareiss_det_known():
    m = [
        [Fraction(2), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(2)],
        [Fraction(1), Fraction(1), Fraction(1)],
    ]
    assert bareiss_det(m, Fraction(0), Fraction(1)) == 0
    m2 = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert bareiss_det(m2, Fraction(0), Fraction(1)) == -2
    assert bareiss_det([[Fraction(0)]], Fraction(0), Fraction(1)) == 0


def test_bareiss_det_matches_cofactor_expansion():
    rng = random.Random(11)

    def naive(m):
        if len(m) == 1:
            return m[0][0]
        acc = Fraction(0)
        for j, c in enumerate(m[0]):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            acc += (-1) ** j * c * naive(minor)
        return acc

    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        assert bareiss_det([row[:] for row in m], Fraction(0), Fraction(1)) == naive(m)


def test_rational_roots():
    f = _P(-2, 1) * _P(3, 2) * _P(1, 0, 1)
    assert rational_roots(f) == [Fraction(-3, 2), Fraction(2)]
    assert rational_roots(_P(1, 0, 1)) == []
    assert rational_roots(_P(0, 1)) == [0]


def test_rational_roots_include_repeated_once():
    f = _P(-1, 1) * _P(-1, 1) * _P(5, 1)
    assert rational_roots(f) == [Fraction(-5), Fraction(1)]


@pytest.mark.parametrize("seed", range(60))
def test_rational_roots_match_the_rational_root_theorem(seed):
    # planted roots, some repeated, 0 and non-integers among them, times
    # a cofactor with coefficients up to 10^12, scaled by a rational
    rng = random.Random(f"rational-roots:{seed}")
    f = _P(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12),
                    rng.randint(1, 10 ** 12)))
    for _ in range(rng.randint(0, 4)):
        root = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        f = f * _P(-root, 1) ** rng.randint(1, 3)
    span = 10 ** rng.randint(0, 12)
    g = _P(*[rng.randint(-span, span) for _ in range(rng.randint(0, 3))],
           rng.randint(1, 12))
    f = f * g
    assert rational_roots(f) == reference_rational_roots(f)


@pytest.mark.parametrize("roots, cofactor", [
    ([Fraction(k, 13 - k) for k in range(1, 13)], _P(1)),
    ([Fraction(k, 13 - k) for k in range(1, 13)], _P(1, 1, 0, 0, 1)),
    ([Fraction(10 ** 15 + k) for k in (1, 3, 7, 9, 13)], _P(1)),
])
def test_many_or_large_rational_roots_are_found_quickly(roots, cofactor):
    # the rational root test took 0.27-6.2 s on these, enumerating the
    # divisors of their leading and constant coefficients
    f = cofactor
    for r in roots:
        f = f * _P(-r, 1)
    start = time.perf_counter()
    assert rational_roots(f) == sorted(roots)
    assert time.perf_counter() - start < 1


def test_rational_roots_factor_no_integers(monkeypatch):
    # rational roots come from linear factors lifted modulo a prime, not
    # from the divisors of factored integers: upoly names neither
    # factorize nor is_prime, and rational_roots reaches neither
    source = repo_root() / "src" / "hypercircle" / "upoly.py"
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"factorize", "is_prime"}
    rng = random.Random("rational-roots:spy")
    cases = []
    for _ in range(20):
        # large roots over a cofactor x^2 + b*x + c, b^2 < 4c, with none
        f = _P(rng.randint(2, 9), rng.randint(-2, 2), 1)
        f = f.scale(Fraction(rng.randint(1, 10 ** 12),
                             rng.randint(1, 10 ** 12)))
        roots = [Fraction(rng.randint(-10 ** 9, 10 ** 9),
                          rng.randint(1, 10 ** 9))
                 for _ in range(rng.randint(0, 4))]
        for r in roots:
            f = f * _P(-r, 1)
        cases.append((f, sorted(set(roots))))

    def refuse(*args, **kw):
        raise AssertionError("rational_roots factored an integer")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    monkeypatch.setattr(numtheory, "is_prime", refuse)
    monkeypatch.setattr(modp, "is_prime", refuse)
    for f, roots in cases:
        assert rational_roots(f) == roots


def test_rational_function_reduces_and_normalizes():
    f = RationalFunction(_P(-1, 0, 1), _P(-1, 1))  # (x^2-1)/(x-1)
    assert f.num == _P(1, 1) and f.den == _P(1)
    g = RationalFunction(_P(2), _P(0, 4))
    assert g.den.is_monic()
    assert g.num == _P(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(_P(1), _P())


def test_rational_function_compose():
    f = RationalFunction(_P(0, 1), _P(1, 0, 1))  # t/(t^2+1)
    g = f.compose(_P(1, 1))
    assert g == RationalFunction(_P(1, 1), _P(2, 2, 1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(_P(1), _P(0, 1)).compose(_P(0))


def test_shift_compose_matches_compose():
    rng = random.Random(3)
    for _ in range(20):
        f = random_unipoly(rng, QQ, 4)
        a = Fraction(rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5))
        assert f.shift_compose(a, b) == f.compose(UniPoly(QQ, (b, a)))


def test_unipoly_over_tower_field():
    K = make_extension(QQ, UniPoly(QQ, (1, 0, 1)), "a")
    i = K.gen()
    f = UniPoly(K, (i, K.one))  # t + a
    sq = f * f
    assert sq.coeffs == (K.coerce(-1), 2 * i, K.one)
    assert sq.evaluate(-i) == K.zero
    assert resultant(f, UniPoly(K, (-i, K.one))) == -2 * i
