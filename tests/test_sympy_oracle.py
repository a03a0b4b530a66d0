"""Differential tests against sympy, an independent computer-algebra system.

sympy is a test-only extra; the module is skipped when it is absent.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hypercircle.fields import QQ  # noqa: E402
from hypercircle.groebner import buchberger  # noqa: E402
from hypercircle.mpoly import GREVLEX, LEX, MultiPoly  # noqa: E402

NVARS = 3
SYMS = sympy.symbols(f"x0:{NVARS}")
MONOMIALS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
             if a + b + c <= 2]


def _random_system(rng):
    """Three polynomials in three variables of degree <= 2 over QQ."""
    gens = []
    for _ in range(3):
        terms = {}
        for e in rng.sample(MONOMIALS, rng.randint(2, 4)):
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            terms[e] = c
        gens.append(MultiPoly(QQ, NVARS, terms))
    return gens


def _to_sympy(p):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod(s ** k for s, k in zip(SYMS, e))
                for e, c in p.terms.items()), sympy.Integer(0))


def _from_sympy(expr):
    poly = sympy.Poly(expr, *SYMS, domain="QQ")
    return MultiPoly(QQ, NVARS, {e: Fraction(int(c.p), int(c.q))
                                 for e, c in poly.terms()})


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"),
                                         (LEX, "lex")])
@pytest.mark.parametrize("seed", range(20))
def test_reduced_basis_matches_sympy(seed, order, name):
    gens = _random_system(random.Random(seed))
    ours = buchberger(gens, order)
    theirs = sympy.groebner([_to_sympy(g) for g in gens], *SYMS,
                            order=name, domain="QQ")
    want = sorted((_from_sympy(g) for g in theirs.exprs),
                  key=lambda p: order.key(p.leading(order)[0]))
    assert list(ours) == want
