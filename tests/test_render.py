"""The renderer against the reference renderer in helpers, byte for
byte, and every rendered string read back through exprparse to the
value it renders."""

import random
from fractions import Fraction

import pytest

from helpers import (reference_render_field_element,
                     reference_render_fraction, reference_render_mpoly,
                     reference_render_rational, reference_render_unipoly)

from hypercircle.exprparse import parse_fraction
from hypercircle.fields import QQ, make_extension
from hypercircle.mpoly import MultiPoly
from hypercircle.render import (render_field_element, render_fraction,
                                render_mpoly, render_rational,
                                render_unipoly)
from hypercircle.upoly import RationalFunction, UniPoly


def _extension(base, coeffs, name):
    return make_extension(base, UniPoly(base, coeffs), name)


@pytest.fixture(scope="module", params=["QQ", "i", "half-integral", "tower"])
def field(request):
    """QQ; QQ(a), a^2 = -1; QQ(a), 2*a^2 - 3 = 0 (not integral, so
    elements carry denominators); and QQ(g)(a), g^2 = 2, a^2 = g."""
    if request.param == "QQ":
        return QQ
    if request.param == "i":
        return _extension(QQ, (1, 0, 1), "a")
    if request.param == "half-integral":
        return _extension(QQ, (-3, 0, 2), "a")
    g = _extension(QQ, (-2, 0, 1), "g")
    return _extension(g, (-g.gen(), 0, 1), "a")


def _rational(rng):
    """Zero, +-1, a small fraction or 60-bit numerators and denominators."""
    kind = rng.randrange(6)
    sign = rng.choice((-1, 1))
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(sign)
    if kind == 2:
        return Fraction(sign * rng.randint(1, 9), rng.randint(1, 6))
    if kind == 3:
        return Fraction(sign * rng.getrandbits(60))
    return Fraction(sign * rng.getrandbits(60), rng.getrandbits(60) | 1)


def _element(rng, field):
    """A random element, a rational one a third of the time."""
    if field is QQ:
        return _rational(rng)
    if rng.randrange(3) == 0:
        return field.coerce(_element(rng, field.base))
    return field.element([_element(rng, field.base)
                          for _ in range(field.degree)])


def _nonzero(rng, field):
    while True:
        c = _element(rng, field)
        if c:
            return c


def _generators(field):
    """The names of the generators, the base field's first."""
    if field is QQ:
        return ()
    return _generators(field.base) + (field.name,)


def _coordinates(c, field):
    """c as {exponents of the generators: nonzero rational}."""
    if field is QQ:
        return {(): Fraction(c)} if c else {}
    out = {}
    for k, ck in enumerate(field.coerce(c).coeffs):
        for e, q in _coordinates(ck, field.base).items():
            out[e + (k,)] = q
    return out


def _over_qq(terms, nvars, field):
    """sum c * x^e over QQ in nvars x, each generator a variable after
    the x."""
    arity = nvars + len(_generators(field))
    out = MultiPoly.zero(QQ, arity)
    for e, c in terms:
        out = out + MultiPoly(QQ, arity, {
            e + g: q for g, q in _coordinates(c, field).items()})
    return out


def _parses_to(s, names, field, num, den=None):
    """Whether s reads, in the names and the generators over QQ, as
    num / den, given as lists of (exponents, coefficient) terms."""
    pnum, pden = parse_fraction(s, tuple(names) + _generators(field))
    n = len(names)
    den = [((0,) * n, field.one)] if den is None else den
    return pnum * _over_qq(den, n, field) == _over_qq(num, n, field) * pden


def _mpoly(rng, field, arity):
    """Up to 8 terms of degree up to 3; a constant term half the time."""
    terms = {tuple(rng.randint(0, 3) for _ in range(arity)): _nonzero(
        rng, field) for _ in range(rng.randint(0, 8))}
    if rng.randrange(2):
        terms[(0,) * arity] = _nonzero(rng, field)
    return MultiPoly(field, arity, terms)


def _unipoly(rng, field, zero_constant=False):
    coeffs = [_element(rng, field) for _ in range(rng.randint(1, 6))]
    if zero_constant:
        coeffs[0] = 0
    return UniPoly(field, coeffs)


def _unipoly_terms(f):
    return [((k,), c) for k, c in enumerate(f.coeffs) if c]


@pytest.mark.parametrize("seed", range(4))
def test_elements_and_fractions_render_as_the_reference(field, seed):
    rng = random.Random(f"render-element:{seed}")
    for _ in range(40):
        x = _element(rng, field)
        s = render_field_element(x)
        assert s == reference_render_field_element(x)
        assert _parses_to(s, (), field, [((), x)] if x else [])
        q = _rational(rng)
        s = render_fraction(q)
        assert s == reference_render_fraction(q)
        assert parse_fraction(s, ())[0].constant_value() == q
    for q in (0, 1, -1, 7, -(1 << 60) + 1):
        assert render_fraction(q) == reference_render_fraction(q)


@pytest.mark.parametrize("seed", range(4))
def test_mpolys_render_as_the_reference(field, seed):
    rng = random.Random(f"render-mpoly:{seed}")
    for _ in range(15):
        arity = rng.randint(1, 4)
        p = _mpoly(rng, field, arity)
        for names in (None, ["x", "y", "z", "w"][:arity]):
            s = render_mpoly(p, names)
            assert s == reference_render_mpoly(p, names)
            names = names or [f"t{i}" for i in range(arity)]
            assert _parses_to(s, names, field, list(p.terms.items()))
        assert render_mpoly(-p) == reference_render_mpoly(-p)


@pytest.mark.parametrize("seed", range(4))
def test_unipolys_and_rationals_render_as_the_reference(field, seed):
    rng = random.Random(f"render-unipoly:{seed}")
    for i in range(12):
        f = _unipoly(rng, field, zero_constant=i % 3 == 0)
        for var in ("t", "x"):
            s = render_unipoly(f, var)
            assert s == reference_render_unipoly(f, var)
            assert _parses_to(s, [var], field, _unipoly_terms(f))
        # a linear denominator is reduced against f by one evaluation,
        # where Euclid over the tower swells the 60-bit coefficients
        den = UniPoly(field, (_element(rng, field), _nonzero(rng, field)))
        unit = _nonzero(rng, field)
        for rf in (RationalFunction(f, den), RationalFunction(-f, den),
                   RationalFunction(f, unit)):
            s = render_rational(rf)
            assert s == reference_render_rational(rf)
            assert _parses_to(s, ["t"], field, _unipoly_terms(rf.num),
                              _unipoly_terms(rf.den))


def test_signs_units_and_zero_constants_render_as_the_reference(field):
    # leading coefficient -1, inner +-1, no constant term, and one
    # 60-bit numerator over a 60-bit denominator
    big = Fraction((1 << 60) - 93, (1 << 59) + 1)
    x = field.one if field is QQ else field.gen()
    t = UniPoly(field, (0, 1))
    for f in (UniPoly(field, (0, 1, 0, -1)),
              UniPoly(field, (0, -1, x, 1)),
              UniPoly(field, (big, 0, -big, -x)),
              t * t * UniPoly(field, (-x, 1))):
        assert render_unipoly(f) == reference_render_unipoly(f)
        p = MultiPoly(field, 2, {(k, 1): c for k, c in enumerate(f.coeffs)
                                 if c})
        assert render_mpoly(p) == reference_render_mpoly(p)
        assert _parses_to(render_mpoly(p), ["t0", "t1"], field,
                          list(p.terms.items()))
    assert render_mpoly(MultiPoly.zero(field, 2)) == "0"
    assert render_unipoly(UniPoly(field, ())) == "0"
