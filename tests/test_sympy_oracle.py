"""Differential tests against sympy, an independent computer-algebra system.

sympy is a test-only extra; the module is skipped when it is absent.
"""

import random
import time
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.ntheory.residue_ntheory import sqrt_mod  # noqa: E402
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402
from sympy.polys.specialpolys import swinnerton_dyer_poly  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

from helpers import (random_composite, random_ecm_composite,  # noqa: E402
                     swinnerton_dyer)

from hypercircle import fields, modp  # noqa: E402
from hypercircle.descent import alpha_decompose  # noqa: E402
from hypercircle.fields import (QQ, FieldTower, SubfieldEmbedding,  # noqa: E402
                                TowerContext, canonical_key, is_irreducible,
                                min_poly_over_q, roots_in_field)
from hypercircle.groebner import buchberger, eliminate, saturate  # noqa: E402
from hypercircle.mpoly import GREVLEX, LEX, MultiPoly, block_order  # noqa: E402
from hypercircle.numtheory import (SearchCapExceededError,  # noqa: E402
                                   factorize)
from hypercircle.upoly import (RationalFunction, UniPoly,  # noqa: E402
                               rational_roots, resultant)

NVARS = 3
SYMS = sympy.symbols(f"x0:{NVARS}")
X, Y, Z = sympy.symbols("x y z")
MONOMIALS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
             if a + b + c <= 2]


def _sympy_block_order(k):
    """block_order(k): grevlex on the first k variables, then grevlex on
    the rest."""
    return ProductOrder((grevlex, lambda m: m[:k]),
                        (grevlex, lambda m: m[k:]))


def _small_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))


def _wide_coeff(rng):
    """Numerator above 2^64, denominator up to 10^6, either sign."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(2**64, 2**70),
                    rng.randint(1, 10**6))


def _random_poly(rng, coeff=_small_coeff):
    terms = {e: coeff(rng) for e in rng.sample(MONOMIALS, rng.randint(2, 4))}
    return MultiPoly(QQ, NVARS, terms)


def _random_system(rng, coeff=_small_coeff):
    """Three polynomials in three variables of degree <= 2 over QQ."""
    return [_random_poly(rng, coeff) for _ in range(3)]


def _to_sympy(p, syms=SYMS):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod(s ** k for s, k in zip(syms, e))
                for e, c in p.terms.items()), sympy.Integer(0))


def _from_sympy(expr, syms=SYMS):
    poly = sympy.Poly(expr, *syms, domain="QQ")
    return MultiPoly(QQ, len(syms), {e: Fraction(int(c.p), int(c.q))
                                     for e, c in poly.terms()})


def _sympy_basis(exprs, syms, order, our_order):
    """sympy's reduced basis as MultiPolys, sorted like ours."""
    theirs = sympy.groebner(exprs, *syms, order=order, domain="QQ")
    return sorted((_from_sympy(g, syms) for g in theirs.exprs),
                  key=lambda p: our_order.key(p.leading(our_order)[0]))


def _sympy_eliminate(exprs, syms, k):
    """Reduced grevlex basis of the ideal of exprs intersected with the
    ring of syms[k:], by sympy's own Groebner bases."""
    block = sympy.groebner(exprs, *syms, order=_sympy_block_order(k),
                           domain="QQ")
    free = [g for g in block.exprs if not g.free_symbols & set(syms[:k])]
    return _sympy_basis(free, syms[k:], "grevlex", GREVLEX)


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"),
                                         (LEX, "lex")])
@pytest.mark.parametrize("seed", range(20))
def test_reduced_basis_matches_sympy(seed, order, name):
    gens = _random_system(random.Random(seed))
    want = _sympy_basis([_to_sympy(g) for g in gens], SYMS, name, order)
    assert list(buchberger(gens, order)) == want


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"),
                                         (LEX, "lex")])
@pytest.mark.parametrize("seed", range(10))
def test_wide_coefficient_basis_matches_sympy(seed, order, name):
    gens = _random_system(random.Random(f"wide:{seed}"), _wide_coeff)
    want = _sympy_basis([_to_sympy(g) for g in gens], SYMS, name, order)
    ours = buchberger(gens, order)
    assert list(ours) == want
    assert all(isinstance(c, Fraction) for g in ours for c in g.terms.values())


@pytest.mark.parametrize("seed", range(10))
def test_block_order_basis_matches_sympy(seed):
    order = block_order(1)
    gens = _random_system(random.Random(f"block:{seed}"))
    want = _sympy_basis([_to_sympy(g) for g in gens], SYMS,
                        _sympy_block_order(1), order)
    assert list(buchberger(gens, order)) == want


@pytest.mark.parametrize("seed", range(10))
def test_eliminate_matches_sympy(seed):
    # two generators, so that the elimination ideal is rarely trivial
    rng = random.Random(f"eliminate:{seed}")
    gens = [_random_poly(rng) for _ in range(2)]
    want = _sympy_eliminate([_to_sympy(g) for g in gens], SYMS, 1)
    ours = eliminate(gens, 1)
    assert ours.order == GREVLEX
    assert list(ours) == want


@pytest.mark.parametrize("seed", range(10))
def test_saturate_matches_sympy(seed):
    rng = random.Random(f"saturate:{seed}")
    gens = [_random_poly(rng) for _ in range(2)]
    f = _random_poly(rng)
    syms = (Z,) + SYMS
    exprs = [_to_sympy(g) for g in gens] + [1 - Z * _to_sympy(f)]
    want = _sympy_eliminate(exprs, syms, 1)
    assert list(saturate(gens, f)) == want


def _random_unipoly(rng, degree, span):
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 4))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, span),
                           rng.randint(1, 4)))
    return UniPoly(QQ, coeffs)


def _unipoly_to_sympy(p, var=X):
    return sum((sympy.Rational(c.numerator, c.denominator) * var ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


@pytest.mark.parametrize("seed", range(20))
def test_resultant_matches_sympy(seed):
    rng = random.Random(f"resultant:{seed}")
    f = _random_unipoly(rng, rng.randint(1, 5), 9)
    g = _random_unipoly(rng, rng.randint(1, 5), 9)
    if seed % 4 == 0:
        # a common factor: the resultant vanishes
        common = _random_unipoly(rng, 1, 3)
        f, g = f * common, g * common
    # the determinant of sympy's Sylvester matrix: sympy.resultant itself
    # differs in sign on some inputs, e.g. -23 for (2x + 1, x^3 + 3)
    want = sylvester(_unipoly_to_sympy(f), _unipoly_to_sympy(g), X).det()
    assert resultant(f, g) == Fraction(int(want.p), int(want.q))


@pytest.mark.parametrize("seed", range(20))
def test_rational_roots_match_sympy(seed):
    # a product of rational linear factors and a random cofactor
    rng = random.Random(f"roots:{seed}")
    f = _random_unipoly(rng, rng.randint(0, 3), 6)
    for _ in range(rng.randint(0, 3)):
        root = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        f = f * UniPoly(QQ, (-root, Fraction(1)))
    want = sympy.Poly(_unipoly_to_sympy(f), X, domain="QQ").ground_roots()
    assert rational_roots(f) == sorted(Fraction(int(r.p), int(r.q))
                                       for r in want)


@pytest.mark.parametrize("seed", range(12))
def test_min_poly_over_q_matches_sympy(seed):
    # QQ(a) with a Eisenstein minimal polynomial at a small prime
    rng = random.Random(f"minpoly:{seed}")
    n = rng.randint(2, 4)
    p = rng.choice((2, 3, 5))
    coeffs = [Fraction(p * rng.choice((-1, 1)))]
    coeffs += [Fraction(p * rng.randint(-2, 2)) for _ in range(n - 1)]
    coeffs.append(Fraction(1))
    minpoly = UniPoly(QQ, coeffs)
    K = FieldTower(QQ, "a", minpoly)
    x = K.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(n)])
    # sympy: the minimal polynomial is the irreducible factor of the
    # characteristic polynomial res_y(m(y), x - h(y))
    h = sum((sympy.Rational(c.numerator, c.denominator) * Y ** k
             for k, c in enumerate(x.coeffs)), sympy.Integer(0))
    charpoly = sympy.resultant(_unipoly_to_sympy(minpoly, Y), X - h, Y)
    _, factors = sympy.factor_list(charpoly, X, domain="QQ")
    assert len({f for f, _ in factors}) == 1
    want = sympy.Poly(factors[0][0], X, domain="QQ").monic()
    got = min_poly_over_q(x)
    assert got.degree() == want.degree()
    assert [sympy.Rational(c.numerator, c.denominator)
            for c in reversed(got.coeffs)] == want.all_coeffs()


# name -> (minimal polynomial of a, sympy's a); the roots in each field are
# compared as coordinate vectors in the a-power basis, which do not depend
# on which complex root sympy's a is
ROOT_FIELDS = {
    "QQ(i)": ((1, 0, 1), sympy.I),
    "QQ(2^(1/4))": ((-2, 0, 0, 0, 1), sympy.root(2, 4)),
    "QQ(3^(1/3))": ((-3, 0, 0, 1), sympy.cbrt(3)),
}


def _element_to_sympy(x, alpha):
    return sum((sympy.Rational(c.numerator, c.denominator) * alpha ** k
                for k, c in enumerate(x.coeffs)), sympy.Integer(0))


def _field_poly_to_sympy(f, alpha):
    return sum((_element_to_sympy(c, alpha) * X ** k
                for k, c in enumerate(f.coeffs)), sympy.Integer(0))


def _sympy_roots_in_field(f, alpha):
    """Roots of f from the linear factors of sympy's factorization over
    QQ(alpha), read back in the alpha-power basis."""
    K = f.field
    _, factors = sympy.factor_list(
        sympy.expand(_field_poly_to_sympy(f, alpha)), X, extension=alpha)
    roots = []
    for fac, _ in factors:
        lin = sympy.Poly(fac, X)
        if lin.degree() != 1:
            continue
        c1, c0 = lin.all_coeffs()
        coords = sympy.to_number_field(-c0 / c1, alpha).coeffs()[::-1]
        roots.append(K.element([Fraction(int(c.p), int(c.q))
                                for c in coords]))
    return sorted(roots, key=canonical_key)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", list(ROOT_FIELDS))
def test_roots_in_field_match_sympy(name, seed):
    mp, alpha = ROOT_FIELDS[name]
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    rng = random.Random(f"field-roots:{name}:{seed}")

    def element():
        return K.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(K.degree)])

    x = UniPoly(K, (K.zero, K.one))
    r1, r2 = element(), element()
    # two planted roots; a random pure quadratic, which has 0 or 2 roots
    cases = [(x - UniPoly(K, (r1,))) * (x - UniPoly(K, (r2,))),
             x * x - UniPoly(K, (r1,))]
    if K.degree == 2:
        # one planted root beside a quadratic factor
        cases.append((x - UniPoly(K, (r1,))) * (x * x - UniPoly(K, (r2,))))
    for f in cases:
        assert roots_in_field(f, K) == _sympy_roots_in_field(f, alpha)


# ---------------------------------------------------------------------------
# factors over QQ(a) and QQ(g)(a) by Trager's norm

# The quartic of the bundled curve: a = 1 + i*(sqrt(2) - 1) generates
# QQ(zeta_8), and gamma = -12 + 8a - 3a^2 + a^3, a root of
# x^2 + 12x + 40, generates its subfield QQ(i).
QUARTIC_FIELD = ((8, -16, 12, -4, 1), 1 + sympy.I * (sympy.sqrt(2) - 1))
FACTOR_FIELDS = {"QQ(3^(1/3))": ROOT_FIELDS["QQ(3^(1/3))"],
                 "QQ(2^(1/4))": ROOT_FIELDS["QQ(2^(1/4))"],
                 "quartic": QUARTIC_FIELD}


def _check_factors(f, factors, alpha):
    """factors are the irreducible factors of the squarefree part of f
    over QQ(alpha): as many as sympy finds, of the same degrees, monic,
    and multiplying to a squarefree divisor of f of their total degree."""
    _, theirs = sympy.factor_list(
        sympy.expand(_field_poly_to_sympy(f, alpha)), X, extension=alpha)
    assert sorted(g.degree() for g in factors) == sorted(
        sympy.degree(h, X) for h, _ in theirs)
    K = f.field
    product = UniPoly.const(K, K.one)
    for g in factors:
        assert g.is_monic()
        product = product * g
    assert (f % product).is_zero()
    slope = UniPoly(K, [k * c for k, c in enumerate(product.coeffs)][1:])
    assert product.gcd(slope).degree() == 0


def _planted(rng, K, linear, quadratic):
    def element():
        return K.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(K.degree)])

    x = UniPoly.x(K)
    f = UniPoly.const(K, K.one)
    for _ in range(linear):
        f = f * (x - UniPoly.const(K, element()))
    for _ in range(quadratic):
        f = f * UniPoly(K, (element(), element(), K.one))
    return f


@pytest.mark.parametrize("name", list(FACTOR_FIELDS))
def test_planted_factors_over_a_number_field_match_sympy(name):
    mp, alpha = FACTOR_FIELDS[name]
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    f = _planted(random.Random(f"field-factors:{name}"), K, 2, 1)
    factors = fields._tower_factors(f)
    _check_factors(f, factors, alpha)
    assert roots_in_field(f, K) == _sympy_roots_in_field(f, alpha)
    ok, witness = is_irreducible(f)
    least = min(g.degree() for g in factors)
    assert not ok and witness in factors and witness.degree() == least


def test_planted_factors_over_the_quartic_tower_match_sympy():
    # QQ(g)(a) is the quartic field again, so its factors, pushed back
    # into QQ(a), are sympy's over QQ(a)
    mp, alpha = QUARTIC_FIELD
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    a = K.gen()
    ctx = TowerContext(SubfieldEmbedding(K, -12 + 8 * a - 3 * a * a
                                         + a * a * a))
    f = _planted(random.Random("tower-factors"), ctx.tower, 2, 1)

    def flat(g):
        return g.map_coefficients(ctx.flatten, K)

    _check_factors(flat(f), [flat(g) for g in fields._tower_factors(f)],
                   alpha)
    roots = [ctx.flatten(r) for r in roots_in_field(f, ctx.tower)]
    assert sorted(roots, key=canonical_key) == \
        _sympy_roots_in_field(flat(f), alpha)


def test_repeated_root_is_found_once():
    mp, alpha = ROOT_FIELDS["QQ(3^(1/3))"]
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    a = K.gen()
    x = UniPoly.x(K)
    f = (x - UniPoly.const(K, a + 1)) ** 2 * (x + UniPoly.const(K, a * a))
    assert roots_in_field(f, K) == _sympy_roots_in_field(f, alpha) == \
        sorted([a + 1, -a * a], key=canonical_key)
    _check_factors(f, fields._tower_factors(f), alpha)


def test_square_norm_takes_a_shifted_norm():
    # x^2 - 2 has coefficients in QQ, so its norm over QQ(2^(1/4)) is
    # (x^2 - 2)^4; the shift x - a gives a squarefree norm
    mp, alpha = ROOT_FIELDS["QQ(2^(1/4))"]
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    a = K.gen()
    f = UniPoly(K, (-2, 0, 1))
    _, norm = alpha_decompose(MultiPoly.const(K, 1, K.one),
                              MultiPoly(K, 1, {(0,): K.coerce(-2),
                                               (2,): K.one}))
    assert norm == MultiPoly(QQ, 1, {(8,): 1, (6,): -8, (4,): 24,
                                     (2,): -32, (0,): 16})
    assert roots_in_field(f, K) == _sympy_roots_in_field(f, alpha) == \
        sorted([a * a, -a * a], key=canonical_key)
    _check_factors(f, fields._tower_factors(f), alpha)


def _counting_norms(monkeypatch):
    """The fields of the norms `_tower_factors` computes from now on."""
    fields_seen = []

    def counting(num, den):
        fields_seen.append(num.field)
        return alpha_decompose(num, den)

    monkeypatch.setattr("hypercircle.descent.alpha_decompose", counting)
    return fields_seen


def test_a_polynomial_over_the_base_takes_one_norm(monkeypatch):
    # x^2 - 7 over QQ(7^(1/4)) has its norm (x^2 - 7)^4 at s = 0, which
    # is never squarefree, so the shifts start at s = 1
    alpha = sympy.root(7, 4)
    K = FieldTower(QQ, "a", UniPoly(QQ, (-7, 0, 0, 0, 1)))
    a = K.gen()
    f = UniPoly(K, (-7, 0, 1))
    norms = _counting_norms(monkeypatch)
    roots = roots_in_field(f, K)
    assert norms == [K]
    assert roots == _sympy_roots_in_field(f, alpha) == \
        sorted([a * a, -a * a], key=canonical_key)
    _check_factors(f, fields._tower_factors(f), alpha)


@pytest.mark.parametrize("c", [-7, -2, 3])
def test_a_polynomial_over_the_base_of_the_quartic_tower_takes_one_norm(
        monkeypatch, c):
    # x^2 - c over QQ(g)(a) has its coefficients in QQ(g): one norm down
    # to QQ(g), at s = 1, and one from there down to QQ
    mp, alpha = QUARTIC_FIELD
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    a = K.gen()
    ctx = TowerContext(SubfieldEmbedding(K, -12 + 8 * a - 3 * a * a
                                         + a * a * a))
    T = ctx.tower
    f = UniPoly(T, (c, 0, 1))
    norms = _counting_norms(monkeypatch)
    roots = roots_in_field(f, T)
    assert norms == [T, T.base]
    flat = f.map_coefficients(ctx.flatten, K)
    assert sorted((ctx.flatten(r) for r in roots), key=canonical_key) == \
        _sympy_roots_in_field(flat, alpha)


def test_planted_quartic_over_a_cubic_field_is_fast():
    # the restriction-of-scalars solve ran past 70 s on this input
    mp, alpha = ROOT_FIELDS["QQ(3^(1/3))"]
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    a = K.gen()
    x = UniPoly.x(K)
    f = ((x - UniPoly.const(K, 1 + a)) * (x + UniPoly.const(K, a * a)) *
         UniPoly(K, (K.one, a, K.one)))
    start = time.monotonic()
    roots = roots_in_field(f, K)
    factors = fields._tower_factors(f)
    assert time.monotonic() - start < 1.0
    assert roots == sorted([1 + a, -a * a], key=canonical_key)
    _check_factors(f, factors, alpha)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", list(ROOT_FIELDS))
def test_rational_function_reduction_matches_sympy_gcd(name, seed):
    # RationalFunction skips the gcd when a reduction modulo a prime
    # proves the two coprime; its reduced denominator must drop exactly
    # the degree of sympy's gcd over QQ(alpha)
    mp, alpha = ROOT_FIELDS[name]
    K = FieldTower(QQ, "a", UniPoly(QQ, mp))
    rng = random.Random(f"field-gcd:{name}:{seed}")

    def poly(degree):
        return UniPoly(K, [K.element([Fraction(rng.randint(-2, 2),
                                               rng.randint(1, 2))
                                      for _ in range(K.degree)])
                           for _ in range(degree)] + [K.one])

    common = poly(rng.randint(0, 2))
    num, den = poly(2) * common, poly(2) * common
    rf = RationalFunction(num, den)
    g = sympy.gcd(sympy.expand(_field_poly_to_sympy(num, alpha)),
                  sympy.expand(_field_poly_to_sympy(den, alpha)),
                  extension=alpha)
    g_degree = sympy.Poly(g, X).degree() if g.has(X) else 0
    assert rf.den.degree() == den.degree() - g_degree
    assert rf.den.is_monic()
    assert rf.num * den == rf.den * num


@pytest.mark.parametrize("seed", range(18))
def test_is_irreducible_over_qq_matches_sympy(seed):
    # degrees 2..10, each once as a random polynomial, which the degree
    # patterns modulo primes usually certify, and once as a planted
    # product, which they never do, so that the exact search decides
    rng = random.Random(f"irreducible:{seed}")
    degree = 2 + seed % 9
    if seed % 2 == 0:
        f = _random_unipoly(rng, degree, 4)
    elif degree == 4:
        # two quadratics: no rational root, so the split search decides
        f = _random_unipoly(rng, 2, 4) * _random_unipoly(rng, 2, 4)
    else:
        # a rational root; a quadratic factor of a higher degree takes
        # the split search tens of seconds
        f = _random_unipoly(rng, 1, 4) * _random_unipoly(rng, degree - 1, 4)
    ok, factor = is_irreducible(f)
    assert ok == sympy.Poly(_unipoly_to_sympy(f), X,
                            domain="QQ").is_irreducible
    if not ok:
        assert 0 < factor.degree() < f.degree()
        assert (f.monic() % factor).is_zero()


def _rootless_unipoly(rng, degree, span):
    """A random polynomial of the given degree with no rational root."""
    while True:
        f = _random_unipoly(rng, degree, span)
        if not rational_roots(f):
            return f


def _decided_in_time(f, seconds=2.0):
    start = time.monotonic()
    result = is_irreducible(f)
    assert time.monotonic() - start < seconds
    return result


def _check_against_sympy(f, result):
    ok, factor = result
    sym = sympy.Poly(_unipoly_to_sympy(f), X, domain="QQ")
    assert ok == sym.is_irreducible
    if not ok:
        # a witness of the least degree of any factor, dividing f
        least = min(g.degree() for g, _ in sym.factor_list()[1])
        assert factor.degree() == least
        assert factor.is_monic()
        assert (f.monic() % factor).is_zero()
        assert sympy.Poly(_unipoly_to_sympy(factor), X,
                          domain="QQ").is_irreducible


@pytest.mark.parametrize("seed", range(24))
def test_planted_factor_without_a_rational_root_matches_sympy(seed):
    # an irreducible quadratic or cubic times a cofactor, degree 5..10,
    # none with a rational root: the rational root test finds nothing,
    # so the modular factor search decides; from seed 12 on the
    # coefficients need Hensel lifting past the first power of p
    rng = random.Random(f"planted-irreducible:{seed}")
    small = 2 + seed % 2
    degree = 5 + seed % 6
    span = 6 if seed < 12 else 10 ** 9
    f = (_rootless_unipoly(rng, small, span) *
         _rootless_unipoly(rng, degree - small, span))
    _check_against_sympy(f, _decided_in_time(f))


def _irreducible_zz(rng, degree, lead, size):
    """A primitive irreducible integer polynomial of the given degree,
    ascending, with leading coefficient lead and other coefficients of
    absolute value at most size."""
    while True:
        ints = [rng.randint(-size, size) for _ in range(degree)] + [lead]
        sym = sympy.Poly(list(reversed(ints)), X, domain="ZZ")
        if ints[0] and sympy.gcd_list(ints) == 1 and sym.is_irreducible:
            return ints


@pytest.mark.parametrize("seed", range(24))
def test_integer_factor_search_matches_sympy_factor_list(seed):
    # the complete factor list over ZZ, every degree and no early stop,
    # as the Trager norm asks for it, of a product of 2-4 irreducible
    # factors of total degree up to 12; odd seeds have leading
    # coefficients above 1, and every third seed coefficients near 10^9,
    # which lift past the first power of p
    rng = random.Random(f"factor-zz:{seed}")
    size = 10 ** 9 if seed % 3 == 0 else 9
    factors = []
    room = 12
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(1, min(4, room - 1))
        lead = rng.randint(2, 7) if seed % 2 else 1
        g = _irreducible_zz(rng, degree, lead, size)
        if g not in factors:
            factors.append(g)
            room -= degree
    ints = [1]
    for g in factors:
        ints = [sum(ints[j] * g[k - j] for j in range(len(ints))
                    if 0 <= k - j < len(g))
                for k in range(len(ints) + len(g) - 1)]
    degrees, modular = modp.degree_patterns(ints)
    found = modp.factor_zz(ints, degrees, modular) if degrees else [ints]
    content, theirs = sympy.factor_list(
        sympy.Poly(list(reversed(ints)), X, domain="ZZ"))
    assert content == 1 and all(e == 1 for _, e in theirs)
    want = sorted(tuple(int(c) for c in reversed(h.all_coeffs()))
                  for h, _ in theirs)
    # factors come back primitive, of either sign
    assert sorted(tuple(c if g[-1] > 0 else -c for c in g)
                  for g in found) == want
    assert want == sorted(map(tuple, factors))


@pytest.mark.parametrize("seed", range(24))
def test_factors_modulo_p_match_sympy(seed):
    # the distinct-degree parts split through their traces give the
    # monic irreducible factors sympy finds modulo p, on squarefree
    # inputs of degree up to 16; the first four seeds take the degree-16
    # Swinnerton-Dyer polynomial, which has 8 quadratic factors modulo
    # each of the first four primes
    rng = random.Random(f"factor-mod-p:{seed}")
    primes = modp.PRIMES[:4] + (5, 7)
    if seed < 4:
        p = primes[seed]
        f = [c % p for c in swinnerton_dyer([2, 3, 5, 7])]
    else:
        p = primes[seed % len(primes)]
        while True:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 16))] + [1]
            if len(modp.gcd(f, modp.derivative(f, p), p)) == 1:
                break
    ours = modp.irreducible_factors(modp.distinct_degree(f, p), p)
    _, theirs = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    assert sorted(ours) == sorted(
        [int(c) % p for c in reversed(g.all_coeffs())] for g, _ in theirs)
    if seed < 4:
        assert [len(g) - 1 for g in ours] == [2] * 8


@pytest.mark.parametrize("p", modp.PRIMES + (3, 5, 7, 13, 17))
def test_square_roots_modulo_p_match_sympy(p):
    # Tonelli-Shanks on seeded squares and non-squares, modulo primes
    # p - 1 = 2^s q, q odd, for every s from 1 to 5
    rng = random.Random(f"sqrt:{p}")
    for _ in range(20):
        a = rng.randrange(p) ** 2 % p
        r = modp.sqrt(a, p)
        assert r * r % p == a
        assert r in sqrt_mod(a, p, all_roots=True)
        n = rng.randrange(1, p)
        if sqrt_mod(n, p) is None:
            assert modp.sqrt(n, p) is None


def _swinnerton_dyer(n):
    poly = sympy.Poly(swinnerton_dyer_poly(n, X), X)
    return UniPoly(QQ, [Fraction(int(c)) for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("n", [3, 4])
def test_swinnerton_dyer_polynomials_are_irreducible(n):
    # degrees 8 and 16: every modular factor has degree at most 2, so the
    # degree patterns never decide and recombination tries every subset
    f = _swinnerton_dyer(n)
    assert f.degree() == 2 ** n
    result = _decided_in_time(f)
    assert result == (True, None)
    _check_against_sympy(f, result)


@pytest.mark.parametrize("coeffs", [
    (1, 0, -10, 0, 1), (1, 0, 0, 0, 1), (8, -16, 12, -4, 1),
    (4, 0, 0, 0, 1), (1, 0, -14, 0, 1), (9, 0, 0, 0, 0, 0, 0, 0, 1),
])
def test_quartic_families_need_no_split_search(coeffs):
    # every degree pattern of x^4 - 10x^2 + 1, x^4 + 1 and the bundled
    # quartic (Galois group V4) allows a quadratic factor; x^4 + 4,
    # x^4 - 14x^2 + 1 and x^8 + 9 have one
    f = UniPoly(QQ, [Fraction(c) for c in coeffs])
    _check_against_sympy(f, _decided_in_time(f))


@pytest.mark.parametrize("coeffs,power", [
    ((1, 1, 0, 0, 1), 2), ((-1, -1, 0, 0, 0, 1), 2), ((3, 0, 1), 3),
    ((-2, 0, 0, 1), 2), ((5, 1), 4),
])
def test_square_factors_need_no_split_search(coeffs, power):
    # no prime keeps a square factor squarefree, so the degree patterns
    # say nothing; the split search ran past 40 s on (x^4 + x + 1)^2
    base = UniPoly(QQ, [Fraction(c) for c in coeffs])
    f = base ** power * UniPoly(QQ, (3, 0, 1))
    _check_against_sympy(f, _decided_in_time(f))


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("c", [2, -2, 3, -3, 5, -5, 8, -32, 128,
                               Fraction(243, 32), 10 ** 30])
def test_binomials_match_sympy(n, c):
    # x^n - c: degree 1 is allowed modulo every prime, and is decided by
    # lifting a lone linear factor; a root, when there is one, is the
    # witness x - r
    f = UniPoly(QQ, [Fraction(-c)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    result = _decided_in_time(f)
    _check_against_sympy(f, result)
    roots = sympy.Poly(_unipoly_to_sympy(f), X).ground_roots()
    if roots:
        r = min(roots)
        assert result[1] == UniPoly(QQ, (-Fraction(int(r.p), int(r.q)), 1))


def test_recombination_cap_raises(monkeypatch):
    # degree 8 with four quadratic factors modulo every prime: ten subsets
    # of degree 2 or 4 to try
    monkeypatch.setattr(modp, "_RECOMBINATION_CAP", 3)
    with pytest.raises(SearchCapExceededError):
        is_irreducible(_swinnerton_dyer(3))


@pytest.mark.parametrize("seed", range(30))
def test_factorize_matches_sympy_on_rho_composites(seed):
    # the inputs of test_numtheory's seeded rho test
    n, _ = random_composite(random.Random(seed))
    assert factorize(n) == {int(p): e for p, e in sympy.factorint(n).items()}


@pytest.mark.parametrize("seed", range(20))
def test_factorize_matches_sympy_on_ecm_composites(seed):
    n, planted = random_ecm_composite(random.Random(f"ecm:{seed}"))
    fac = factorize(n)
    assert fac == planted
    assert fac == {int(p): e for p, e in sympy.factorint(n).items()}
