"""Number field towers: arithmetic, minimal polynomials, subfields, roots."""

import ast
import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (random_field_element, reference_inverse, reference_mul,
                     repo_root)

from hypercircle.fields import (
    QQ,
    FieldTower,
    ReduciblePolynomialError,
    SubfieldEmbedding,
    TowerContext,
    canonical_key,
    is_irreducible,
    make_extension,
    min_poly_over_q,
    primitive_element,
    relative_min_poly,
    roots_in_field,
    trivial_embedding,
)
from hypercircle.exprparse import parse_polynomial
from hypercircle.render import render_field_element
from hypercircle.upoly import UniPoly


def _P(*coeffs):
    return UniPoly(QQ, [Fraction(c) for c in coeffs])


QUARTIC_MIN = _P(8, -16, 12, -4, 1)  # x^4 - 4x^3 + 12x^2 - 16x + 8


@pytest.fixture(scope="module")
def quartic_field():
    return make_extension(QQ, QUARTIC_MIN, "a")


def test_rational_field_basics():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.one - QQ.one == QQ.zero
    assert QQ.qq_dim() == 1


def test_gaussian_arithmetic(qi):
    i = qi.gen()
    assert i * i == qi.coerce(-1)
    x = qi.element((Fraction(1), Fraction(2)))  # 1 + 2i
    y = qi.element((Fraction(3), Fraction(-1)))
    assert x * y == qi.element((Fraction(5), Fraction(5)))
    assert x / x == qi.one
    assert (x - x) == qi.zero
    assert qi.qq_dim() == 2


def test_inverse_property_random(qi, quartic_field):
    rng = random.Random(20260814)
    for field in (qi, quartic_field):
        for _ in range(25):
            x = random_field_element(rng, field)
            if x == field.zero:
                continue
            assert x * (field.one / x) == field.one


def test_reducible_minpoly_rejected():
    with pytest.raises(ReduciblePolynomialError):
        make_extension(QQ, _P(-1, 0, 1), "a")  # x^2 - 1


def test_is_irreducible():
    assert is_irreducible(_P(1, 0, 1))[0]
    assert is_irreducible(QUARTIC_MIN)[0]
    assert is_irreducible(_P(7, 1))[0]
    ok, factor = is_irreducible(_P(-1, 0, 1))
    assert not ok and _P(-1, 0, 1).divrem(factor)[1].is_zero()
    ok, factor = is_irreducible(_P(4, 0, 0, 0, 1))  # (x^2-2x+2)(x^2+2x+2)
    assert not ok and 1 <= factor.degree() < 4
    assert _P(4, 0, 0, 0, 1).divrem(factor)[1].is_zero()


def test_min_poly_over_q(qi, quartic_field):
    i = qi.gen()
    assert min_poly_over_q(i) == _P(1, 0, 1)
    assert min_poly_over_q(qi.coerce(5)) == _P(-5, 1)
    a = quartic_field.gen()
    gamma = -12 + 8 * a - 3 * a * a + a * a * a
    assert min_poly_over_q(gamma) == _P(40, 12, 1)
    assert min_poly_over_q(a) == QUARTIC_MIN


def test_min_poly_annihilates(quartic_field):
    rng = random.Random(5)
    for _ in range(10):
        x = random_field_element(rng, quartic_field)
        m = min_poly_over_q(x)
        assert m.map_coefficients(quartic_field.coerce, quartic_field).evaluate(x) == quartic_field.zero
        assert is_irreducible(m)


def test_roots_in_field_gaussian(qi):
    i = qi.gen()
    f = UniPoly(qi, (qi.one, qi.zero, qi.one))
    assert roots_in_field(f, qi) == sorted([-i, i], key=canonical_key)
    # no roots when the discriminant is not a square in the field
    g = UniPoly(qi, (qi.coerce(-3), qi.zero, qi.one))
    assert roots_in_field(g, qi) == []


def test_roots_in_field_planted(qi):
    rng = random.Random(99)
    for _ in range(10):
        r1 = random_field_element(rng, qi)
        r2 = random_field_element(rng, qi)
        f = UniPoly(qi, (r1, qi.coerce(-1))) * UniPoly(qi, (r2, qi.coerce(-1)))
        roots = roots_in_field(f, qi)
        assert set(roots) == {r1, r2}
        for c in roots:
            assert f.evaluate(c) == qi.zero


def test_roots_in_field_rational_inputs_over_tower(quartic_field):
    # the quadratic below picks out the two conjugate values of the point field
    f = UniPoly(quartic_field, tuple(quartic_field.coerce(c) for c in (10, 6, 1)))
    roots = roots_in_field(f, quartic_field)
    a = quartic_field.gen()
    expected = {
        -4 * a + Fraction(3, 2) * a * a - Fraction(1, 2) * a * a * a,
        -6 + 4 * a - Fraction(3, 2) * a * a + Fraction(1, 2) * a * a * a,
    }
    assert set(roots) == expected


def test_primitive_element_trivial_and_full(qi):
    pe = primitive_element(qi, [qi.coerce(7), qi.coerce(-2)])
    assert pe.r == 1
    pe2 = primitive_element(qi, [qi.gen()])
    assert pe2.r == 2
    assert pe2.minpoly.degree() == 2


def test_primitive_element_membership_and_lift(quartic_field):
    a = quartic_field.gen()
    gamma = -12 + 8 * a - 3 * a * a + a * a * a
    pe = primitive_element(quartic_field, [gamma])
    assert pe.r == 2
    assert pe.minpoly == _P(40, 12, 1)
    assert pe.membership(gamma)
    assert pe.membership(a) is None
    down = pe.lift(gamma)
    assert down is not None and down.field is pe.subfield
    assert pe.push(down) == gamma
    # the subfield generator maps onto gamma itself
    g = pe.subfield.gen()
    assert pe.push(g) == pe.gamma
    assert pe.lift(pe.push(g)) == g


def test_relative_min_poly_fourth_root():
    K = make_extension(QQ, _P(-2, 0, 0, 0, 1), "a")
    a = K.gen()
    pe = primitive_element(K, [a * a])
    rel = relative_min_poly(pe)
    S = pe.subfield
    g = S.gen()
    assert rel.coeffs == (-g, S.zero, S.one)  # x^2 - g
    # the relative minpoly annihilates a over the subfield tower
    ctx = TowerContext(pe)
    T = ctx.tower
    alpha = T.gen()
    lifted = rel.map_coefficients(T.coerce, T)
    assert lifted.evaluate(alpha) == T.zero


def test_tower_context_roundtrip():
    K = make_extension(QQ, _P(-2, 0, 0, 0, 1), "a")
    a = K.gen()
    pe = primitive_element(K, [a * a])
    ctx = TowerContext(pe)
    rng = random.Random(13)
    for _ in range(10):
        x = random_field_element(rng, K)
        assert ctx.flatten(ctx.to_tower(x)) == x


def _subfield_cases():
    """(ambient, gamma, r): x^4 - 2 with a^2, x^6 - 3 with a^2 (r = 3,
    m = 2) and a^3 (r = 2, m = 3), and the quartic's gamma."""
    k4 = FieldTower(QQ, "a", _P(-2, 0, 0, 0, 1))
    k6 = FieldTower(QQ, "a", _P(-3, 0, 0, 0, 0, 0, 1))
    kq = FieldTower(QQ, "a", QUARTIC_MIN)
    a4, a6, aq = k4.gen(), k6.gen(), kq.gen()
    return [(k4, a4 ** 2, 2), (k6, a6 ** 2, 3), (k6, a6 ** 3, 2),
            (kq, -12 + 8 * aq - 3 * aq ** 2 + aq ** 3, 2)]


@pytest.mark.parametrize("case", range(4))
def test_subfield_and_tower_properties(case):
    ambient, gamma, r = _subfield_cases()[case]
    emb = primitive_element(ambient, [gamma])
    assert emb.r == r
    sub = emb.subfield
    m = ambient.degree // r
    alpha = ambient.gen()
    rng = random.Random(100 + case)
    for _ in range(12):
        # s + t * a^k lies in QQ(gamma) exactly when t = 0, since
        # 1, a, ..., a^(m-1) are a basis over QQ(gamma)
        s = random_field_element(rng, sub)
        t = random_field_element(rng, sub) if rng.random() < 0.6 else sub.zero
        x = emb.push(s) + emb.push(t) * alpha ** rng.randint(1, m - 1)
        coords = emb.membership(x)
        lifted = emb.lift(x)
        assert (coords is not None) == (not t)
        assert (lifted is not None and emb.push(lifted) == x) == (not t)
        if not t:
            assert lifted == s and coords == s.coeffs
    rel = relative_min_poly(emb)
    assert rel.field is sub and rel.degree() == m and rel.is_monic()
    acc = ambient.zero
    for c in reversed(rel.coeffs):
        acc = acc * alpha + emb.push(c)
    assert not acc
    ctx = TowerContext(emb)
    tower = ctx.tower
    assert tower.minpoly == rel
    lifted_rel = rel.map_coefficients(tower.coerce, tower)
    assert lifted_rel.evaluate(tower.gen()) == tower.zero
    for _ in range(6):
        x = random_field_element(rng, ambient)
        y = random_field_element(rng, ambient)
        assert ctx.flatten(ctx.to_tower(x)) == x
        assert ctx.to_tower(x * y) == ctx.to_tower(x) * ctx.to_tower(y)


def test_degenerate_tower_basis_is_arithmetic_error():
    k4 = FieldTower(QQ, "a", _P(-2, 0, 0, 0, 1))
    # a is not of degree 2, so the products g^j * a^k repeat a
    emb = SubfieldEmbedding(k4, k4.gen(), _P(-2, 0, 1))
    for build in (relative_min_poly, TowerContext):
        with pytest.raises(ArithmeticError) as info:
            build(emb)
        assert not isinstance(info.value, ValueError)


def test_trivial_embedding_is_the_rational_subfield(qi):
    emb = trivial_embedding(qi)
    assert emb.r == 1
    assert emb.subfield is QQ
    assert emb.lift(qi.gen()) is None
    assert emb.lift(qi.coerce(5)) == Fraction(5)
    assert emb.push(Fraction(5)) == qi.coerce(5)


def test_canonical_key_orders_deterministically(qi):
    i = qi.gen()
    xs = [i, -i, qi.one, qi.zero, 2 * i + 1]
    s1 = sorted(xs, key=canonical_key)
    s2 = sorted(list(reversed(xs)), key=canonical_key)
    assert s1 == s2


# Minimal polynomials of degree 2-7, most with non-integer coefficients
# once monic, and two height-two towers over QQ(g), g^2 = 2, written
# in the base's generator g and the variable x.
_REFERENCE_TOWERS = [
    ("2*x^2 - 3",),
    ("x^3 - 2",),
    ("3*x^4 - 2",),
    ("x^4 + x^3/3 - 2*x/5 + 7/2",),
    ("x^5 + 1/2*x - 3/4",),
    ("3*x^6 + x + 1",),
    ("4*x^7 - 5",),
    ("x^2 - 2", (0, -1), (0, 0)),
    ("x^2 - 2", (0, Fraction(-1, 3)), (Fraction(1, 2), 0)),
]


def _reference_tower(spec):
    """QQ(a) for a one-entry spec; for three entries, QQ(g)(b) with the
    relative minimal polynomial x^2 + c1*x + c0, each ci = (p, q)
    standing for p + q*g."""
    field = make_extension(QQ, parse_polynomial(spec[0]))
    if len(spec) == 1:
        return field
    g = field.gen()
    c0, c1 = (field.coerce(p) + q * g for p, q in spec[1:])
    return make_extension(field, UniPoly(field, (c0, c1, field.one)))


def _random_element(rng, field):
    """Sparse-ish coordinates with small numerators and denominators."""
    if field.height == 2:
        return field.element([_random_element(rng, field.base)
                              for _ in range(field.degree)])
    return field.element([
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 12)))
        if rng.random() < 0.8 else 0 for _ in range(field.degree)])


def _assert_canonical(x):
    if x.field.height == 1:
        assert all(type(v) is int for v in x.vec)
        assert type(x.den) is int and x.den > 0
        assert gcd(x.den, *x.vec) == 1
        assert all(type(c) is Fraction for c in x.coeffs)
    else:
        for c in x.coeffs:
            _assert_canonical(c)


@pytest.mark.parametrize("spec", _REFERENCE_TOWERS,
                         ids=lambda s: "|".join(map(str, s)))
def test_arithmetic_matches_the_fraction_tuple_reference(spec):
    field = _reference_tower(spec)
    rng = random.Random(20261019)
    for _ in range(20):
        x, y = _random_element(rng, field), _random_element(rng, field)
        _assert_canonical(x)
        product = x * y
        _assert_canonical(product)
        assert product == reference_mul(x, y)
        assert (x + y).coeffs == tuple(a + b for a, b in
                                       zip(x.coeffs, y.coeffs))
        assert (x - y).coeffs == tuple(a - b for a, b in
                                       zip(x.coeffs, y.coeffs))
        assert (-x).coeffs == tuple(-a for a in x.coeffs)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        assert x * q == q * x == reference_mul(x, field.coerce(q))
        assert q - x == field.coerce(q) - x
        k = rng.randint(0, 4)
        power = field.one
        for _ in range(k):
            power = reference_mul(power, x)
        assert x ** k == power
        if x:
            inv = x.inverse()
            _assert_canonical(inv)
            assert inv == reference_inverse(x)
            assert reference_mul(x, inv) == field.one
            assert y / x == reference_mul(y, inv)
            assert x ** -k == (reference_inverse(power) if k else field.one)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        # equal values built along different paths are equal and hash so
        for z in (field.unflatten(field.flatten(x)), (x + y) - y,
                  field.element(x.coeffs)):
            assert z == x and hash(z) == hash(x)
        assert x != x + 1
        flat = field.flatten(x)
        assert len(flat) == field.qq_dim()
        assert all(type(c) is Fraction for c in flat)
        if field.height == 2:
            assert flat == [v for c in x.coeffs for v in
                            field.base.flatten(c)]
        assert x.canonical_key() == tuple((c.numerator, c.denominator)
                                          for c in flat)


@pytest.mark.parametrize("spec", _REFERENCE_TOWERS[:7],
                         ids=lambda s: s[0])
def test_reduction_is_a_ring_map_on_integer_vectors(spec):
    field = _reference_tower(spec)
    p, image = field.reduction()
    rng = random.Random(7)
    for _ in range(20):
        x, y = _random_element(rng, field), _random_element(rng, field)
        ix, iy = image(x), image(y)
        if ix is None or iy is None:
            assert x.den % p == 0 or y.den % p == 0
            continue
        assert image(x * y) == ix * iy % p
        assert image(x + y) == (ix + iy) % p


def test_is_rational_asks_the_base_coordinate_on_a_height_two_tower(
        quartic_report):
    report, _ = quartic_report
    emb = report.embedding
    ctx = TowerContext(emb)
    tower = ctx.tower
    g = tower.coerce(tower.base.gen())
    a = tower.gen()
    assert not any(g.coeffs[1:])
    assert not g.is_rational()
    with pytest.raises(ValueError, match="not rational"):
        g.rational_value()
    for x in (a, a * g, tower.coerce(3) - g / 2):
        assert not x.is_rational()
        with pytest.raises(ValueError, match="not rational"):
            x.rational_value()
    half = tower.coerce(Fraction(-7, 2))
    assert half.is_rational() and half.rational_value() == Fraction(-7, 2)
    assert render_field_element(g) == "(g)"
    assert render_field_element(half) == "-7/2"
    assert render_field_element(tower.coerce(3) - g / 2) == "(3 - 1/2*g)"
    assert render_field_element(a * g) == "(g)*a"
    # the same subfield comes back from g read in the ambient field
    again = primitive_element(emb.ambient, [ctx.flatten(g)])
    assert again.r == emb.r == 2 and again.minpoly == emb.minpoly


def test_inverse_of_a_zero_divisor_is_arithmetic_error():
    # x^2 - 1 is not irreducible, so a + 1 has no inverse
    K = FieldTower(QQ, "a", _P(-1, 0, 1))
    with pytest.raises(ArithmeticError, match="not irreducible"):
        (K.gen() + 1).inverse()


def test_inverse_of_a_zero_divisor_over_a_tower_is_arithmetic_error(qi):
    # x^2 + 1 factors over QQ(i), so b - i has no inverse in QQ(i)(b)
    T = FieldTower(qi, "b", _P(1, 0, 1).map_coefficients(qi.coerce, qi))
    with pytest.raises(ArithmeticError, match="not irreducible"):
        (T.gen() - qi.gen()).inverse()


def test_fields_imports_nothing_from_groebner():
    # roots and factors over an extension come from Trager's norm; a
    # restriction-of-scalars solve over QQ would need groebner
    source = repo_root() / "src" / "hypercircle" / "fields.py"
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            assert not any("groebner" in name for name in names)
