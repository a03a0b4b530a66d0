"""Scalar restriction of parametrizations and witness ideals."""

import random
from fractions import Fraction

import pytest

from helpers import (alpha_layers, gen_hom, lift_to_tower, parse_gens,
                     random_field_element, random_rational_function,
                     substitute, substitution)

from hypercircle.descent import (
    Parametrization,
    alpha_decompose,
    weil_substitute,
    witness_ideal,
)
from hypercircle.exprparse import build_problem, parse_curve_file
from hypercircle.fields import (QQ, FieldElement, FieldTower,
                                make_extension, primitive_element,
                                TowerContext)
from hypercircle.groebner import (GroebnerBasis, PairBudgetExceededError,
                                  buchberger, dimension, ideal_equal,
                                  saturate)
from hypercircle.mpoly import GREVLEX, MultiPoly, Packing
from hypercircle.reparam import AffineShift, verify_reparametrization
from hypercircle.upoly import (RationalFunction, UniPoly,
                               sylvester_resultant_lists)


def _rf(field, num_coeffs, den_coeffs):
    return RationalFunction(UniPoly(field, num_coeffs), UniPoly(field, den_coeffs))


def _substituted(rf, tower):
    """Numerator and denominator of rf(t0 + a t1 + ...) over the tower."""
    sub = substitution(tower)
    n = tower.degree

    def horner(p):
        acc = MultiPoly.zero(tower, n)
        for c in reversed(p.coeffs):
            acc = acc * sub + MultiPoly.const(tower, n, tower.coerce(c))
        return acc

    return horner(rf.num), horner(rf.den)


def _recombines(num, den):
    """Sum of alpha layers of num/den over delta equals num/den exactly."""
    tower = den.field
    layers, delta = alpha_decompose(num, den)
    lhs = MultiPoly.zero(tower, num.arity)
    power = tower.one
    for layer in layers:
        lhs = lhs + lift_to_tower(layer, tower).scale(power)
        power = power * tower.gen()
    # layers / delta == num / den  <=>  lhs * den == num * delta
    return lhs * den == num * lift_to_tower(delta, tower)


def _reconstruction_holds(rf, tower):
    """Sum of alpha layers over delta matches rf(t0 + a t1 + ...) exactly."""
    return _recombines(*_substituted(rf, tower))


def test_substitution_shape(qi):
    sub = substitution(qi)
    i = qi.gen()
    assert sub.terms == {(1, 0): qi.one, (0, 1): i}


def test_alpha_decompose_linear(qi):
    num, den = _substituted(_rf(qi, (qi.gen(), qi.one), (qi.one,)), qi)
    layers, delta = alpha_decompose(num, den)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert delta == one
    assert layers[0] == t0 and layers[1] == t1 + one


def test_alpha_decompose_reciprocal(qi):
    # 1/(t + a): delta is the norm t0^2 + (t1+1)^2, layers the conjugate parts
    num, den = _substituted(_rf(qi, (qi.one,), (qi.gen(), qi.one)), qi)
    layers, delta = alpha_decompose(num, den)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert delta == t0 * t0 + (t1 + one) * (t1 + one)
    assert layers[0] == t0
    assert layers[1] == -(t1 + one)


def test_alpha_decompose_square(qi):
    # t^2 under t -> t0 + a t1 splits into t0^2 - t1^2 and 2 t0 t1
    num, den = _substituted(_rf(qi, (qi.zero, qi.zero, qi.one), (qi.one,)), qi)
    layers, delta = alpha_decompose(num, den)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    assert delta.is_constant()
    assert layers[0] == t0 * t0 - t1 * t1
    assert layers[1] == 2 * t0 * t1


def test_reconstruction_identity_samples(qi):
    rng = random.Random(42)
    for _ in range(8):
        rf = random_rational_function(rng, qi, max_deg=2)
        assert _reconstruction_holds(rf, qi)


def test_reconstruction_identity_quartic(quartic):
    phi = quartic
    rng = random.Random(43)
    for _ in range(4):
        rf = random_rational_function(rng, phi.field, max_deg=2, span=2)
        assert _reconstruction_holds(rf, phi.field)
    for comp in phi.components():
        assert _reconstruction_holds(comp, phi.field)


def test_weil_substitute_shares_denominator(quartic):
    phi = quartic
    delta, numerators = weil_substitute(phi)
    assert len(numerators) == len(phi.numerators)
    assert all(len(layers) == phi.field.degree for layers in numerators)
    assert not delta.is_zero()
    assert delta.field is phi.field.base


def test_witness_ideal_gaussian_positive(gaussian_cusp):
    phi = gaussian_cusp
    gb, delta = witness_ideal(phi)
    expected = parse_gens(["t0*t1 - t0", "t1^3 - 3*t1^2 + 3*t1 - 1"], 2)
    assert gb == expected
    assert dimension(gb) == 1
    # the line t1 = 1 lies inside the variety: substituting kills every generator
    s = MultiPoly.var(QQ, 1, 0)
    one = MultiPoly.const(QQ, 1, Fraction(1))
    for g in gb:
        assert substitute(g, {0: s, 1: one}).is_zero()


def test_witness_ideal_gaussian_negative(gaussian_twist):
    phi = gaussian_twist
    gb, delta = witness_ideal(phi)
    assert ideal_equal(gb, parse_gens(["t1 + 1", "t0"], 2))
    assert dimension(gb) == 0


def test_witness_ideal_quartic_matches_reference(quartic):
    phi = quartic
    gb, delta = witness_ideal(phi)
    reference = parse_gens(
        [
            "4*t2 + 12*t3 - 3",
            "5 + 2*t1 - 16*t3",
            "2*t0^2 + 24*t3*t0 + 80*t3^2 - 10*t0 - 52*t3 + 15",
        ],
        4,
    )
    assert ideal_equal(gb, reference)
    assert dimension(gb) == 1
    assert not delta.is_zero()


def test_witness_ideal_of_rational_coefficient_square(qi):
    # t^2 has rational coefficients but its witness is the two axes t0 t1 = 0
    phi = Parametrization.from_components(
        [_rf(qi, (qi.zero, qi.zero, qi.one), (qi.one,))]
    )
    gb, delta = witness_ideal(phi)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    assert gb == [t0 * t1]
    assert dimension(gb) == 1


def test_witness_ideal_of_constant_is_empty(qi):
    phi = Parametrization.from_components([_rf(qi, (qi.coerce(5), qi.one), (qi.one,))])
    # t + 5 keeps layer 1 equal to t1, so take a truly layer-free input instead
    phi0 = Parametrization.from_components([_rf(qi, (qi.coerce(5),), (qi.one,))])
    gb, delta = witness_ideal(phi0)
    assert gb == []


def _is_reduced_grevlex_basis(gb):
    return (isinstance(gb, GroebnerBasis) and gb.order == GREVLEX
            and gb == buchberger(list(gb), GREVLEX))


@pytest.mark.parametrize("curve", ["gaussian_cusp", "gaussian_twist",
                                   "quartic"])
def test_witness_ideal_is_its_reduced_grevlex_basis(request, curve):
    phi = request.getfixturevalue(curve)
    gb, _ = witness_ideal(phi)
    assert gb
    assert _is_reduced_grevlex_basis(gb)


def test_second_witness_is_its_reduced_grevlex_basis(quartic_report):
    report, _ = quartic_report
    assert report.second_witness
    assert _is_reduced_grevlex_basis(report.second_witness)


def _reference_canonical(field, numerators, denominator):
    """The canonical (numerators, denominator), from scratch: the gcd of
    every polynomial divided out, then the denominator made monic."""
    common = denominator
    for f in numerators:
        common = common.gcd(f)
    nums = [f // common for f in numerators]
    den = denominator // common
    inv = field.one / den.leading()
    return tuple(f.scale(inv) for f in nums), den.scale(inv)


def _stored(phi):
    return phi.numerators, phi.denominator


def test_every_construction_is_canonical(qi, quartic, quartic_report):
    rng = random.Random(20261018)
    K = quartic.field
    conj = gen_hom(-qi.gen(), qi)
    report, _ = quartic_report
    ctx = TowerContext(report.embedding)
    for field, span in ((qi, 3), (K, 2)):
        for _ in range(6):
            comps = [random_rational_function(rng, field, 2, span)
                     for _ in range(rng.randint(1, 3))]
            phi = Parametrization.from_components(comps)
            # over the product of the denominators, not their lcm
            dens = [c.den for c in comps]
            prod = dens[0]
            for d in dens[1:]:
                prod = prod * d
            raw = [c.num * (prod // c.den) for c in comps]
            assert _stored(phi) == _reference_canonical(field, raw, prod)
            a = random_field_element(rng, field, span)
            while not a:
                a = random_field_element(rng, field, span)
            b = random_field_element(rng, field, span)
            shifted = phi.compose_affine(a, b)
            raw = [f.shift_compose(a, b) for f in phi.numerators]
            assert _stored(shifted) == _reference_canonical(
                field, raw, phi.denominator.shift_compose(a, b))
            hom, target = (conj, qi) if field is qi else (ctx.to_tower,
                                                          ctx.tower)
            mapped = phi.map_coefficients(hom, target)
            raw = [f.map_coefficients(hom, target) for f in phi.numerators]
            assert _stored(mapped) == _reference_canonical(
                target, raw, phi.denominator.map_coefficients(hom, target))
    # the lift of a good shift: the report's, precomposed over the subfield
    emb = report.embedding
    base = report.shift
    for _ in range(4):
        c = emb.push(random_field_element(rng, emb.subfield))
        d = emb.push(random_field_element(rng, emb.subfield))
        if not c:
            continue
        shift = AffineShift(K, base.a * c, base.a * d + base.b)
        got = verify_reparametrization(quartic, shift, emb)
        assert got.field is emb.subfield
        assert _stored(got) == _reference_canonical(got.field, *_stored(got))


def test_parametrization_normalizes():
    f = _rf(QQ, (0, 0, 2), (0, 2))  # 2t^2 / 2t reduces to t
    phi = Parametrization.from_components([f])
    assert phi.components()[0] == _rf(QQ, (0, 1), (1,))
    assert phi.denominator.is_monic()


def test_parametrization_from_components_merges_denominators(qi):
    i = qi.gen()
    c1 = _rf(qi, (qi.one,), (i, qi.one))
    c2 = _rf(qi, (qi.one,), (-i, qi.one))
    phi = Parametrization.from_components([c1, c2])
    assert phi.denominator.degree() == 2
    assert phi.components() == [c1, c2]


def test_compose_affine(qi):
    i = qi.gen()
    c = _rf(qi, (qi.zero, qi.zero, qi.one), (qi.one,))  # t^2
    phi = Parametrization.from_components([c])
    shifted = phi.compose_affine(qi.coerce(2), i)
    # (2t + i)^2 = 4t^2 + 4it - 1
    expect = _rf(qi, (qi.coerce(-1), 4 * i, qi.coerce(4)), (qi.one,))
    assert shifted.components() == [expect]
    with pytest.raises(ValueError):
        phi.compose_affine(qi.zero, i)


def test_compose_affine_is_functorial(quartic):
    phi = quartic
    K = phi.field
    a2 = K.coerce(3)
    b2 = K.gen()
    one_step = phi.compose_affine(a2, b2).compose_affine(K.coerce(2), K.one)
    combined = phi.compose_affine(a2 * 2, a2 + b2)
    assert one_step == combined


def test_alpha_layers_split_coefficients(quartic):
    K = quartic.field
    p = MultiPoly.const(K, 1, K.gen())
    layers = alpha_layers(p)
    assert len(layers) == K.degree
    assert layers[0].is_zero()
    assert layers[1] == MultiPoly.const(QQ, 1, Fraction(1))
    assert layers[2].is_zero() and layers[3].is_zero()


# ---------------------------------------------------------------------------
# delta against its definition as a Sylvester resultant


def _sylvester_delta(den):
    """Res_x(minpoly, sum_k layer_k x^k) by Bareiss over MultiPoly entries."""
    layers = alpha_layers(den)
    while len(layers) > 1 and layers[-1].is_zero():
        layers.pop()
    arity = den.arity
    base = den.field.base
    zero = MultiPoly.zero(base, arity)
    one = MultiPoly.const(base, arity, base.one)
    mc = [MultiPoly.const(base, arity, c)
          for c in den.field.minpoly.coeffs]
    return sylvester_resultant_lists(mc, layers, zero, one)


def _all_fractions(p):
    """Every rational inside p's coefficients is a Fraction, not an int."""
    def ok(c):
        if isinstance(c, FieldElement):
            return all(ok(x) for x in c.coeffs)
        return type(c) is Fraction
    return all(ok(c) for c in p.terms.values())


def _binomial_tower(n):
    """QQ(a) with a^n = 2, irreducible by Eisenstein at 2."""
    return FieldTower(QQ, "a", UniPoly(QQ, (-2,) + (0,) * (n - 1) + (1,)))


def _sextic_over_subfield(k):
    """QQ(g)(a) with a^6 = 3 and g = a^k, as the second descent builds it."""
    ambient = make_extension(QQ, UniPoly(QQ, (-3, 0, 0, 0, 0, 0, 1)), "a")
    return TowerContext(primitive_element(ambient, [ambient.gen() ** k])).tower


ORACLE_TOWERS = {
    "a^2=2": lambda: _binomial_tower(2),
    "a^3=2": lambda: _binomial_tower(3),
    "a^4=2": lambda: _binomial_tower(4),
    "a^5=2": lambda: _binomial_tower(5),
    # 15 x^3 - 5 x + 3 is Eisenstein at 5 after reversal; its fractions
    # make the rows of the multiplication matrix clear by different L_r
    "a^3=a/3-1/5": lambda: make_extension(
        QQ, UniPoly(QQ, (Fraction(1, 5), Fraction(-1, 3), 0, 1)), "a"),
    "QQ(a^2)(a),a^6=3": lambda: _sextic_over_subfield(2),
    "QQ(a^3)(a),a^6=3": lambda: _sextic_over_subfield(3),
}


def _random_bivariate(rng, field, deg):
    """A polynomial in t0, t1 of total degree deg, small coefficients."""
    terms = {(i, j): random_field_element(rng, field, 2)
             for i in range(deg + 1) for j in range(deg + 1 - i)}
    terms[(deg, 0)] = field.one
    return MultiPoly(field, 2, terms)


@pytest.mark.parametrize("deg", [1, 2])
@pytest.mark.parametrize("tower", list(ORACLE_TOWERS))
def test_delta_is_the_sylvester_resultant(tower, deg):
    K = ORACLE_TOWERS[tower]()
    rng = random.Random(f"{tower}:{deg}")
    for _ in range(2):
        num = _random_bivariate(rng, K, 2)
        den = _random_bivariate(rng, K, deg)
        layers, delta = alpha_decompose(num, den)
        assert delta == _sylvester_delta(den)
        assert _recombines(num, den)
        assert all(_all_fractions(p) for p in layers + [delta])


@pytest.mark.parametrize("tower", ["a^3=2", "a^3=a/3-1/5",
                                   "QQ(a^3)(a),a^6=3"])
def test_substituted_delta_is_the_sylvester_resultant(tower):
    K = ORACLE_TOWERS[tower]()
    rng = random.Random(tower)
    for _ in range(2):
        rf = random_rational_function(rng, K, max_deg=2, span=2)
        num, den = _substituted(rf, K)
        layers, delta = alpha_decompose(num, den)
        assert delta == _sylvester_delta(den)
        assert _reconstruction_holds(rf, K)
        assert all(_all_fractions(p) for p in layers + [delta])


# ---------------------------------------------------------------------------
# packed monomials: the width boundary and the substitution on layers


def test_packed_width_boundary_is_exact():
    # n = 4, a linear denominator and a degree-4 numerator: the degree
    # bound max(4 * 1, 4 + 3 * 1) = 7 = 2^3 - 1 fills the 3 bits below
    # each guard bit, and the numerator times the cofactor reaches t0^7
    from hypercircle.descent import _degree_bound
    assert _degree_bound(4, 4, 1) == 7
    pk = Packing(2, 7)
    assert pk.guard == 0b10001000
    assert not pk.pack((7, 0)) & pk.guard
    assert pk.unpack(pk.pack((7, 0))) == (7, 0)
    assert pk.unpack(pk.pack((3, 0)) + pk.pack((4, 0))) == (7, 0)
    K = ORACLE_TOWERS["a^4=2"]()
    rng = random.Random("width")
    for _ in range(2):
        num = _random_bivariate(rng, K, 4)
        den = _random_bivariate(rng, K, 1)
        layers, delta = alpha_decompose(num, den)
        assert max(p.total_degree() for p in layers) == 7
        assert max(p.degree_in(0) for p in layers) == 7
        assert delta == _sylvester_delta(den)
        assert _recombines(num, den)


def _horner(f, sub):
    tower = sub.field
    acc = MultiPoly.zero(tower, sub.arity)
    for c in reversed(f.coeffs):
        acc = acc * sub + MultiPoly.const(tower, sub.arity, c)
    return acc


def _reference_weil(phi):
    """weil_substitute by tower arithmetic: Horner at the substitution,
    delta as the Sylvester resultant, and the layers of num * delta / den."""
    tower = phi.field
    sub = substitution(tower)
    den = _horner(phi.denominator, sub)
    delta = _sylvester_delta(den)
    lifted = lift_to_tower(delta, tower)
    return delta, [alpha_layers((_horner(f, sub) * lifted).exact_div(den))
                   for f in phi.numerators]


SUBSTITUTION_TOWERS = ["a^2=2", "a^3=2", "a^4=2", "a^5=2", "a^3=a/3-1/5",
                       "QQ(a^2)(a),a^6=3"]


@pytest.mark.parametrize("tower", SUBSTITUTION_TOWERS)
def test_weil_substitute_matches_tower_horner(tower):
    K = ORACLE_TOWERS[tower]()
    rng = random.Random(f"substitute:{tower}")
    max_deg = 2 if K.degree <= 3 else 1
    zero = RationalFunction(UniPoly.zero(K), UniPoly.const(K, K.one))
    for _ in range(2):
        comps = [random_rational_function(rng, K, max_deg=max_deg, span=2)
                 for _ in range(2)]
        phi = Parametrization.from_components(comps + [zero])
        delta, numerators = weil_substitute(phi)
        ref_delta, ref_numerators = _reference_weil(phi)
        assert delta == ref_delta
        assert numerators == ref_numerators
        assert all(p.is_zero() for p in numerators[-1])
        assert all(_all_fractions(p) for layers in numerators
                   for p in layers + [delta])


# ---------------------------------------------------------------------------
# the witness ideal by elimination, against saturation by the norm


def _saturation_witness(phi):
    """The witness ideal as I : delta^infinity: the layers a^1..a^(n-1)
    of every f_j * delta / g, saturated by the norm delta."""
    delta, numerators = weil_substitute(phi)
    gens = [p for layers in numerators for p in layers[1:]
            if not p.is_zero()]
    return saturate(gens, delta), delta


def _random_poly(rng, field, deg, rational):
    """Degree exactly deg, coefficients in QQ when rational is set."""
    source = QQ if rational else field
    coeffs = [field.coerce(random_field_element(rng, source, 2))
              for _ in range(deg + 1)]
    while not coeffs[-1]:
        coeffs[-1] = field.coerce(random_field_element(rng, source, 2))
    return UniPoly(field, coeffs)


def _random_parametrization(rng, field, count, deg_den, rational_den):
    den = _random_poly(rng, field, deg_den, rational_den)
    comps = [RationalFunction(_random_poly(rng, field, rng.randint(1, 2),
                                           False), den)
             for _ in range(count)]
    return Parametrization.from_components(comps)


WITNESS_FIELDS = {
    "x^2+1": lambda qi, quartic: qi,
    "x^3-2": lambda qi, quartic: _binomial_tower(3),
    "quartic": lambda qi, quartic: quartic.field,
}


@pytest.mark.parametrize("deg_den", [0, 1, 2])
@pytest.mark.parametrize("field", list(WITNESS_FIELDS))
def test_witness_ideal_equals_the_saturation(qi, quartic, field, deg_den):
    K = WITNESS_FIELDS[field](qi, quartic)
    rng = random.Random(f"witness:{field}:{deg_den}")
    # one component over a quadratic denominator takes the reference
    # saturation of the quartic several seconds
    counts = (2, 3) if K.degree == 4 and deg_den == 2 else (1, 2, 3)
    for count in counts:
        for rational in (True, False):
            if deg_den == 0 and not rational:
                continue  # a monic constant is rational
            phi = _random_parametrization(rng, K, count, deg_den, rational)
            assert phi.denominator.degree() == deg_den
            gb, delta = witness_ideal(phi)
            assert (gb, delta) == _saturation_witness(phi)
            assert _is_reduced_grevlex_basis(gb)


def _over_subfield(phi, report):
    """phi over QQ(g)(a), as the second descent writes it."""
    ctx = TowerContext(report.embedding)
    return phi.map_coefficients(ctx.to_tower, ctx.tower)


def test_second_witness_equals_the_saturation(quartic, quartic_report):
    report, _ = quartic_report
    phi2 = _over_subfield(quartic, report)
    gb, delta = witness_ideal(phi2)
    assert (gb, delta) == _saturation_witness(phi2)
    assert gb == report.second_witness and delta == report.second_delta
    rng = random.Random("second witness")
    for count, deg_den, rational in ((1, 1, False), (2, 1, True),
                                     (2, 2, False), (3, 0, True)):
        phi2 = _over_subfield(_random_parametrization(
            rng, quartic.field, count, deg_den, rational), report)
        assert witness_ideal(phi2) == _saturation_witness(phi2)


def test_witness_ideal_spends_the_pair_budget(quartic, quartic_report):
    report, _ = quartic_report
    for phi in (quartic, _over_subfield(quartic, report)):
        with pytest.raises(PairBudgetExceededError):
            witness_ideal(phi, budget=1)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_doubled_reciprocal_power_equals_the_saturation(k):
    # saturating by its norm, of degree 3k, took minutes from k = 8 on
    phi = build_problem(parse_curve_file(
        f"minpoly = x^3 - 2\nx1 = (1/t + 1/t)^{k}\n"))
    assert witness_ideal(phi) == _saturation_witness(phi)
