"""Scalar restriction of parametrizations and witness ideals."""

import random
from fractions import Fraction

import pytest

from helpers import parse_gens, random_rational_function

from hypercircle.descent import (
    Extension,
    Parametrization,
    alpha_decompose,
    alpha_layers,
    lift_to_tower,
    weil_substitute,
    witness_ideal,
)
from hypercircle.fields import QQ, make_extension
from hypercircle.groebner import (GroebnerBasis, buchberger, dimension,
                                  ideal_equal)
from hypercircle.mpoly import GREVLEX, MultiPoly
from hypercircle.upoly import RationalFunction, UniPoly


def _rf(field, num_coeffs, den_coeffs):
    return RationalFunction(UniPoly(field, num_coeffs), UniPoly(field, den_coeffs))


def _substituted(rf, ext):
    """Numerator and denominator of rf(t0 + a t1 + ...) over the tower."""
    sub = ext.substitution()
    tower = ext.tower
    n = ext.n

    def horner(p):
        acc = MultiPoly.zero(tower, n)
        for c in reversed(p.coeffs):
            acc = acc * sub + MultiPoly.const(tower, n, tower.coerce(c))
        return acc

    return horner(rf.num), horner(rf.den)


def _reconstruction_holds(rf, ext):
    """Sum of alpha layers over delta matches rf(t0 + a t1 + ...) exactly."""
    tower = ext.tower
    num_sub, den_sub = _substituted(rf, ext)
    layers, delta = alpha_decompose(num_sub, den_sub, ext)
    lhs = MultiPoly.zero(tower, ext.n)
    power = tower.one
    for layer in layers:
        lhs = lhs + lift_to_tower(layer, tower).scale(power)
        power = power * tower.gen()
    # layers / delta == num_sub / den_sub  <=>  lhs * den_sub == num_sub * delta
    return lhs * den_sub == num_sub * lift_to_tower(delta, tower)


def test_substitution_shape(qi_ext):
    sub = qi_ext.substitution()
    i = qi_ext.tower.gen()
    assert sub.terms == {(1, 0): qi_ext.tower.one, (0, 1): i}


def test_alpha_decompose_linear(qi, qi_ext):
    num, den = _substituted(_rf(qi, (qi.gen(), qi.one), (qi.one,)), qi_ext)
    layers, delta = alpha_decompose(num, den, qi_ext)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert delta == one
    assert layers[0] == t0 and layers[1] == t1 + one


def test_alpha_decompose_reciprocal(qi, qi_ext):
    # 1/(t + a): delta is the norm t0^2 + (t1+1)^2, layers the conjugate parts
    num, den = _substituted(_rf(qi, (qi.one,), (qi.gen(), qi.one)), qi_ext)
    layers, delta = alpha_decompose(num, den, qi_ext)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert delta == t0 * t0 + (t1 + one) * (t1 + one)
    assert layers[0] == t0
    assert layers[1] == -(t1 + one)


def test_alpha_decompose_square(qi, qi_ext):
    # t^2 under t -> t0 + a t1 splits into t0^2 - t1^2 and 2 t0 t1
    num, den = _substituted(_rf(qi, (qi.zero, qi.zero, qi.one), (qi.one,)), qi_ext)
    layers, delta = alpha_decompose(num, den, qi_ext)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    assert delta.is_constant()
    assert layers[0] == t0 * t0 - t1 * t1
    assert layers[1] == 2 * t0 * t1


def test_reconstruction_identity_samples(qi, qi_ext):
    rng = random.Random(42)
    for _ in range(8):
        rf = random_rational_function(rng, qi, max_deg=2)
        assert _reconstruction_holds(rf, qi_ext)


def test_reconstruction_identity_quartic(quartic):
    phi, ext = quartic
    rng = random.Random(43)
    for _ in range(4):
        rf = random_rational_function(rng, ext.tower, max_deg=2, span=2)
        assert _reconstruction_holds(rf, ext)
    for comp in phi.components():
        assert _reconstruction_holds(comp, ext)


def test_weil_substitute_shares_denominator(quartic):
    phi, ext = quartic
    res = weil_substitute(phi, ext)
    assert res.extension is ext
    assert len(res.numerators) == len(phi.numerators)
    assert all(len(layers) == ext.n for layers in res.numerators)
    assert not res.delta.is_zero()


def test_weil_substitute_rejects_foreign_field(qi, quartic):
    phi, ext = quartic
    with pytest.raises(ValueError):
        weil_substitute(phi, Extension(qi))


def test_witness_ideal_gaussian_positive(gaussian_cusp):
    phi, ext = gaussian_cusp
    gb, delta = witness_ideal(phi, ext)
    expected = parse_gens(["t0*t1 - t0", "t1^3 - 3*t1^2 + 3*t1 - 1"], 2)
    assert gb == expected
    assert dimension(gb) == 1
    # the line t1 = 1 lies inside the variety: substituting kills every generator
    s = MultiPoly.var(QQ, 1, 0)
    one = MultiPoly.const(QQ, 1, Fraction(1))
    for g in gb:
        assert g.substitute({0: s, 1: one}).is_zero()


def test_witness_ideal_gaussian_negative(gaussian_twist):
    phi, ext = gaussian_twist
    gb, delta = witness_ideal(phi, ext)
    assert ideal_equal(gb, parse_gens(["t1 + 1", "t0"], 2))
    assert dimension(gb) == 0


def test_witness_ideal_quartic_matches_reference(quartic):
    phi, ext = quartic
    gb, delta = witness_ideal(phi, ext)
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


def test_witness_ideal_of_rational_coefficient_square(qi, qi_ext):
    # t^2 has rational coefficients but its witness is the two axes t0 t1 = 0
    phi = Parametrization.from_components(
        [_rf(qi, (qi.zero, qi.zero, qi.one), (qi.one,))]
    )
    gb, delta = witness_ideal(phi, qi_ext)
    t0, t1 = MultiPoly.var(QQ, 2, 0), MultiPoly.var(QQ, 2, 1)
    assert gb == [t0 * t1]
    assert dimension(gb) == 1


def test_witness_ideal_of_constant_is_empty(qi, qi_ext):
    phi = Parametrization.from_components([_rf(qi, (qi.coerce(5), qi.one), (qi.one,))])
    # t + 5 keeps layer 1 equal to t1, so take a truly layer-free input instead
    phi0 = Parametrization.from_components([_rf(qi, (qi.coerce(5),), (qi.one,))])
    gb, delta = witness_ideal(phi0, qi_ext)
    assert gb == []


def _is_reduced_grevlex_basis(gb):
    return (isinstance(gb, GroebnerBasis) and gb.order == GREVLEX
            and gb == buchberger(list(gb), GREVLEX))


@pytest.mark.parametrize("curve", ["gaussian_cusp", "gaussian_twist",
                                   "quartic"])
def test_witness_ideal_is_its_reduced_grevlex_basis(request, curve):
    phi, ext = request.getfixturevalue(curve)
    gb, _ = witness_ideal(phi, ext)
    assert gb
    assert _is_reduced_grevlex_basis(gb)


def test_second_witness_is_its_reduced_grevlex_basis(quartic_report):
    report, _ = quartic_report
    assert report.second_witness
    assert _is_reduced_grevlex_basis(report.second_witness)


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
    phi, ext = quartic
    K = ext.tower
    a2 = K.coerce(3)
    b2 = K.gen()
    one_step = phi.compose_affine(a2, b2).compose_affine(K.coerce(2), K.one)
    combined = phi.compose_affine(a2 * 2, a2 + b2)
    assert one_step == combined


def test_alpha_layers_split_coefficients(quartic):
    phi, ext = quartic
    K = ext.tower
    p = MultiPoly.const(K, 1, K.gen())
    layers = alpha_layers(p, ext)
    assert len(layers) == ext.n
    assert layers[0].is_zero()
    assert layers[1] == MultiPoly.const(QQ, 1, Fraction(1))
    assert layers[2].is_zero() and layers[3].is_zero()
