"""Hypercircles, points at infinity, and the degree of the point field."""

from fractions import Fraction

import pytest

from helpers import parse_gens

from hypercircle.fields import QQ
from hypercircle.hypercircles import (
    InternalInconsistencyError,
    LinearFraction,
    ProjectivePoint,
    hypercircle_degree_field,
    points_at_infinity,
    primitive_infinity_point,
    unit_to_hypercircle,
)
from hypercircle.upoly import RationalFunction, UniPoly
from hypercircle.descent import witness_ideal


def _lift_unipoly(p, tower):
    return UniPoly(tower, [tower.coerce(c) for c in p.coeffs])


def _traces_unit(components, unit):
    """sum_i psi_i(t) a^i equals (a t + b)/(c t + d) over the tower."""
    tower = unit.field
    den = _lift_unipoly(components[0].den, tower)
    acc = UniPoly(tower, (tower.zero,))
    power = tower.one
    for comp in components:
        # components share one denominator up to reduction; recombine exactly
        scaled_num = _lift_unipoly(comp.num, tower)
        q, rem = den.divrem(_lift_unipoly(comp.den, tower))
        assert rem.is_zero()
        acc = acc + scaled_num * q * UniPoly(tower, (power,))
        power = power * tower.gen()
    lhs_num = UniPoly(tower, (unit.b, unit.a))
    lhs_den = UniPoly(tower, (unit.d, unit.c))
    return acc * lhs_den == lhs_num * den


def test_unit_identity(qi):
    comps = unit_to_hypercircle(LinearFraction(qi, 1, 0, 0, 1))
    t = UniPoly(QQ, (0, 1))
    one = UniPoly(QQ, (1,))
    zero = UniPoly(QQ, ())
    assert comps == [RationalFunction(t, one), RationalFunction(zero, one)]


def test_unit_translation(qi):
    comps = unit_to_hypercircle(LinearFraction(qi, 1, qi.gen(), 0, 1))
    t = UniPoly(QQ, (0, 1))
    one = UniPoly(QQ, (1,))
    assert comps == [RationalFunction(t, one), RationalFunction(one, one)]


def test_unit_inversion(qi):
    # 1/(t + a) traces (t/(t^2+1), -1/(t^2+1))
    comps = unit_to_hypercircle(LinearFraction(qi, 0, 1, 1, qi.gen()))
    t = UniPoly(QQ, (0, 1))
    circle_den = UniPoly(QQ, (1, 0, 1))
    assert comps == [RationalFunction(t, circle_den),
                     RationalFunction(UniPoly(QQ, (-1,)), circle_den)]


def test_unit_roundtrip_gaussian(qi):
    unit = LinearFraction(qi, qi.coerce(2), qi.gen(), qi.one, qi.coerce(3))
    comps = unit_to_hypercircle(unit)
    assert _traces_unit(comps, unit)


def test_unit_roundtrip_quartic(quartic):
    K = quartic.field
    unit = LinearFraction(K, K.one, K.gen(), K.gen() * K.gen(), K.coerce(1))
    comps = unit_to_hypercircle(unit)
    assert len(comps) == 4
    assert _traces_unit(comps, unit)


def test_linear_fraction_degenerate(qi):
    with pytest.raises(ValueError):
        LinearFraction(qi, 1, 2, 2, 4)


def test_projective_point_normalization(qi):
    p = ProjectivePoint(qi, [qi.coerce(4), qi.coerce(2), qi.zero])
    assert p.coords == (qi.coerce(2), qi.one, qi.zero)
    with pytest.raises(ValueError):
        ProjectivePoint(qi, [qi.zero, qi.zero])


def test_primitive_infinity_point_gaussian(qi):
    p = primitive_infinity_point(qi)
    assert p.coords == (qi.gen(), qi.one, qi.zero)


def test_primitive_infinity_point_quartic(quartic):
    K = quartic.field
    a = K.gen()
    # coefficients of minpoly(t) / (t - a) by synthetic division
    expect = (
        K.coerce(-16) + 12 * a - 4 * a * a + a * a * a,
        K.coerce(12) - 4 * a + a * a,
        K.coerce(-4) + a,
        K.one,
        K.zero,
    )
    assert primitive_infinity_point(K).coords == expect


def test_primitive_point_lies_on_every_hypercircle(qi):
    # implicit curve of the unit 1/(t + a) is t0^2 + t1^2 + t1 = 0
    gens = parse_gens(["t0^2 + t1^2 + t1"], 2)
    pts = points_at_infinity(gens, qi)
    assert primitive_infinity_point(qi) in pts
    i = qi.gen()
    assert set(pts) == {
        ProjectivePoint(qi, [i, qi.one, qi.zero]),
        ProjectivePoint(qi, [-i, qi.one, qi.zero]),
    }
    assert pts == sorted(pts, key=ProjectivePoint.sort_key)


def test_points_at_infinity_of_line(qi):
    pts = points_at_infinity(parse_gens(["t1 - 1"], 2), qi)
    assert pts == [ProjectivePoint(qi, [qi.one, qi.zero, qi.zero])]


def test_points_at_infinity_empty_for_origin(qi):
    assert points_at_infinity(parse_gens(["t0", "t1"], 2), qi) == []


def test_points_at_infinity_requires_generators(qi):
    with pytest.raises(InternalInconsistencyError):
        points_at_infinity([], qi)


def test_quartic_witness_infinity_points(quartic):
    phi = quartic
    K = phi.field
    gb, _ = witness_ideal(phi)
    pts = points_at_infinity(gb, K)
    a = K.gen()
    gammas = [
        -4 * a + Fraction(3, 2) * a * a - Fraction(1, 2) * a * a * a,
        K.coerce(-6) + 4 * a - Fraction(3, 2) * a * a
        + Fraction(1, 2) * a * a * a,
    ]
    expected = {
        ProjectivePoint(K, [2 * g, K.coerce(8), K.coerce(-3), K.one, K.zero])
        for g in gammas
    }
    assert set(pts) == expected
    assert pts == sorted(pts, key=ProjectivePoint.sort_key)
    # invariants: distinct, affine part killed at infinity, canonical scale
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert p.coords[-1] == K.zero
        for g in gb:
            gh = g.homogenize().map_coefficients(K.coerce, K)
            assert not gh.evaluate(list(p.coords))
        last = max(i for i, c in enumerate(p.coords) if c)
        assert p.coords[last] == K.one


def test_hypercircle_degree_field(quartic):
    phi = quartic
    K = phi.field
    gb, _ = witness_ideal(phi)
    pts = points_at_infinity(gb, K)
    pe = hypercircle_degree_field(pts)
    assert pe.r == 2
    assert pe.minpoly.degree() == 2
    # gamma generates the same field as the first point's coordinates
    for c in pts[0].coords[:-1]:
        assert pe.membership(c) is not None
    with pytest.raises(ValueError):
        hypercircle_degree_field([])
