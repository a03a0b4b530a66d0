"""Hypercircles, points at infinity, and the degree of the point field."""

import random
from fractions import Fraction

import pytest

from helpers import homogenize, parse_gens, points_at_infinity_by_charts

from hypercircle import hypercircles
from hypercircle.descent import Parametrization, witness_ideal
from hypercircle.fields import QQ, TowerContext, make_extension
from hypercircle.groebner import (GREVLEX, PositiveDimensionalError,
                                  buchberger, triangular_solve)
from hypercircle.hypercircles import (
    InternalInconsistencyError,
    LinearFraction,
    ProjectivePoint,
    hypercircle_degree_field,
    points_at_infinity,
    primitive_infinity_point,
    unit_to_hypercircle,
)
from hypercircle.mpoly import MultiPoly
from hypercircle.upoly import RationalFunction, UniPoly


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
            gh = homogenize(g).map_coefficients(K.coerce, K)
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


def _known_answer_curve(rng, n, with_den=False):
    """A QQ curve with polynomial components of coprime degrees (2, 3),
    hence proper, pushed into QQ(a), a^n = +-p, by t -> t + b: its
    witness variety holds a line and junk points.  With a denominator
    both components are divided by t - 7 first."""
    p = rng.choice((2, 3, 5)) * rng.choice((-1, 1))
    tower = make_extension(QQ, UniPoly(QQ, [p] + [0] * (n - 1) + [1]), "a")
    nums = []
    for deg in (2, 3):
        coeffs = [rng.randint(-3, 3) for _ in range(deg)]
        coeffs.append(rng.choice((-2, -1, 1, 2)))
        nums.append(UniPoly(tower, [tower.coerce(c) for c in coeffs]))
    if with_den:
        den = UniPoly(tower, (-7, 1))
        phi = Parametrization.from_components([RationalFunction(f, den)
                                               for f in nums])
    else:
        phi = Parametrization(tower, nums, UniPoly.const(tower, tower.one))
    b = tower.element(tuple(Fraction(rng.choice((-1, 1)))
                            for _ in range(n)))
    return phi.compose_affine(tower.one, b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2])
def test_points_at_infinity_match_chart_by_chart_lex(monkeypatch, n, seed):
    phi = _known_answer_curve(random.Random(100 * n + seed), n)
    gb, _ = witness_ideal(phi)
    assert max(g.total_degree() for g in gb) > 1  # junk beside the line
    solved = []

    def recording(system, nvars, *args):
        solved.append(nvars)
        return triangular_solve(system, nvars, *args)

    monkeypatch.setattr(hypercircles, "triangular_solve", recording)
    pts = points_at_infinity(gb, phi.field)
    assert pts == points_at_infinity_by_charts(gb, phi.field)
    # the point is [1 : 0 : ... : 0]; every chart above holds a constant
    assert pts == [ProjectivePoint(phi.field, [phi.field.one]
                                   + [phi.field.zero] * n)]
    assert solved == [0]


def test_points_at_infinity_match_reference_on_the_quartic(quartic_report):
    report, _ = quartic_report
    K = report.embedding.ambient
    assert (points_at_infinity(report.witness, K)
            == points_at_infinity_by_charts(report.witness, K))
    tower = TowerContext(report.embedding).tower
    pts = points_at_infinity(report.second_witness, tower)
    assert pts
    assert pts == points_at_infinity_by_charts(report.second_witness, tower)


@pytest.mark.parametrize("gens", [
    # the upper chart t1 = 1 is empty; the point is in the lower chart
    ["t0 - t1^2"],
    # the upper chart's points (t0^2 = 2) lie outside QQ(i)
    ["t1*(t0^2 - 2*t1^2) + 1"],
])
def test_points_at_infinity_lower_chart_matches_reference(qi, gens):
    gens = parse_gens(gens, 2)
    pts = points_at_infinity(gens, qi)
    assert pts == [ProjectivePoint(qi, [qi.one, qi.zero, qi.zero])]
    assert pts == points_at_infinity_by_charts(gens, qi)


def test_points_at_infinity_positive_dimensional_chart_is_internal(qi):
    # at infinity t0*t1 = 0 leaves a line in the chart t2 = 1
    gens = parse_gens(["t0*t1 + t2"], 3)
    for solve in (points_at_infinity, points_at_infinity_by_charts):
        with pytest.raises(InternalInconsistencyError) as info:
            solve(gens, qi)
        assert isinstance(info.value.__cause__, PositiveDimensionalError)


@pytest.mark.parametrize("gens, calls", [
    (["t0", "t1"], 0),  # both charts hold a constant
    (["t1 - 1"], 1),  # t1 = 1 gives the constant 1; only t0 = 1 solves
    (["t0 - t1^2"], 1),
    (["t0^2 + t1^2 + t1"], 1),  # the first chart has points
])
def test_points_at_infinity_solves_no_chart_holding_a_constant(
        monkeypatch, qi, gens, calls):
    seen = []

    def counting(*args, **kw):
        seen.append(args)
        return triangular_solve(*args, **kw)

    monkeypatch.setattr(hypercircles, "triangular_solve", counting)
    points_at_infinity(parse_gens(gens, 2), qi)
    assert len(seen) == calls


def _assert_slices_match_substitution(gens):
    """The top forms, charts and restrictions of points_at_infinity
    equal the homogenized basis at h = 0 and its substitutions
    x_k = 1 and x_k = 0, at every k."""
    gb = buchberger(gens, GREVLEX)
    field = gb[0].field
    m = gb[0].arity
    top = [hypercircles._top_form(g) for g in gb]
    assert top == [homogenize(g).assign_value(m, field.zero) for g in gb]
    for k in range(m - 1, -1, -1):
        assert ([hypercircles._chart(g, k) for g in top]
                == [g.assign_value(k, field.one) for g in top])
        restricted = [hypercircles._restrict(g, k) for g in top]
        assert restricted == [g.assign_value(k, field.zero) for g in top]
        top = [h for h in restricted if not h.is_zero()]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("with_den", [False, True])
def test_charts_are_the_substituted_top_forms(n, with_den):
    rng = random.Random(f"charts:{n}:{with_den}")
    gb, _ = witness_ideal(_known_answer_curve(rng, n, with_den))
    assert max(g.total_degree() for g in gb) > 1
    _assert_slices_match_substitution(gb)


def test_charts_of_the_second_witness_are_the_substituted_top_forms(
        quartic_report):
    report, _ = quartic_report
    assert report.second_witness[0].field.height == 1  # over QQ(g)
    _assert_slices_match_substitution(report.second_witness)


def test_points_at_infinity_substitutes_nothing(monkeypatch, quartic_report):
    report, _ = quartic_report
    tower = TowerContext(report.embedding).tower
    rng = random.Random("charts:spy")
    cases = [(report.witness, report.embedding.ambient),
             (report.second_witness, tower)]
    for n in (2, 3):
        phi = _known_answer_curve(rng, n, with_den=n == 3)
        cases.append((witness_ideal(phi)[0], phi.field))
    expected = [points_at_infinity_by_charts(gens, field)
                for gens, field in cases]

    def refuse(*args):
        raise AssertionError("points_at_infinity substituted a value")

    monkeypatch.setattr(MultiPoly, "assign_value", refuse)
    assert [points_at_infinity(gens, field)
            for gens, field in cases] == expected
