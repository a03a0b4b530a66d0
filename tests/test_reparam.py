"""The optimal affine reparametrization pipeline."""

import random
from fractions import Fraction

import pytest

from helpers import parse_field_element, parse_gens, random_field_element

from hypercircle.descent import Parametrization
from hypercircle.exprparse import parse_component
from hypercircle.fields import QQ, roots_in_field, trivial_embedding
from hypercircle.groebner import (PositiveDimensionalError, ideal_equal,
                                  linear_part)
from hypercircle.hypercircles import InternalInconsistencyError
from hypercircle.mpoly import MultiPoly
from hypercircle.reparam import (
    AffineShift,
    _line_in_variety,
    coefficient_field_degree,
    optimal_affine_reparametrize,
    parametrize_line,
    verify_reparametrization,
)
from hypercircle.upoly import RationalFunction, UniPoly


def test_line_in_variety_raises_the_line_to_each_power():
    # (t1 - 2*t0 - 1) * t0^2 vanishes on t -> (t, 2t + 1); t0^2 - t1 and
    # t0^3 do not
    t0 = MultiPoly.var(QQ, 2, 0)
    t1 = MultiPoly.var(QQ, 2, 1)
    on_line = (t1 - 2 * t0 - 1) * t0 ** 2
    psi = [UniPoly(QQ, (0, 1)), UniPoly(QQ, (1, 2))]
    assert _line_in_variety([on_line], psi, QQ)
    assert not _line_in_variety([on_line, t0 ** 2 - t1], psi, QQ)
    assert not _line_in_variety([t0 ** 3], psi, QQ)


def test_affine_shift_validation(qi):
    with pytest.raises(ValueError):
        AffineShift(qi, qi.zero, qi.one)
    s = AffineShift.identity(qi)
    assert s.as_unipoly() == UniPoly(qi, (qi.zero, qi.one))
    assert s == AffineShift(qi, 1, 0)
    assert s != AffineShift(qi, 1, qi.gen())


def test_quartic_success_and_degree_drop(quartic, quartic_report):
    phi = quartic
    report, elapsed = quartic_report
    assert report.succeeded
    assert report.r == 2
    assert coefficient_field_degree(phi) == 4
    assert coefficient_field_degree(report.reparametrized) == 2
    assert elapsed < 60


def test_quartic_shift(quartic, quartic_report):
    phi = quartic
    report, _ = quartic_report
    K = phi.field
    expect_b = parse_field_element("6 - 17/2*a + 3*a^2 - 3/4*a^3", K)
    assert report.shift == AffineShift(K, K.one, expect_b)
    assert verify_reparametrization(phi, report.shift, report.embedding)


def test_quartic_embedding(quartic_report):
    report, _ = quartic_report
    emb = report.embedding
    assert emb.minpoly == UniPoly(QQ, (40, 12, 1))
    ambient = emb.ambient
    assert emb.gamma == parse_field_element("-12 + 8*a - 3*a^2 + a^3",
                                            ambient)


def test_quartic_relative_minpoly(quartic_report):
    report, _ = quartic_report
    rel = report.relative_minpoly
    g = report.embedding.subfield.gen()
    sub = report.embedding.subfield
    assert list(rel.coeffs) == [sub.coerce(-4) - g, sub.coerce(4) + g,
                                sub.one]
    # the relative minimal polynomial annihilates the ambient generator
    ambient = report.embedding.ambient
    acc = ambient.zero
    power = ambient.one
    for c in rel.coeffs:
        acc = acc + report.embedding.push(c) * power
        power = power * ambient.gen()
    assert not acc


def test_quartic_second_witness_line(quartic_report):
    report, _ = quartic_report
    sub = report.embedding.subfield
    rows = linear_part(report.second_witness)
    expect = parse_gens(["t1 + 11/2"], 2)[0].map_coefficients(
        sub.coerce, sub)
    g = sub.gen()
    expect = expect + parse_gens(["1"], 2)[0].map_coefficients(
        lambda c: Fraction(3, 4) * c * g, sub)
    assert rows == [expect]


def test_quartic_reparametrized_components(quartic_report):
    report, _ = quartic_report
    sub = report.embedding.subfield
    expect = [
        parse_component(
            "(-t^2 + (5 + 1/2*g)*t + (-7/2 - 1/2*g))/(t + (-5/2 - 1/4*g))",
            sub),
        parse_component(
            "((-3 - 1/2*g)*t^2 + (5 + g)*t + (-2 - 1/2*g))/(t + (-5/2 - 1/4*g))",
            sub),
    ]
    assert report.reparametrized.components() == expect


def test_quartic_second_run_is_stable(quartic_report):
    report, _ = quartic_report
    phi2 = report.reparametrized
    sub = phi2.field
    second = optimal_affine_reparametrize(phi2)
    assert second.succeeded
    assert second.r == 2
    assert second.shift == AffineShift.identity(phi2.field)
    out = second.reparametrized
    assert coefficient_field_degree(out) == 2
    # output equals the input after relabeling g by a conjugate root
    target = out.field
    roots = roots_in_field(UniPoly(QQ, (40, 12, 1)), target)
    matched = False
    for root in roots:
        def hom(c, root=root):
            acc = target.zero
            power = target.one
            for q in c.coeffs:
                acc = acc + power * target.coerce(q)
                power = power * root
            return acc
        if phi2.map_coefficients(hom, target) == out:
            matched = True
    assert matched


def test_full_degree_witness_keeps_field(qi):
    # ((it+1)/t)^2 and ^3: the witness is a full hypercircle, r = n = 2
    i = qi.gen()
    c1 = RationalFunction(UniPoly(qi, (qi.one, 2 * i, qi.coerce(-1))),
                          UniPoly(qi, (qi.zero, qi.zero, qi.one)))
    c2 = RationalFunction(
        UniPoly(qi, (qi.one, 3 * i, qi.coerce(-3), -i)),
        UniPoly(qi, (qi.zero, qi.zero, qi.zero, qi.one)))
    phi = Parametrization.from_components([c1, c2])
    report = optimal_affine_reparametrize(phi)
    assert report.succeeded
    assert report.r == 2
    assert report.shift == AffineShift.identity(qi)
    expect = parse_gens(
        ["t0^3 + t0*t1^2 - t0*t1",
         "t0^2*t1^2 + t1^4 - 2*t0^2*t1 - 3*t1^3 + t0^2 + 3*t1^2 - t1"], 2)
    assert ideal_equal(report.witness, expect)
    pts = {tuple(p.coords) for p in report.infinity_points}
    assert pts == {(i, qi.one, qi.zero), (-i, qi.one, qi.zero)}
    assert coefficient_field_degree(report.reparametrized) == 2


def test_gaussian_cusp_reparametrizes_over_q(gaussian_cusp):
    phi = gaussian_cusp
    qi = phi.field
    report = optimal_affine_reparametrize(phi)
    assert report.succeeded
    assert report.r == 1
    assert report.embedding.subfield is QQ
    assert report.shift == AffineShift(qi, qi.one, qi.gen())
    t2 = RationalFunction(UniPoly(QQ, (0, 0, 1)), UniPoly(QQ, (1,)))
    t3 = RationalFunction(UniPoly(QQ, (0, 0, 0, 1)), UniPoly(QQ, (1,)))
    assert report.reparametrized.components() == [t2, t3]
    assert coefficient_field_degree(phi) == 2
    assert coefficient_field_degree(report.reparametrized) == 1


def test_gaussian_twist_fails_with_dimension_zero(gaussian_twist):
    phi = gaussian_twist
    report = optimal_affine_reparametrize(phi)
    assert not report.succeeded
    assert report.status == "fail"
    assert report.dimension == 0
    assert report.infinity_points == []
    assert "no points at infinity" in report.fail_reason


def test_rational_input_short_circuits(qi):
    t2 = RationalFunction(UniPoly(qi, (qi.zero, qi.zero, qi.one)),
                          UniPoly(qi, (qi.one,)))
    phi = Parametrization.from_components([t2])
    report = optimal_affine_reparametrize(phi)
    assert report.succeeded
    assert report.r == 1
    assert report.shift == AffineShift.identity(qi)
    assert report.witness == []
    assert report.delta is None
    assert report.reparametrized.field is QQ


def test_random_shifts_never_beat_the_optimum(quartic):
    phi = quartic
    K = phi.field
    rng = random.Random(7)
    tried = 0
    while tried < 3:
        b = random_field_element(rng, K)
        if b.is_rational():
            continue
        shifted = phi.compose_affine(K.one, b)
        assert coefficient_field_degree(shifted) >= 2
        tried += 1


def test_parametrize_line_from_linear_part():
    gens = parse_gens(["t1 - 1"], 2)
    psi = parametrize_line(gens, 2, QQ)
    assert psi == [UniPoly(QQ, (0, 1)), UniPoly(QQ, (1,))]


def test_parametrize_line_from_direction_slice():
    gens = parse_gens(["t0*t1 - t0", "t1^3 - 3*t1^2 + 3*t1 - 1"], 2)
    assert linear_part(gens) == []
    psi = parametrize_line(gens, 2, QQ, directions=[(Fraction(1),
                                                     Fraction(0))])
    assert psi == [UniPoly(QQ, (0, 1)), UniPoly(QQ, (1,))]


def test_parametrize_line_failure_modes():
    circle = parse_gens(["t0^2 + t1^2 + t1"], 2)
    with pytest.raises(ValueError, match="line extraction failed"):
        parametrize_line(circle, 2, QQ)
    point = parse_gens(["t0", "t1"], 2)
    with pytest.raises(InternalInconsistencyError):
        parametrize_line(point, 2, QQ)


def test_parametrize_line_positive_dimensional_slice_is_internal():
    # the zero ideal sliced by t0 = 0 leaves t1 free
    assert not issubclass(PositiveDimensionalError, ValueError)
    with pytest.raises(InternalInconsistencyError) as info:
        parametrize_line([], 2, QQ, [(Fraction(1), Fraction(0))])
    assert isinstance(info.value.__cause__, PositiveDimensionalError)


def test_verify_reparametrization_rejects_bad_shift(quartic):
    phi = quartic
    K = phi.field
    emb = trivial_embedding(K)
    assert not verify_reparametrization(phi, AffineShift.identity(K), emb)


@pytest.mark.parametrize("name", ["quartic", "gaussian_cusp",
                                  "gaussian_twist"])
def test_verify_reparametrization_matches_component_membership(request,
                                                               name):
    phi = request.getfixturevalue(name)
    K = phi.field
    report = optimal_affine_reparametrize(phi)
    embs = [trivial_embedding(K)]
    if report.succeeded:
        embs.append(report.embedding)
    base = report.shift if report.succeeded else AffineShift.identity(K)
    rng = random.Random(31)
    for emb in embs:
        for _ in range(8):
            # precomposing a good shift with c*t + d over the subfield
            # keeps it good; a random shift almost never is
            c = emb.push(random_field_element(rng, emb.subfield))
            d = emb.push(random_field_element(rng, emb.subfield))
            if rng.random() < 0.5:
                c = c + random_field_element(rng, K)
            if not c:
                continue
            shift = AffineShift(K, base.a * c, base.a * d + base.b)
            composed = phi.compose_affine(shift.a, shift.b)
            expected = all(emb.membership(x) is not None
                           for comp in composed.components()
                           for x in comp.num.coeffs + comp.den.coeffs)
            got = verify_reparametrization(phi, shift, emb)
            assert bool(got) == expected
            if got:
                assert got.field is emb.subfield
                assert got.map_coefficients(emb.push, K) == composed
