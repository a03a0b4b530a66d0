"""The optimal affine reparametrization pipeline."""

import random
from fractions import Fraction

import pytest

from helpers import (mp_vars, parse_field_element, parse_gens,
                     random_field_element)

from hypercircle.descent import Parametrization
from hypercircle.exprparse import parse_component
from hypercircle.fields import (QQ, TowerContext, make_extension,
                                roots_in_field, trivial_embedding)
from hypercircle import reparam
from hypercircle.groebner import (PositiveDimensionalError, ideal_equal,
                                  linear_part, triangular_solve)
from hypercircle.hypercircles import (InternalInconsistencyError,
                                      ProjectivePoint, points_at_infinity)
from hypercircle.mpoly import MultiPoly
from hypercircle.reparam import (
    AffineShift,
    _line_in_variety,
    _point_directions,
    coefficient_field_degree,
    optimal_affine_reparametrize,
    parametrize_line,
    require_proper,
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


def test_line_in_variety_checks_curves_of_higher_degree():
    # t -> (t, t^2) lies on t1 - t0^2 but not on t1^2 - t0^3, t0^3 - t1
    # or t1 - t0, although t^2 - t vanishes at t = 0, 1
    parabola = [UniPoly(QQ, (0, 1)), UniPoly(QQ, (0, 0, 1))]
    on, cusp, cubic, diagonal = parse_gens(["t1 - t0^2", "t1^2 - t0^3",
                                            "t0^3 - t1", "t1 - t0"], 2)
    assert _line_in_variety([on, on * cusp], parabola, QQ)
    assert not _line_in_variety([on, cusp], parabola, QQ)
    assert not _line_in_variety([cubic], parabola, QQ)
    assert not _line_in_variety([diagonal], parabola, QQ)


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


@pytest.mark.parametrize("gens, directions, expect", [
    # the line t1 = -1 and two points off QQ, (1, -1 +- i/sqrt(2))
    (["(t0 - 1)*(t1 + 1)", "(t1 + 1)*(t1^2 + 2*t1 + 3/2)"], [(1, 0)],
     [(0, 1), (-1,)]),
    # the line t1 = -1 and rational junk (0, -2), (0, 3) on the slice t0 = 0
    (["t0*(t1 + 1)", "(t1 + 1)*(t1 + 2)*(t1 - 3)"], [(1, 0)],
     [(0, 1), (-1,)]),
    # the line t1 = 2*t0 + 1 and junk (3, 5), (3, 0); (3, 0) is on the
    # slice t1 = 0
    (["(t1 - 2*t0 - 1)*(t0 - 3)", "(t1 - 2*t0 - 1)*(t1 - 5)*t1"],
     [(Fraction(1, 2), 1)], [(Fraction(-1, 2), Fraction(1, 2)), (0, 1)]),
    # no vertical line lies in V, which holds the parabola t1 = t0^2 and
    # the horizontal line t1 = -1
    (["(t1 + 1)*(t1 - t0^2)"], [(0, 1), (1, 0)], [(0, 1), (-1,)]),
])
def test_parametrize_line_from_line_system(monkeypatch, gens, directions,
                                           expect):
    solved = []

    def recording(*args):
        solved.append(triangular_solve(*args))
        return solved[-1]

    monkeypatch.setattr(reparam, "triangular_solve", recording)
    gens = parse_gens(gens, 2)
    assert linear_part(gens) == []
    directions = [tuple(map(Fraction, v)) for v in directions]
    psi = parametrize_line(gens, 2, QQ, directions)
    assert psi == [UniPoly(QQ, c) for c in expect]
    assert _line_in_variety(gens, psi, QQ)
    # the junk points are not solutions: one solve per direction, and
    # only the line's point on the slice solves the last
    assert [len(sols) for sols in solved] == [0] * (len(directions) - 1) + [1]


def test_parametrize_line_direction_without_a_line_fails():
    gens = parse_gens(["(t1 + 1)*(t1 - t0^2)"], 2)
    with pytest.raises(InternalInconsistencyError,
                       match="line extraction failed"):
        parametrize_line(gens, 2, QQ, [(Fraction(0), Fraction(1))])


def test_parametrize_line_over_the_quartic_subfield(quartic_report):
    # the second witness line t1 = -11/2 - 3/4*g over QQ(g), with junk
    # points (0, g) and (0, -1) on the slice t0 = 0
    report, _ = quartic_report
    sub = report.embedding.subfield
    g = sub.gen()
    t0, t1 = mp_vars(sub, 2)
    line, = report.second_witness
    gens = [line * t0, line * (t1 - g) * (t1 + 1)]
    assert linear_part(gens) == []
    pts = points_at_infinity(gens, TowerContext(report.embedding).tower)
    psi = parametrize_line(gens, 2, sub, _point_directions(pts))
    c = sub.coerce(Fraction(-11, 2)) - Fraction(3, 4) * g
    assert psi == [UniPoly(sub, (sub.zero, sub.one)), UniPoly(sub, (c,))]


def test_parametrize_line_failure_modes():
    circle = parse_gens(["t0^2 + t1^2 + t1"], 2)
    with pytest.raises(InternalInconsistencyError,
                       match="line extraction failed"):
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


# The shift read off the coefficients of phi (reparam._shifts) against
# the reference: the witness line that parametrize_line solves for, on
# the same witness, written as sum psi_i(t) * gen^i.

def _line_shift(phi, report):
    """AffineShift of the witness line of the report's last descent."""
    if report.r == 1:
        tower, flatten = phi.field, (lambda x: x)
        witness, pts = report.witness, report.infinity_points
    else:
        ctx = TowerContext(report.embedding)
        tower, flatten = ctx.tower, ctx.flatten
        witness = report.second_witness
        pts = points_at_infinity(witness, tower)
    psi = parametrize_line(witness, tower.degree, tower.base,
                           _point_directions(pts))
    a = tower.element([f[1] for f in psi])
    b = tower.element([f[0] for f in psi])
    return AffineShift(phi.field, flatten(a), flatten(b))


def _known_r1_curve(rng, n, with_den):
    """phi_Q(s*t + b) over QQ(a), a^n = +-2 or +-3, phi_Q a proper QQ
    curve and s, b random in QQ(a), not both rational: the answer is
    r = 1 and the witness is not empty.

    The numerators have coprime degrees (2, 3), or (1, 2) over the
    denominator t - c, which must divide neither.
    """
    K = make_extension(QQ, UniPoly(QQ, [rng.choice((-3, -2, 2, 3))]
                                   + [0] * (n - 1) + [1]), "a")
    degrees = (1, 2) if with_den else (2, 3)
    while True:
        nums = [UniPoly(QQ, [rng.randint(-3, 3) for _ in range(d)]
                        + [rng.choice((-2, -1, 1, 2))]) for d in degrees]
        c = Fraction(rng.randint(-3, 3))
        if not with_den or all(f.evaluate(c) for f in nums):
            break
    den = UniPoly(QQ, (-c, 1) if with_den else (1,))
    phi = Parametrization(QQ, nums, den).map_coefficients(K.coerce, K)
    while True:
        slope = random_field_element(rng, K, span=1)
        b = random_field_element(rng, K, span=1)
        if slope and not (slope.is_rational() and b.is_rational()):
            return phi.compose_affine(slope, b)


@pytest.mark.parametrize("name", ["quartic", "gaussian_cusp"])
def test_shift_matches_the_witness_line_on_bundled_curves(request, name):
    phi = request.getfixturevalue(name)
    report = optimal_affine_reparametrize(phi)
    assert report.r < phi.field.degree
    assert report.shift == _line_shift(phi, report)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("with_den", [False, True])
def test_shift_matches_the_witness_line_on_known_answers(n, with_den):
    rng = random.Random(f"shift-offset:{n}:{with_den}")
    for _ in range(3):
        phi = _known_r1_curve(rng, n, with_den)
        report = optimal_affine_reparametrize(phi)
        assert report.succeeded and report.r == 1
        assert report.reparametrized.field is QQ
        assert report.shift == _line_shift(phi, report)


def test_quartic_second_descent_shift_matches_its_line(quartic,
                                                       quartic_report):
    report, _ = quartic_report
    ctx = TowerContext(report.embedding)
    phi2 = quartic.map_coefficients(ctx.to_tower, ctx.tower)
    pts2 = points_at_infinity(report.second_witness, ctx.tower)
    (a, b), = reparam._shifts(phi2, ctx.tower, pts2)
    shift = AffineShift(quartic.field, ctx.flatten(a), ctx.flatten(b))
    assert shift == _line_shift(quartic, report) == report.shift


def test_first_direction_without_a_line_is_skipped(monkeypatch,
                                                   gaussian_cusp):
    phi = gaussian_cusp
    K = phi.field
    want = optimal_affine_reparametrize(phi)
    # direction (1, 1) is the slope 1 + a, not a QQ multiple of the
    # witness line's slope 1
    junk = ProjectivePoint(K, [1, 1, 0])
    pts = [junk] + want.infinity_points
    first, second = reparam._shifts(phi, K, pts)
    assert first[0] == K.one + K.gen()
    assert not verify_reparametrization(phi, AffineShift(K, *first),
                                        want.embedding)
    assert AffineShift(K, *second) == want.shift
    monkeypatch.setattr(reparam, "points_at_infinity", lambda *args: pts)
    got = optimal_affine_reparametrize(phi)
    assert got.succeeded and got.r == 1
    assert got.shift == want.shift


def test_no_direction_with_a_line_is_internal(monkeypatch, gaussian_cusp):
    phi = gaussian_cusp
    junk = ProjectivePoint(phi.field, [1, 1, 0])
    monkeypatch.setattr(reparam, "points_at_infinity",
                        lambda *args: [junk])
    with pytest.raises(InternalInconsistencyError,
                       match="line extraction failed"):
        optimal_affine_reparametrize(phi)


@pytest.mark.parametrize("name", ["quartic", "gaussian_cusp"])
def test_pipeline_solves_no_line(monkeypatch, request, name):
    phi = request.getfixturevalue(name)
    want = optimal_affine_reparametrize(phi)

    def forbidden(*args, **kwargs):
        raise AssertionError("the shift needs no line solve")

    for fn in ("parametrize_line", "linear_part", "triangular_solve"):
        monkeypatch.setattr(reparam, fn, forbidden)
    got = optimal_affine_reparametrize(phi)
    assert got.shift == want.shift
    assert repr(got.reparametrized) == repr(want.reparametrized)


def test_shift_offset_from_a_numerator_when_the_denominator_is_one(qi):
    # ((t + 1 + a)^2, 2*(t + 1 + a)^3) over QQ(i): g = 1, so the offset
    # comes from the first numerator, b0 = -f_1/(2*f_2) = -(1 + a)
    i = qi.gen()
    base = Parametrization(qi, [UniPoly(qi, (0, 0, 1)),
                                UniPoly(qi, (0, 0, 0, 2))],
                           UniPoly(qi, (1,)))
    phi = base.compose_affine(qi.one, qi.one + i)
    direction = ProjectivePoint(qi, [1, 0, 0])
    (a, b), = reparam._shifts(phi, qi, [direction])
    # the slice t_0 = 0 moves b0 along the slope 1 to -a
    assert (a, b) == (qi.one, -i)
    got = verify_reparametrization(phi, AffineShift(qi, a, b),
                                   trivial_embedding(qi))
    assert got == base.compose_affine(qi.one, qi.one).map_coefficients(
        lambda c: c.rational_value(), QQ)


def test_bundled_curves_pass_the_properness_guard(quartic, gaussian_cusp,
                                                   gaussian_twist):
    for phi in (quartic, gaussian_cusp, gaussian_twist):
        require_proper(phi)


def test_properness_guard_centers_on_the_denominator(qi):
    # 1/((t - a)^2 + 1) is 1/(t^2 + 1) at t + a: a function of t^2
    proper = Parametrization.from_components(
        [parse_component("t/((t - a)^2 + 1)", qi)])
    require_proper(proper)
    improper = Parametrization.from_components(
        [parse_component("1/((t - a)^2 + 1)", qi),
         parse_component("(t - a)^4/((t - a)^2 + 1)", qi)])
    with pytest.raises(ValueError, match="not proper"):
        require_proper(improper)
