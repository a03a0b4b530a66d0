"""Acceptance checks: the published end-to-end results, exactly.

Each test is one criterion: the quartic worked example (witness ideal,
infinity points, degree drop 4 -> 2, relative data, final
parametrization up to a conjugate choice and an affine parameter
change), the two conic slope generators, both Gaussian cases, and the
property suites that carry the remaining weight.  Everything is exact
rational arithmetic with zero tolerance; runtime budgets are asserted
where the criterion states one.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import gen_hom, parse_gens, random_field_element, \
    random_rational_function, random_unipoly

from hypercircle.descent import (Parametrization, alpha_decompose,
                                 alpha_layers, lift_to_tower, substitution,
                                 witness_ideal)
from hypercircle.exprparse import parse_component
from hypercircle.fields import QQ, make_extension, roots_in_field
from hypercircle.groebner import (GREVLEX, buchberger, ideal_equal,
                                  linear_part, normal_form,
                                  rational_solutions, saturate, spoly)
from hypercircle.hypercircles import ProjectivePoint
from hypercircle.mpoly import MultiPoly
from hypercircle.numtheory import primes_one_mod_four
from hypercircle.quadfields import (ConicSpec, crt_set, nonsquare_witness,
                                    parametrization_fields, prime_set,
                                    verify_pairwise_distinct)
from hypercircle.reparam import (AffineShift, coefficient_field_degree,
                                 optimal_affine_reparametrize,
                                 verify_reparametrization)
from hypercircle.upoly import RationalFunction, UniPoly

GAMMA_MINPOLY = UniPoly(QQ, (10, 6, 1))

_PROPERTY_SECONDS = {}


@contextmanager
def _timed(name):
    start = time.monotonic()
    yield
    _PROPERTY_SECONDS[name] = time.monotonic() - start


def test_criterion_1a_quartic_witness_ideal(quartic_report):
    report, _ = quartic_report
    expected = parse_gens(
        [
            "4*t2 + 12*t3 - 3",
            "5 + 2*t1 - 16*t3",
            "2*t0^2 + 24*t3*t0 + 80*t3^2 - 10*t0 - 52*t3 + 15",
        ],
        4,
    )
    assert ideal_equal(report.witness, expected)


def test_criterion_1b_quartic_infinity_points(quartic, quartic_report):
    phi = quartic
    report, _ = quartic_report
    K = phi.field
    gammas = roots_in_field(GAMMA_MINPOLY, K)
    assert len(gammas) == 2
    expected = {
        ProjectivePoint(K, [2 * g, K.coerce(8), K.coerce(-3), K.one, K.zero])
        for g in gammas
    }
    assert set(report.infinity_points) == expected


def test_criterion_1c_quartic_r_is_two(quartic_report):
    report, _ = quartic_report
    assert report.r == 2


def test_criterion_1d_quartic_relative_minpoly(quartic_report):
    report, _ = quartic_report
    sub = report.embedding.subfield
    rel = report.relative_minpoly
    matched = [
        g for g in roots_in_field(GAMMA_MINPOLY, sub)
        if list(rel.coeffs) == [sub.coerce(8) + 2 * g,
                                sub.coerce(-8) - 2 * g, sub.one]
    ]
    assert len(matched) == 1


def test_criterion_1e_quartic_second_witness_line(quartic_report):
    report, _ = quartic_report
    sub = report.embedding.subfield
    rows = linear_part(report.second_witness)
    # spanning 2 t1 - 3 gamma - 7, i.e. the monic row t1 - (3 gamma + 7)/2
    matched = []
    for g in roots_in_field(GAMMA_MINPOLY, sub):
        t1 = MultiPoly.var(sub, 2, 1)
        shift = MultiPoly.const(sub, 2, (3 * g + sub.coerce(7)) / 2)
        if rows == [t1 - shift]:
            matched.append(g)
    assert len(matched) == 1


def test_criterion_1f_quartic_final_parametrization(quartic, quartic_report):
    phi = quartic
    report, elapsed = quartic_report
    assert report.succeeded
    assert verify_reparametrization(phi, report.shift, report.embedding)
    assert coefficient_field_degree(report.reparametrized) == 2
    assert elapsed < 60

    sub = report.embedding.subfield
    mine = report.reparametrized.components()
    G = make_extension(QQ, GAMMA_MINPOLY, "c")
    published = [
        parse_component(
            "(-3*c - 2*t^2*c + 4*t*c - 5 + 6*t^2 - 4*t^3)"
            "/(5 - 8*t + 4*t^2)", G),
        parse_component(
            "2*(7*t*c + 2*t^3*c - 3*c - 6*t^2*c - 10 + 23*t + 6*t^3"
            " - 19*t^2)/(5 - 8*t + 4*t^2)", G),
    ]
    # the printed fractions hide a common factor; reduction exposes the
    # true degree (2, 1) shape that the pipeline outputs directly
    assert [p.den.degree() for p in published] == [1, 1]

    matched = 0
    for rho in roots_in_field(GAMMA_MINPOLY, sub):
        hom = gen_hom(rho, sub)
        cand = [
            RationalFunction(
                UniPoly(sub, [hom(cf) for cf in p.num.coeffs]),
                UniPoly(sub, [hom(cf) for cf in p.den.coeffs]))
            for p in published
        ]
        # cross-composition: an affine t -> u t + v must map the
        # published parametrization onto ours; u comes from the leading
        # coefficients, v from the poles, then the match is verified
        # exactly on every component
        A, B = mine[0].num, mine[0].den
        C, D = cand[0].num, cand[0].den
        if (A.degree(), B.degree()) != (C.degree(), D.degree()):
            continue
        u = A[A.degree()] / C[C.degree()]
        v = -D[0] - u * -B[0]
        inner = UniPoly(sub, (v, u))
        if all(c.compose(inner) == m for c, m in zip(cand, mine)):
            matched += 1
    assert matched >= 1


def test_criterion_2_conic_prime_set():
    start = time.monotonic()
    slopes = prime_set(1, 1, 4)
    fields = parametrization_fields(ConicSpec(1, 1, -6), slopes)
    elapsed = time.monotonic() - start
    assert slopes == [5, 41, 701, 266381]
    assert [f.radicand for f in fields] == [
        Fraction(3, 13),
        Fraction(3, 841),
        Fraction(3, 245701),
        Fraction(3, 35479418581),
    ]
    assert elapsed < 5


def test_criterion_3_conic_crt_set():
    start = time.monotonic()
    slopes = crt_set(1, 1, 6)
    distinct = verify_pairwise_distinct(1, 1, slopes)
    elapsed = time.monotonic() - start
    assert slopes == [5, 26, 391, 4031, 175306, 9276086]
    assert distinct is True
    assert elapsed < 5


def test_criterion_4_gaussian_positive(qi):
    phi = Parametrization.from_components([
        parse_component("(t - a)^2", qi),
        parse_component("(t - a)^3", qi),
    ])
    start = time.monotonic()
    report = optimal_affine_reparametrize(phi)
    elapsed = time.monotonic() - start
    assert report.succeeded
    assert report.r == 1
    assert report.shift == AffineShift(qi, qi.one, qi.gen())
    assert report.reparametrized.components() == [
        RationalFunction(UniPoly(QQ, (0, 0, 1)), UniPoly(QQ, (1,))),
        RationalFunction(UniPoly(QQ, (0, 0, 0, 1)), UniPoly(QQ, (1,))),
    ]
    assert elapsed < 1


def test_criterion_5_gaussian_negative(qi):
    phi = Parametrization.from_components([
        parse_component("t + a", qi),
        parse_component("t^2", qi),
    ])
    start = time.monotonic()
    report = optimal_affine_reparametrize(phi)
    elapsed = time.monotonic() - start
    assert report.status == "fail"
    assert report.dimension == 0
    assert elapsed < 1


def _reconstructs(rf, tower):
    """Layers over delta recombine to rf(t0 + a t1 + ...) exactly."""
    sub = substitution(tower)
    n = tower.degree

    def horner(p):
        acc = MultiPoly.zero(tower, n)
        for c in reversed(p.coeffs):
            acc = acc * sub + MultiPoly.const(tower, n, c)
        return acc

    num_sub, den_sub = horner(rf.num), horner(rf.den)
    layers, delta = alpha_decompose(num_sub, den_sub)
    lhs = MultiPoly.zero(tower, n)
    power = tower.one
    for layer in layers:
        lhs = lhs + lift_to_tower(layer, tower).scale(power)
        power = power * tower.gen()
    return lhs * den_sub == num_sub * lift_to_tower(delta, tower)


def test_criterion_6a_alpha_reconstruction(qi, quartic):
    phi = quartic
    rng = random.Random(20260814)
    with _timed("6a"):
        for _ in range(50):
            assert _reconstructs(
                random_rational_function(rng, qi, max_deg=2), qi)
        for _ in range(50):
            assert _reconstructs(
                random_rational_function(rng, phi.field, max_deg=2, span=2),
                phi.field)


def _corpus(quartic, gaussian_cusp, gaussian_twist, quartic_report):
    report, _ = quartic_report
    out = []
    for phi in (quartic, gaussian_cusp, gaussian_twist):
        gens, _ = witness_ideal(phi)
        out.append((gens, phi.field.base))
    out.append((parse_gens(["t0^2 + t1^2 + t1"], 2), QQ))
    out.append((report.second_witness, report.embedding.subfield))
    return out


def test_criterion_6b_groebner_invariants(quartic, gaussian_cusp,
                                          gaussian_twist, quartic_report):
    with _timed("6b"):
        for gens, field in _corpus(quartic, gaussian_cusp, gaussian_twist,
                                   quartic_report):
            gb = buchberger(gens, GREVLEX)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    s = spoly(gb[i], gb[j], GREVLEX)
                    assert normal_form(s, gb, GREVLEX).is_zero()
            f = MultiPoly.var(field, gens[0].arity, 0)
            once = saturate(gens, f)
            twice = saturate(once, f)
            assert ideal_equal(once, twice)


def _restriction_roots(f):
    """Roots of f in its tower by solving the descended QQ system."""
    tower = f.field
    n = tower.degree
    sub = substitution(tower)
    acc = MultiPoly.zero(tower, n)
    for c in reversed(f.coeffs):
        acc = acc * sub + MultiPoly.const(tower, n, c)
    system = [l for l in alpha_layers(acc) if not l.is_zero()]
    assert system, "zero polynomial has no restriction system"
    sols = rational_solutions(system, n)
    return {tower.element(tuple(s)) for s in sols}


def _check_roots_agree(f):
    found = roots_in_field(f, f.field)
    assert len(set(found)) == len(found)
    for r in found:
        assert not f.evaluate(r)  # soundness
    assert set(found) == _restriction_roots(f)  # completeness


def test_criterion_6c_roots_in_field_vs_restriction(qi, quartic):
    phi = quartic
    K = phi.field
    rng = random.Random(20260814)
    with _timed("6c"):
        # degree-2 tower: random dense inputs plus planted split roots
        for _ in range(12):
            f = random_unipoly(rng, qi, max_deg=2, span=2)
            while f.is_zero() or f.degree() == 0:
                f = random_unipoly(rng, qi, max_deg=2, span=2)
            _check_roots_agree(f)
        t = UniPoly(qi, (qi.zero, qi.one))
        r1 = random_field_element(rng, qi)
        r2 = random_field_element(rng, qi)
        split = (t - UniPoly(qi, (r1,))) * (t - UniPoly(qi, (r2,)))
        _check_roots_agree(split)
        # degree-4 tower: generic distinct-root quadratics make the
        # descended system infeasible for the brute-force side, so stick
        # to inputs it can enumerate while covering 0, 1 and 2 roots
        for coeffs in ((10, 6, 1), (1, 0, 1), (-3, 0, 1), (2, -1, 1)):
            _check_roots_agree(
                UniPoly(K, [K.coerce(c) for c in coeffs]))
        tq = UniPoly(K, (K.zero, K.one))
        for _ in range(3):
            r = random_field_element(rng, K, span=2)
            lin = tq - UniPoly(K, (r,))
            _check_roots_agree(lin)
            _check_roots_agree(lin * lin)


def test_criterion_6d_shift_degree_floor(quartic):
    phi = quartic
    K = phi.field
    rng = random.Random(20260814)
    with _timed("6d"):
        for _ in range(20):
            a = random_field_element(rng, K)
            while not a:
                a = random_field_element(rng, K)
            b = random_field_element(rng, K)
            shifted = phi.compose_affine(a, b)
            assert coefficient_field_degree(shifted) >= 2


def test_criterion_6e_nonsquare_witness_exhaustive():
    with _timed("6e"):
        primes = []
        gen = primes_one_mod_four()
        while True:
            p = next(gen)
            if p >= 200:
                break
            primes.append(p)
        assert primes[:3] == [5, 13, 17] and primes[-1] == 197
        for p in primes:
            squares = {(x * x) % p for x in range(p)}
            for e in (1, 2, 3, 5, 7):
                if e % p == 0:
                    continue
                brute = next(n for n in range(1, p)
                             if (1 + e * n * n) % p
                             and (1 + e * n * n) % p not in squares)
                assert nonsquare_witness(e, p) == brute


def test_criterion_6_property_suite_runtime():
    assert set(_PROPERTY_SECONDS) == {"6a", "6b", "6c", "6d", "6e"}
    assert sum(_PROPERTY_SECONDS.values()) < 300
