"""GF(p) polynomials and the certificates proved modulo a prime."""

import ast
import itertools
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (input_path, random_field_element, random_unipoly,
                     repo_root, swinnerton_dyer)

from hypercircle import fields, modp, numtheory
from hypercircle.exprparse import build_problem, parse_curve_file
from hypercircle.fields import (QQ, FieldElement, FieldTower, is_irreducible,
                                make_extension)
from hypercircle.numtheory import is_prime
from hypercircle.upoly import (RationalFunction, UniPoly, coprime_mod_p,
                              rational_roots)

P = modp.PRIMES[0]
residues = st.integers(min_value=0, max_value=P - 1)
gf_polys = st.lists(residues, max_size=8).map(modp.trim)
nonzero_gf_polys = gf_polys.filter(bool)
monic_gf_polys = st.lists(residues, min_size=1, max_size=6).map(
    lambda cs: cs + [1])


# ---------------------------------------------------------------------------
# naive reference arithmetic


def _naive_mul(f, g, p):
    out = {}
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out.get(i + j, 0) + a * b) % p
    return modp.trim([out.get(k, 0) for k in range(len(f) + len(g))])


def _naive_divmod(f, g, p):
    """Long division, one coefficient at a time, with Fermat inverses."""
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv = pow(g[-1], p - 2, p)
    while len(modp.trim(r)) >= len(g):
        shift = len(r) - len(g)
        c = r[-1] * inv % p
        q[shift] = c
        for j, b in enumerate(g):
            r[shift + j] = (r[shift + j] - c * b) % p
        modp.trim(r)
    return modp.trim(q), r


def _naive_powmod(f, e, m, p):
    out = [1]
    for _ in range(e):
        out = _naive_divmod(_naive_mul(out, f, p), m, p)[1]
    return _naive_divmod(out, m, p)[1]


def _divides(g, f, p):
    return not _naive_divmod(f, g, p)[1]


# ---------------------------------------------------------------------------
# GF(p) operations


def test_primes_are_distinct_primes():
    assert len(set(modp.PRIMES)) == len(modp.PRIMES)
    assert all(is_prime(p) for p in modp.PRIMES)


@settings(max_examples=150, deadline=None)
@given(gf_polys, gf_polys)
def test_mul_matches_naive(f, g):
    assert modp.mul(f, g, P) == _naive_mul(f, g, P)


@settings(max_examples=150, deadline=None)
@given(gf_polys, nonzero_gf_polys)
def test_rem_matches_naive(f, g):
    r = modp.rem(f, g, P)
    assert r == _naive_divmod(f, g, P)[1]
    assert len(r) < len(g)


@settings(max_examples=150, deadline=None)
@given(gf_polys, gf_polys, gf_polys)
def test_gcd_divides_both_and_finds_planted_factors(f, g, h):
    d = modp.gcd(modp.mul(f, h, P), modp.mul(g, h, P), P)
    if not (f or g) or not h:
        return
    assert d[-1] == 1
    assert _divides(d, modp.mul(f, h, P), P)
    assert _divides(d, modp.mul(g, h, P), P)
    # the planted factor h divides the gcd
    assert _divides(modp.gcd(h, [], P), d, P)


@settings(max_examples=80, deadline=None)
@given(gf_polys, st.integers(min_value=0, max_value=12), monic_gf_polys)
def test_powmod_matches_naive(f, e, m):
    assert modp.powmod(f, e, m, P) == _naive_powmod(f, e, m, P)


@settings(max_examples=60, deadline=None)
@given(st.sets(residues, min_size=1, max_size=6))
def test_root_finds_a_root_of_a_split_polynomial(roots):
    f = [1]
    for r in roots:
        f = modp.mul(f, [-r % P, 1], P)
    lines = modp.equal_degree(f, 1, P)
    assert lines == sorted([-r % P, 1] for r in roots)
    assert min(-g[0] % P for g in lines) == min(roots)
    # times x^2 - n, n a non-square, which has no root modulo P
    n = next(n for n in range(2, P) if pow(n, (P - 1) // 2, P) == P - 1)
    assert modp.distinct_degree(modp.mul(f, [P - n, 0, 1], P), P,
                                top=1)[0] == (1, f)


def _brute_factor_degrees(f, p):
    """Degrees of the irreducible factors of monic squarefree f over
    GF(p), by trial division with every monic polynomial, smallest
    degree first: the first divisor found is irreducible."""
    degrees = []
    while len(f) > 1:
        for d in range(1, len(f)):
            if 2 * d > len(f) - 1:
                degrees.append(len(f) - 1)
                return sorted(degrees)
            found = None
            for low in itertools.product(range(p), repeat=d):
                g = list(low) + [1]
                q, r = _naive_divmod(f, g, p)
                if not r:
                    found = q
                    break
            if found is not None:
                degrees.append(d)
                f = found
                break
    return sorted(degrees)


@pytest.mark.parametrize("seed", range(40))
def test_degree_pattern_matches_brute_force(seed):
    rng = random.Random(f"pattern:{seed}")
    p = rng.choice((5, 7))
    n = rng.randint(1, 6)
    f = [rng.randrange(p) for _ in range(n)] + [1]
    if len(modp.gcd(f, modp.derivative(f, p), p)) > 1:
        f = [1, 1, 1]  # x^2 + x + 1, squarefree modulo 5 and 7
    assert _factor_degrees(f, p) == _brute_factor_degrees(f, p)


def _factor_degrees(f, p):
    """Degrees of the irreducible factors of monic squarefree f modulo
    p, ascending, read off its distinct-degree factorization."""
    return [d for d, g in modp.distinct_degree(f, p)
            for _ in range((len(g) - 1) // d)]


def _random_squarefree(rng, p, n):
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if len(modp.gcd(f, modp.derivative(f, p), p)) == 1:
            return f


def _product_of(factors, p):
    out = [1]
    for g in factors:
        out = modp.mul(out, g, p)
    return out


def _irreducibles(rng, p, d, k):
    """k distinct monic irreducible polynomials of degree d over GF(p),
    or all of them when there are fewer."""
    # Gauss's count of the monic irreducibles of degree d <= 4
    count = (p ** d - p ** (2 if d == 4 else 1)) // d if d > 1 else p
    out = []
    while len(out) < min(k, count):
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if g not in out and _factor_degrees(g, p) == [d]:
            out.append(g)
    return out


def _split_cases():
    """(f, p), monic squarefree f: seeded random polynomials; even ones
    h(x^2), x^4 - q and planted (x^2 - s)(x^2 + s), whose factors
    come in pairs r, -r; and planted products of k = 1..8 irreducible
    factors of degree d = 1..4 modulo small primes of both residue
    classes mod 4, k above p included."""
    cases = []
    for seed in range(30):
        rng = random.Random(f"factor:{seed}")
        p = modp.PRIMES[seed % 3]
        cases.append((_random_squarefree(rng, p, rng.randint(1, 10)), p))
    for i, q in enumerate((3, 6, 7, 11, 14, 15, 22, 35, 55)):
        p = modp.PRIMES[i % 3]
        cases.append(([-q % p, 0, 0, 0, 1], p))
    rng = random.Random("factor:even")
    for p in modp.PRIMES[:3] + (3, 5, 7, 13):
        s = rng.randrange(1, p)
        cases.append((_product_of([[-s % p, 0, 1], [s, 0, 1]], p), p))
        while True:
            h = _random_squarefree(rng, p, rng.randint(2, 4))
            f = [0] * (2 * len(h) - 1)
            f[::2] = h
            if len(modp.gcd(f, modp.derivative(f, p), p)) == 1:
                cases.append((f, p))
                break
    for p in (3, 5, 7, 11):
        for d in range(1, 5):
            for k in range(1, 9):
                rng = random.Random(f"factor:{p}:{d}:{k}")
                factors = _irreducibles(rng, p, d, k)
                if len(factors) == k:
                    cases.append((_product_of(factors, p), p))
    return cases


SPLIT_CASES = _split_cases()


@pytest.mark.parametrize("case", range(len(SPLIT_CASES)))
def test_equal_degree_splits_the_distinct_degree_parts(case):
    f, p = SPLIT_CASES[case]
    parts = modp.distinct_degree(f, p)
    assert _product_of([g for _, g in parts], p) == f
    factors = modp.irreducible_factors(parts, p)
    assert _product_of(factors, p) == f
    assert sorted(len(g) - 1 for g in factors) == _factor_degrees(f, p)
    for g in factors:
        assert g[-1] == 1
        assert _factor_degrees(g, p) == [len(g) - 1]
    # each part's factors come back in ascending order
    split = [modp.equal_degree(g, d, p) for d, g in parts]
    assert all(u == sorted(u) for u in split)
    assert [g for u in split for g in u] == factors


def test_a_part_of_two_factors_takes_no_power(monkeypatch):
    # modulo 32749 = 1 (mod 4), x^4 - 15 = (x^2 - s)(x^2 + s), s^2 = 15,
    # and every x + c with c^4 - 15 a square, c = 0 among them, has the
    # same quadratic character modulo both factors; the trace splits
    # that part, and any part of one or two factors, taking no power
    # modulo it
    powers = []
    splits = []

    def counting_powmod(*args):
        powers.append(args)
        return powmod(*args)

    def counting_equal_degree(f, d, p, xp=None):
        before = len(powers)
        out = equal_degree(f, d, p, xp)
        splits.append((f, d, p, len(powers) - before))
        return out

    powmod = modp.powmod
    equal_degree = modp.equal_degree
    monkeypatch.setattr(modp, "powmod", counting_powmod)
    monkeypatch.setattr(modp, "equal_degree", counting_equal_degree)
    _field((-15, 0, 0, 0, 1))
    p = modp.PRIMES[0]
    assert ([-15 % p, 0, 0, 0, 1], 2, p, 0) in splits
    assert all(calls == 0 for f, d, _, calls in splits if len(f) <= 2 * d + 1)
    for seed in range(40):
        rng = random.Random(f"two-factors:{seed}")
        p = rng.choice(modp.PRIMES[:4] + (3, 5, 7, 11, 13))
        d = rng.randint(1, 4)
        factors = _irreducibles(rng, p, d, rng.randint(1, 2))
        f = _product_of(factors, p)
        xp = powmod([0, 1], p, f, p)
        before = len(powers)
        assert equal_degree(f, d, p, xp) == sorted(factors)
        assert len(powers) == before


@pytest.mark.parametrize("seed", range(30))
def test_distinct_degree_up_to_top_keeps_the_rest_whole(seed):
    rng = random.Random(f"top:{seed}")
    p = rng.choice((5, 7))
    f = _random_squarefree(rng, p, rng.randint(4, 12))
    top = rng.randint(1, 2)
    full = modp.distinct_degree(f, p)
    capped = modp.distinct_degree(f, p, top=top)
    small = [(d, g) for d, g in full if d <= top]
    big = [g for d, g in full if d > top]
    assert capped[:len(small)] == small
    rest = capped[len(small):]
    assert [g for _, g in rest] == ([_product_of(big, p)] if big else [])
    assert all(d == len(g) - 1 > top for d, g in rest)


@pytest.mark.parametrize("seed", range(20))
def test_hensel_lift_lifts_the_factorization(seed):
    rng = random.Random(f"hensel:{seed}")
    p = modp.PRIMES[seed % 4]
    while True:
        ints = [rng.randint(-10 ** 6, 10 ** 6)
                for _ in range(rng.randint(2, 9))]
        ints.append(rng.choice((1, 2, -3, 35)))
        fp = modp.monic([c % p for c in ints], p)
        if len(modp.gcd(fp, modp.derivative(fp, p), p)) == 1:
            break
    factors = modp.irreducible_factors(modp.distinct_degree(fp, p), p)
    bound = 10 ** rng.randint(3, 60)
    m, lifted = modp.hensel_lift(ints, factors, p, bound)
    # the least p^(2^k) above the bound
    assert m > bound and (m == p or isqrt(m) <= bound)
    assert modp.mul([ints[-1] % m], _product_of(lifted, m), m) == \
        [c % m for c in ints]
    for g, u in zip(lifted, factors):
        assert g[-1] == 1
        assert [c % p for c in g] == u


# ---------------------------------------------------------------------------
# coprimality certificate


def _field(minpoly):
    return make_extension(QQ, UniPoly(QQ, [Fraction(c) for c in minpoly]),
                          "a")


QUARTIC = (8, -16, 12, -4, 1)
FIELDS = {
    "QQ": None,
    "a^2=-1": (1, 0, 1),
    "a^3=2": (-2, 0, 0, 1),
    "a^3=a/3-1/5": (Fraction(1, 5), Fraction(-1, 3), 0, 1),
    "quartic": QUARTIC,
}


def _get_field(name):
    return QQ if FIELDS[name] is None else _field(FIELDS[name])


def _exact_reduced(num, den):
    """The reduced fraction by the exact Euclidean gcd."""
    field = num.field
    g = num.gcd(den)
    num, den = num // g, den // g
    inv = field.one / den.leading()
    return num.scale(inv), den.scale(inv)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(6))
def test_planted_common_factor_is_never_certified(name, seed):
    K = _get_field(name)
    rng = random.Random(f"planted:{name}:{seed}")
    for _ in range(4):
        h = random_unipoly(rng, K, 2)
        while h.degree() < 1:
            h = random_unipoly(rng, K, 2)
        f = random_unipoly(rng, K, 2) * h
        g = random_unipoly(rng, K, 2) * h
        if f.is_zero() or g.is_zero():
            continue
        assert not coprime_mod_p(f, g)
        rf = RationalFunction(f, g)
        num, den = _exact_reduced(f, g)
        assert rf.num.coeffs == num.coeffs
        assert rf.den.coeffs == den.coeffs


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(6))
def test_reduction_matches_the_exact_gcd(name, seed):
    K = _get_field(name)
    rng = random.Random(f"coprime:{name}:{seed}")
    for _ in range(6):
        f = random_unipoly(rng, K, 3)
        g = random_unipoly(rng, K, 3)
        if g.is_zero():
            continue
        rf = RationalFunction(f, g)
        num, den = _exact_reduced(f, g)
        assert rf.num.coeffs == num.coeffs
        assert rf.den.coeffs == den.coeffs
        if coprime_mod_p(f, g):
            assert f.gcd(g).degree() == 0


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(6))
def test_planted_common_linear_factor_is_decided_at_its_root(name, seed):
    K = _get_field(name)
    rng = random.Random(f"linear:{name}:{seed}")
    for _ in range(4):
        line = UniPoly(K, (random_field_element(rng, K, 3),
                           random_field_element(rng, K, 3) or K.one))
        f = random_unipoly(rng, K, 3) * line
        g = random_unipoly(rng, K, 2)
        g = (g if g.degree() > 0 else UniPoly.x(K)) * line
        for num, den in ((f, line), (line, g), (line, line), (g, line)):
            rf = RationalFunction(num, den)
            assert (rf.num, rf.den) == _exact_reduced(num, den)
            assert num.lcm(den) == (num * den // num.gcd(den)).monic()
    # a linear polynomial meets every other one exactly, with no search
    # for a residue map
    assert getattr(K, "_reduction", None) is None


def test_build_problem_searches_no_residue_map():
    # every denominator of the bundled quartic is linear
    phi = build_problem(parse_curve_file(input_path(
        "quartic.curve").read_text()))
    assert phi.field._reduction is None


def test_every_test_field_has_a_reduction():
    for name in FIELDS:
        assert _get_field(name).reduction() is not None


def test_reduction_is_a_ring_map():
    K = _get_field("quartic")
    p, image = K.reduction()
    rng = random.Random("ring-map")
    for _ in range(20):
        x = K.element([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                       for _ in range(4)])
        y = K.element([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                       for _ in range(4)])
        assert image(x * y) == image(x) * image(y) % p
        assert image(x + y) == (image(x) + image(y)) % p


def test_height_two_tower_has_no_reduction():
    sub = _field((-2, 0, 1))
    tower = FieldTower(sub, "b", UniPoly(sub, (sub.gen(), 0, 1)))
    assert tower.reduction() is None


def test_leading_coefficient_rule():
    # p*t + 1 vanishes in degree modulo p, so both images lose the common
    # factor; only the leading-coefficient rule keeps the certificate off
    p, _ = QQ.reduction()
    common = UniPoly(QQ, (1, p))
    f = common * UniPoly(QQ, (2, 1))
    g = common * UniPoly(QQ, (3, 1))
    assert not coprime_mod_p(f, g)
    rf = RationalFunction(f, g)
    assert rf.num == UniPoly(QQ, (2, 1))
    assert rf.den == UniPoly(QQ, (3, 1))


def test_denominator_divisible_by_the_prime_is_not_certified():
    p, _ = QQ.reduction()
    f = UniPoly(QQ, (Fraction(1, p), 1))
    g = UniPoly(QQ, (5, 1))
    assert not coprime_mod_p(f, g)
    assert RationalFunction(f, g).den == g


def test_certified_coprime_runs_no_gcd(monkeypatch):
    K = _get_field("a^3=2")
    a = K.gen()
    f = UniPoly(K, (a, 1, a * a))
    g = UniPoly(K, (1 + a, a, 1))
    assert coprime_mod_p(f, g)

    def no_gcd(self, other):
        raise AssertionError("gcd computed")

    monkeypatch.setattr(UniPoly, "gcd", no_gcd)
    rf = RationalFunction(f, g)
    assert rf.num == f and rf.den == g
    assert f.lcm(g) == (f * g).monic()


def test_divrem_inverts_the_leading_coefficient_at_most_once(monkeypatch):
    K = _get_field("a^3=2")
    a = K.gen()
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    f = UniPoly(K, (a, 1, a * a, 3, a + 1, 2 * a))
    g = UniPoly(K, (1 + a, a, 1 + a * a))
    q, r = f.divrem(g)
    assert len(calls) == 1
    monic = g.monic()
    calls.clear()
    f.divrem(monic)
    assert not calls
    monkeypatch.undo()
    assert q * g + r == f


def test_inverse_of_a_base_element_is_the_base_inverse():
    K = _get_field("a^3=2")
    x = K.coerce(Fraction(-3, 7))
    assert x.inverse() == K.coerce(Fraction(-7, 3))
    assert x * x.inverse() == K.one


def test_lcm_shortcuts_match_the_exact_lcm():
    K = _get_field("a^2=-1")
    a = K.gen()
    f = UniPoly(K, (a, 2))
    g = UniPoly(K, (1, a, 3))
    c = UniPoly.const(K, a)
    assert f.lcm(c) == f.monic() and c.lcm(f) == f.monic()
    assert f.lcm(f) == f.monic()
    assert f.lcm(g) == (f * g).monic()
    assert (f * g).lcm(g * g) == (f * g * g).monic()


# ---------------------------------------------------------------------------
# irreducibility certificate


def _qq_poly(coeffs):
    return UniPoly(QQ, [Fraction(c) for c in coeffs])


def _integer_form(f):
    """The primitive integer multiple of f over QQ, ascending."""
    return numtheory.clear_denominators(f.monic().coeffs)[0]


@pytest.mark.parametrize("seed", range(12))
def test_planted_products_are_never_certified(seed):
    rng = random.Random(f"irr-planted:{seed}")
    d1 = rng.randint(1, 4)
    d2 = rng.randint(1, 4)
    f = (_qq_poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(d1)] + [1]) *
         _qq_poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(d2)] + [1]))
    assert modp.degree_patterns(_integer_form(f))[0]


IRREDUCIBILITY_CASES = [
    (-2, 0, 1), (1, 0, 1), (-2, 0, 0, 0, 1), QUARTIC, (1, 0, -10, 0, 1),
    (-3, 0, 0, 0, 0, 1), (Fraction(1, 5), Fraction(-1, 3), 0, 1),
    (-1, 0, 1), (2, -3, 1), (1, 0, 2, 0, 1), (4, 0, 0, 0, 1),
]


@pytest.mark.parametrize("coeffs", IRREDUCIBILITY_CASES)
def test_exact_fallback_gives_the_same_answers(monkeypatch, coeffs):
    f = _qq_poly(coeffs)
    certified = is_irreducible(f)
    monkeypatch.setattr(modp, "PRIMES", ())
    assert modp.degree_patterns(_integer_form(f))[0]
    assert is_irreducible(f) == certified


@pytest.mark.parametrize("coeffs", [(-7, 0, 0, 0, 1), (-2, 0, 1),
                                    (1, 1) + (0,) * 8 + (1,)])
def test_certified_irreducible_takes_no_exact_gcd(monkeypatch, coeffs):
    # the squarefree part over QQ is sought only when no tried prime
    # keeps f squarefree
    def no_gcd(self, other):
        raise AssertionError("gcd over QQ computed")

    monkeypatch.setattr(UniPoly, "gcd", no_gcd)
    assert is_irreducible(_qq_poly(coeffs)) == (True, None)


def test_certificate_decides_without_the_exact_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("exact search ran")

    monkeypatch.setattr(fields, "roots_in_field", no_search)
    assert is_irreducible(_qq_poly((1, 1) + (0,) * 8 + (1,))) == (True, None)
    assert is_irreducible(_qq_poly((-2, 0, 0, 0, 0, 0, 0, 0, 1))) == \
        (True, None)


def _no_factorize(*args):
    raise AssertionError("an integer was factored")


@pytest.mark.parametrize("coeffs", [
    (-2, 0, 0, 0, 0, 1), (2, 0, 0, 0, 0, 1), (-3, 0, 0, 0, 0, 1),
    (3, 0, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 1), (5, 0, 0, 0, 0, 1),
    (-2, 0, 0, 0, 0, 0, 0, 1),
])
def test_a_lone_linear_factor_stops_the_pattern_primes(monkeypatch, coeffs):
    # degree 1 is allowed modulo every prime; once a prime leaves it
    # alone, with one linear factor, the patterns stop and the lifted
    # linear factors of rational_roots decide it, factoring no integer
    calls = []

    def counting(*args):
        calls.append(args[1])
        return distinct_degree(*args)

    distinct_degree = modp.distinct_degree
    monkeypatch.setattr(modp, "distinct_degree", counting)
    monkeypatch.setattr(numtheory, "factorize", _no_factorize)
    assert is_irreducible(_qq_poly(coeffs)) == (True, None)
    assert len(calls) <= 3


@pytest.mark.parametrize("root", [
    Fraction(0), Fraction(2), Fraction(-1, 2), Fraction(10 ** 12, 7),
    Fraction(-3, 10 ** 9),
])
def test_a_lone_linear_factor_lifts_to_its_root(monkeypatch, root):
    # (x - root) * (x^4 + x + 1) modulo a prime with one linear factor:
    # the factor lifts (past the first power of p for the large roots)
    # to the root; that polynomial plus 7 has no rational root
    monkeypatch.setattr(numtheory, "factorize", _no_factorize)
    f = _qq_poly((-root, 1)) * _qq_poly((1, 1, 0, 0, 1))
    g = f + _qq_poly((7,))
    assert rational_roots(f) == [root]
    assert not rational_roots(g)
    lone = 0
    for h in (f, g):
        ints = _integer_form(h)
        for parts, p, _ in modp._reductions(ints, modp.PRIMES):
            lone += parts[0][0] == 1 and len(parts[0][1]) == 2
    assert lone
    assert modp.degree_patterns(_integer_form(f))[0] == [1]
    assert is_irreducible(f) == (False, _qq_poly((-root, 1)))


@pytest.mark.parametrize("coeffs", [
    (-2, 0, 0, 0, 0, 1), (3, 0, 0, 0, 0, 1), (-3, 0, 0, 0, 0, 0, 0, 1),
])
def test_x_to_the_p_is_computed_once_per_pattern_prime(monkeypatch, coeffs):
    # the lone linear factor is split and lifted at the pattern prime
    # that found it, with that prime's x^p; no prime computes it twice
    powers = []
    calls = []

    def counting_powmod(f, e, m, p):
        if f == [0, 1] and e == p:
            powers.append(p)
        return powmod(f, e, m, p)

    def counting_distinct_degree(*args):
        calls.append(args[1])
        return distinct_degree(*args)

    powmod = modp.powmod
    distinct_degree = modp.distinct_degree
    monkeypatch.setattr(modp, "powmod", counting_powmod)
    monkeypatch.setattr(modp, "distinct_degree", counting_distinct_degree)
    assert is_irreducible(_qq_poly(coeffs)) == (True, None)
    assert calls and powers == calls


@pytest.mark.parametrize("primes", [modp.PRIMES, (33049,)])
@pytest.mark.parametrize("cofactor, roots", [
    ((1,), []), ((-3, 7), [Fraction(3, 7)]),
])
def test_a_linear_search_lifts_only_the_linear_factors(monkeypatch, primes,
                                                       cofactor, roots):
    # the degree-16 Swinnerton-Dyer polynomial has factors of degree at
    # most 2 modulo every prime, and 16 linear ones modulo 33049, where
    # 2, 3, 5 and 7 are squares; the search for rational roots splits
    # only the linear factors and lifts the rest as one cofactor, so it
    # tries one subset per linear factor
    lifts = []

    def counting_lift(ints, factors, p, bound):
        lifts.append((ints, len(factors), p))
        return hensel_lift(ints, factors, p, bound)

    hensel_lift = modp.hensel_lift
    monkeypatch.setattr(modp, "hensel_lift", counting_lift)
    monkeypatch.setattr(modp, "PRIMES", primes)
    f = _qq_poly(swinnerton_dyer([2, 3, 5, 7])) * _qq_poly(cofactor)
    # CPU time of this process, a few ms here, so that other processes on
    # the machine do not count; the lift counts below pin the cost
    start = time.process_time()
    assert rational_roots(f) == roots
    assert time.process_time() - start < 1
    assert len(lifts) <= 1
    for ints, count, p in lifts:
        # at most the linear factors modulo p and their cofactor
        d, linear = modp.distinct_degree(
            modp.monic([c % p for c in ints], p), p, top=1)[0]
        assert count <= (len(linear) if d == 1 else 1)


def test_one_function_lifts_modulo_powers_of_p():
    # rational roots, irreducibility over QQ and the factors of Trager's
    # norm all come from one Hensel-Zassenhaus search
    callers = []
    for path in sorted((repo_root() / "src" / "hypercircle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(c, ast.Call) and "hensel_lift" in (
                        getattr(c.func, "attr", None),
                        getattr(c.func, "id", None))
                       for c in ast.walk(node)):
                    callers.append((path.stem, node.name))
    assert callers == [("modp", "factor_zz")]


# Every import of the package made inside a function of src/hypercircle:
# (module, function, imported module).  A module imports what lies below
# it at the top; an import inside a function reaches across or up, and
# each one here has its reason.
FUNCTION_IMPORTS = sorted([
    # rendering is loaded only when something is printed
    ("fields", "FieldElement.__repr__", "render"),
    ("fields", "ReduciblePolynomialError.__init__", "render"),
    ("mpoly", "MultiPoly.__repr__", "render"),
    ("upoly", "RationalFunction.__repr__", "render"),
    ("upoly", "UniPoly.__repr__", "render"),
    # the solvers take QQ and roots over the target field from fields;
    # they stay in groebner, where hcbench traces triangular_solve and
    # rational_solutions
    ("groebner", "_solution_key", "fields"),
    ("groebner", "rational_solutions", "fields"),
    ("groebner", "triangular_solve", "fields"),
    # the Trager norm is the determinant that descent computes
    ("fields", "_tower_factors", "descent"),
])


def _package_imports(node):
    """The modules of the package that the import nodes under node name."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and n.level:
            out.append(n.module or "")
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names = ([n.module] if isinstance(n, ast.ImportFrom)
                     else [a.name for a in n.names])
            out += [m.split(".", 1)[1] for m in names
                    if m.startswith("hypercircle.")]
    return out


def test_imports_inside_functions_are_the_listed_ones():
    # the factor search over ZZ lives in modp, so upoly's rational roots
    # no longer reach up into fields, and modp stands on numtheory alone
    found = []
    for path in sorted((repo_root() / "src" / "hypercircle").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "modp":
            assert set(_package_imports(tree)) == {"numtheory"}
        scopes = [("", tree)]
        while scopes:
            prefix, scope = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((prefix + node.name + ".", node))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += [(path.stem, prefix + node.name, module)
                              for module in _package_imports(node)]
    assert sorted(found) == FUNCTION_IMPORTS


def test_the_witness_root_is_the_least_rational():
    # roots -2 and -3/2: the least canonical key (numerator first) would
    # be -3/2
    f = _qq_poly((2, 1)) * _qq_poly((3, 2)) * _qq_poly((1, 0, 1))
    assert is_irreducible(f) == (False, _qq_poly((2, 1)))


def test_a_rational_root_ends_the_irreducibility_search():
    # the degree-32 Swinnerton-Dyer polynomial needs more than the
    # recombination cap of subsets to be proved irreducible; the witness
    # x - 1 is of least degree, so the search stops at degree 1
    f = _qq_poly(swinnerton_dyer([2, 3, 5, 7, 11])) * _qq_poly((-1, 1))
    assert is_irreducible(f) == (False, _qq_poly((-1, 1)))


@pytest.mark.parametrize("seed", range(30))
def test_the_witness_is_the_least_of_all_factors(seed):
    # stopping at the least degree that yields a factor gives the witness
    # that the search over every degree gives; odd seeds have no linear
    # factor, so their witness comes from a search of degree 2 or more
    rng = random.Random(f"least-witness:{seed}")
    f = _qq_poly((1,))
    while f.degree() < 4:
        g = _qq_poly([rng.randint(-4, 4)
                      for _ in range(rng.randint(1 + seed % 2, 3))] + [1])
        if g.degree() > 0 and is_irreducible(g)[0] and f.gcd(g).degree() < 1:
            f = f * g
    degrees = list(range(1, f.degree() // 2 + 1))
    factors = modp.factor_zz(_integer_form(f), degrees)
    assert is_irreducible(f) == (False, fields._least(
        [_qq_poly([Fraction(c, g[-1]) for c in g]) for g in factors]))
