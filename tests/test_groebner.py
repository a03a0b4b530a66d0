"""Buchberger, saturation, elimination, dimension, triangular solving."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (input_path, mp_vars, parse_gens, random_field_element,
                     reference_buchberger, spoly)

from hypercircle import groebner
from hypercircle.descent import witness_ideal
from hypercircle.exprparse import build_problem, parse_curve_file
from hypercircle.fields import QQ, TowerContext, canonical_key, make_extension
from hypercircle.groebner import (
    GroebnerBasis,
    PairBudgetExceededError,
    PositiveDimensionalError,
    buchberger,
    dimension,
    eliminate,
    ideal_equal,
    is_groebner_unit,
    linear_part,
    normal_form,
    rational_solutions,
    saturate,
    triangular_solve,
)
from hypercircle.linalg import rref
from hypercircle.mpoly import GREVLEX, LEX, MultiPoly, Packing, block_order
from hypercircle.upoly import UniPoly


def test_buchberger_principal_ideal_is_monic_generator():
    (x,) = mp_vars(QQ, 1)
    gb = buchberger([2 * x * x + 4 * x])
    assert gb == [x * x + 2 * x]


def test_buchberger_reduced_and_deterministic():
    x, y = mp_vars(QQ, 2)
    gens = [x * x + y * y - MultiPoly.const(QQ, 2, Fraction(1)), x * y]
    gb1 = buchberger(gens)
    gb2 = buchberger(list(reversed(gens)))
    assert gb1 == gb2
    # reduced: no term of any element is divisible by another leading term
    lms = [g.leading(GREVLEX)[0] for g in gb1]
    for i, g in enumerate(gb1):
        _, lc = g.leading(GREVLEX)
        assert lc == 1
        for e in g.terms:
            for j, lm in enumerate(lms):
                if j != i:
                    assert not all(a <= b for a, b in zip(lm, e))


def test_spoly_reduces_to_zero_on_basis():
    x, y = mp_vars(QQ, 2)
    gb = buchberger([x * x + y * y - MultiPoly.const(QQ, 2, Fraction(1)), x * y])
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = spoly(gb[i], gb[j], GREVLEX)
            assert normal_form(s, gb, GREVLEX).is_zero()


def test_normal_form_of_member_vanishes():
    x, y = mp_vars(QQ, 2)
    f = x * x - y
    g = y * y - MultiPoly.const(QQ, 2, Fraction(2))
    gb = buchberger([f, g])
    combo = f * (x + y) + g * (y - x)
    assert normal_form(combo, gb).is_zero()
    assert not normal_form(x, gb).is_zero()


def test_ideal_equal_up_to_generator_presentation():
    x, y = mp_vars(QQ, 2)
    a = [x + y, x - y]
    b = [2 * x, 3 * y, x + y]
    assert ideal_equal(a, b)
    assert not ideal_equal([x], [y])
    assert not ideal_equal([x * x], [x])


def test_eliminate_implicitizes_a_parabola():
    # x = t, y = t^2: eliminating t leaves x^2 - y in the remaining variables
    t, x, y = mp_vars(QQ, 3)
    gens = [x - t, y - t * t]
    out = eliminate(gens, 1)
    xx, yy = mp_vars(QQ, 2)
    assert all(g.arity == 2 for g in out)
    assert ideal_equal(out, [xx * xx - yy])


def test_saturate_removes_the_component_at_the_divisor():
    (x,) = mp_vars(QQ, 1)
    one = MultiPoly.const(QQ, 1, Fraction(1))
    gens = [x * x * (x - one)]
    sat = saturate(gens, x)
    assert ideal_equal(sat, [x - one])


def test_saturate_is_idempotent():
    x, y = mp_vars(QQ, 2)
    gens = [x * x * y - x * x, y * y * (y - MultiPoly.const(QQ, 2, Fraction(1)))]
    s1 = saturate(gens, x * y)
    s2 = saturate(s1, x * y)
    assert ideal_equal(s1, s2)


def test_saturate_by_nonvanishing_unit_is_identity():
    x, y = mp_vars(QQ, 2)
    gens = [x + y]
    assert ideal_equal(saturate(gens, MultiPoly.const(QQ, 2, Fraction(3))), gens)


def test_dimension_values():
    x, y = mp_vars(QQ, 2)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert dimension([one]) == -1
    assert dimension([x, y]) == 0
    assert dimension([x]) == 1
    assert dimension([x * x + y * y - one, x * y]) == 0
    with pytest.raises(ValueError):
        dimension([])


def test_is_groebner_unit():
    x, y = mp_vars(QQ, 2)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert is_groebner_unit(buchberger([x, x + one]))
    assert not is_groebner_unit(buchberger([x, y]))


def test_linear_part_extracts_linear_forms_of_the_ideal():
    x, y = mp_vars(QQ, 2)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    assert linear_part([x * x, x + y]) == [x + y]
    # reduction may reveal simpler linear forms than the input shows
    assert linear_part([x + y, y - one]) == [x + one, y - one]
    assert linear_part([x * x]) == []


def test_linear_part_of_the_unit_ideal_is_every_row():
    x, y, z = mp_vars(QQ, 3)
    one = MultiPoly.const(QQ, 3, Fraction(1))
    assert linear_part([x, x + one]) == [x, y, z, one]


def test_linear_part_finds_forms_that_appear_only_after_reduction():
    x, y = mp_vars(QQ, 2)
    assert linear_part([x * y + x - y, x * y - y]) == [x, y]


def _reference_linear_part(gens):
    """The degree <= 1 members of the ideal as the kernel of the normal
    forms of t0, ..., t_{n-1}, 1, in RREF."""
    gb = buchberger(gens, GREVLEX)
    if not gb:
        return []
    field, n = gb[0].field, gb[0].arity
    probes = mp_vars(field, n) + [MultiPoly.const(field, n, field.one)]
    monos = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    monos.append((0,) * n)
    forms = [normal_form(p, gb, GREVLEX) for p in probes]
    assert all(f.total_degree() <= 1 for f in forms)
    # the kernel of the matrix whose columns are the normal forms
    m, pivots = rref([[f.coefficient(e) for f in forms] for e in monos],
                     field)
    kernel = []
    for free in (c for c in range(n + 1) if c not in pivots):
        v = [field.zero] * (n + 1)
        v[free] = field.one
        for row, p in zip(m, pivots):
            v[p] = -row[free]
        kernel.append(v)
    if not kernel:
        return []
    rows, _ = rref(kernel, field)
    return [MultiPoly(field, n, {e: c for e, c in zip(monos, row) if c})
            for row in rows]


def _random_linear_form(rng, field, n):
    terms = {}
    for e in [tuple(int(j == i) for j in range(n)) for i in range(n)] + [
            (0,) * n]:
        c = random_field_element(rng, field, 2)
        if c:
            terms[e] = c
    return MultiPoly(field, n, terms)


@pytest.mark.parametrize("field_name", ["QQ", "QQ(i)"])
def test_linear_part_matches_the_normal_form_reference(field_name):
    field = QQ if field_name == "QQ" else make_extension(
        QQ, UniPoly(QQ, (1, 0, 1)), "a")
    rng = random.Random(14)
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 4)
        planted = [_random_linear_form(rng, field, n)
                   for _ in range(rng.randint(0, n))]
        planted = [f for f in planted if not f.is_zero()]
        q = (_random_linear_form(rng, field, n)
             * _random_linear_form(rng, field, n)
             + _random_linear_form(rng, field, n))
        # every generator but q hides its planted form behind q
        gens = [q] + [f + q.scale(random_field_element(rng, field, 2))
                      for f in planted]
        got = linear_part(gens)
        assert got == _reference_linear_part(gens)
        seen.add(len(got))
    assert len(seen) >= 3


def test_linear_part_matches_the_reference_on_the_input_witnesses():
    paths = sorted(input_path("").glob("*.curve"))
    assert paths
    for path in paths:
        phi = build_problem(parse_curve_file(path.read_text()))
        witness, _ = witness_ideal(phi)
        assert linear_part(witness) == _reference_linear_part(witness)


def test_rational_solutions_sorted():
    x, y = mp_vars(QQ, 2)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    sols = rational_solutions([x * x - one, y - x], 2)
    assert sols == [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))]
    (z,) = mp_vars(QQ, 1)
    assert rational_solutions([z * z + MultiPoly.const(QQ, 1, Fraction(1))], 1) == []


def test_rational_solutions_rejects_positive_dimension():
    x, y = mp_vars(QQ, 2)
    with pytest.raises(PositiveDimensionalError):
        rational_solutions([x - y], 2)


def test_triangular_solve_over_tower():
    K = make_extension(QQ, UniPoly(QQ, (1, 0, 1)), "a")
    i = K.gen()
    x, y = mp_vars(QQ, 2)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    gens = [x * x + one, y - x]
    sols = triangular_solve(gens, 2, K)
    assert len(sols) == 2
    assert set(sols) == {(-i, -i), (i, i)}
    assert sols == sorted(sols, key=lambda s: [canonical_key(c) for c in s])


def test_buchberger_returns_a_basis_in_its_order_unchanged():
    x, y, z = mp_vars(QQ, 3)
    one = MultiPoly.const(QQ, 3, Fraction(1))
    gb = buchberger([x * x + y * z - one, y * y - x * z, x * y + z], GREVLEX)
    assert isinstance(gb, GroebnerBasis) and gb.order == GREVLEX
    assert buchberger(gb, GREVLEX) is gb
    lex = buchberger(gb, LEX)
    assert lex.order == LEX
    assert lex == buchberger(list(gb), LEX)


def test_budget_exhaustion_raises():
    x, y, z = mp_vars(QQ, 3)
    gens = [x * x + y * z, y * y + x * z, z * z + x * y]
    with pytest.raises(PairBudgetExceededError):
        buchberger(gens, budget=1)


def test_quartic_witness_basis_facts(quartic_report):
    report, _ = quartic_report
    gb = report.witness
    # linear part has rank 2 and the basis has a single quadric
    lp = linear_part(gb)
    assert len(lp) == 2
    assert sorted(g.total_degree() for g in gb) == [1, 1, 2]
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(spoly(gb[i], gb[j], GREVLEX), gb, GREVLEX).is_zero()


def test_budget_counts_only_reduced_pairs():
    # every pair of leading monomials is coprime: nothing is reduced
    x, y, z = mp_vars(QQ, 3)
    assert buchberger([x * x, y * y, z * z], budget=1) == [z * z, y * y, x * x]
    gens = [x * x + y * z, y * y + x * z, z * z + x * y]
    with pytest.raises(PairBudgetExceededError,
                       match=r"budget of 1 exceeded with \d+ polynomials"):
        buchberger(gens, budget=1)


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)])
def test_reduced_basis_ignores_generator_order(order):
    # the second and last generators share a leading monomial in GREVLEX
    gens = parse_gens(["t0^2*t1 - t2^2 + t0", "t1^2 - t0*t2",
                       "t0*t2^2 - t1*t2", "t1*t2 - t0*t1",
                       "t1^2 + t1*t2 - 2*t0*t2"], 3)
    gb = buchberger(gens, order)
    assert len(gb) > 1
    variants = [gens[::-1]] + [gens[k:] + gens[:k] for k in range(1, 5)]
    for variant in variants:
        assert buchberger(variant, order) == gb


def _wide_system():
    """Numerators above 2^64, denominators up to 10^6 and negative
    leading coefficients."""
    def poly(terms):
        return MultiPoly(QQ, 3, terms)

    return [
        poly({(2, 1, 0): Fraction(-(2**67 + 9), 999983),
              (0, 0, 2): Fraction(3, 7),
              (1, 0, 0): Fraction(-3**45, 10**6)}),
        poly({(0, 2, 0): Fraction(5**30, 2**19),
              (1, 0, 1): Fraction(-(2**65 + 1), 999999),
              (0, 0, 0): Fraction(11)}),
        poly({(1, 1, 1): Fraction(-7**25, 123457),
              (0, 1, 0): Fraction(2**64 + 13, 3),
              (0, 0, 2): Fraction(-1)}),
    ]


def _small_system():
    x, y, z = mp_vars(QQ, 3)
    return [x * x + y * z, y * y + x * z, z * z + x * y]


def _generator_order_system():
    return parse_gens(["t0^2*t1 - t2^2 + t0", "t1^2 - t0*t2",
                       "t0*t2^2 - t1*t2", "t1*t2 - t0*t1",
                       "t1^2 + t1*t2 - 2*t0*t2"], 3)


def _assert_monic_fractions(polys, order):
    for g in polys:
        assert all(isinstance(c, Fraction) for c in g.terms.values())
        assert g.leading(order)[1] == 1


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)])
@pytest.mark.parametrize("system", [_small_system, _wide_system])
def test_qq_results_have_fraction_coefficients(system, order):
    # an int coefficient compares equal to its Fraction, so basis
    # equality alone would not notice one leaking out
    gens = system()
    _assert_monic_fractions(buchberger(gens, order), order)
    _assert_monic_fractions(eliminate(gens, 1), GREVLEX)
    x = MultiPoly.var(QQ, 3, 0)
    _assert_monic_fractions(saturate(gens, x), GREVLEX)


def test_int_typed_generator_coefficients_come_out_as_fractions():
    gens = [MultiPoly(QQ, 3, {e: 3 * c.numerator for e, c in g.terms.items()})
            for g in _small_system()]
    gb = buchberger(gens)
    assert gb == buchberger(_small_system())
    _assert_monic_fractions(gb, GREVLEX)


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)])
def test_wide_coefficient_point_ideal(order):
    # the ideal of one point with wide coordinates, hidden behind
    # wide negative cofactors
    x, y, z = mp_vars(QQ, 3)

    def const(v):
        return MultiPoly.const(QQ, 3, v)

    px = x - const(Fraction(-(2**70 + 3), 999983))
    qy = y - const(Fraction(3**50, 10**6))
    rz = z - const(Fraction(-(2**64 + 1), 7))
    c = [const(v) for v in (Fraction(-(2**66 + 5), 999999),
                            Fraction(5**40, 123456),
                            Fraction(-(2**65 + 7), 3),
                            Fraction(-11, 2**20))]
    gens = [c[0] * rz, c[1] * qy + c[2] * rz * y, c[3] * px + qy * x * x]
    gb = buchberger(gens, order)
    assert list(gb) == sorted([px, qy, rz],
                              key=lambda g: order.key(g.leading(order)[0]))
    _assert_monic_fractions(gb, order)


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)])
def test_wide_coefficient_basis_is_a_reduced_groebner_basis(order):
    gens = _wide_system()
    gb = buchberger(gens, order)
    # checked with field arithmetic: normal_form divides by monic
    # Fraction polynomials
    for g in gens:
        assert normal_form(g, gb, order).is_zero()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(spoly(gb[i], gb[j], order), gb,
                               order).is_zero()
    lms = [g.leading(order)[0] for g in gb]
    for i, g in enumerate(gb):
        for e in g.terms:
            assert not any(j != i and all(a <= b for a, b in zip(lm, e))
                           for j, lm in enumerate(lms))
    # rescaling the generators by wide negative constants changes nothing
    scales = [Fraction(-(2**70 + 1), 999983), Fraction(-3, 10**6),
              Fraction(-(5**33), 7)]
    assert buchberger([g.scale(s) for g, s in zip(gens, scales)],
                      order) == gb


@pytest.mark.parametrize("system, order, budget", [
    (_small_system, GREVLEX, 8),
    (_small_system, LEX, 10),
    (_generator_order_system, GREVLEX, 13),
    (_generator_order_system, LEX, 10),
    (_generator_order_system, block_order(1), 10),
    (_wide_system, GREVLEX, 16),
    (_wide_system, LEX, 15),
    (_wide_system, block_order(1), 11),
])
def test_smallest_sufficient_budget_is_pinned(system, order, budget):
    # the S-pairs reduced do not depend on how coefficients are scaled
    gens = system()
    buchberger(gens, order, budget=budget)
    with pytest.raises(PairBudgetExceededError):
        buchberger(gens, order, budget=budget - 1)


def _quintic_curve():
    """An n = 5 polynomial curve like those of the shift-r1 benchmark
    workload: a QQ pair of degrees (2, 3) composed with t + b, b a sum
    of +-a^k, over QQ(a) with a^5 = 3."""
    s = "(t + 1 - a + a^2 + a^3 - a^4)"
    return build_problem(parse_curve_file(
        f"minpoly = x^5 - 3\nx1 = 2*{s}^2 - {s} + 1/3\n"
        f"x2 = -{s}^3 + 3*{s}^2 + 2*{s} - 1\n"))


@pytest.mark.parametrize("curve, budget", [
    ("quartic", 32),
    ("quartic over QQ(g)", 7),
    ("quintic", 70),
])
def test_smallest_sufficient_witness_budget_is_pinned(
        quartic, quartic_report, curve, budget):
    # the witness ideals of the benchmark's curves: the quartic's block
    # elimination over QQ, its second descent over QQ(g), and the grevlex
    # basis of an n = 5 polynomial curve; each is one Buchberger call
    if curve == "quartic":
        phi = quartic
    elif curve == "quintic":
        phi = _quintic_curve()
    else:
        ctx = TowerContext(quartic_report[0].embedding)
        phi = quartic.map_coefficients(ctx.to_tower, ctx.tower)
    witness_ideal(phi, budget=budget)
    with pytest.raises(PairBudgetExceededError):
        witness_ideal(phi, budget=budget - 1)


def _reference_system(seed, qi):
    """Three random generators of 2-5 terms, with the field, the number
    of variables and the order read off the seed."""
    rng = random.Random(f"reference engine:{seed}")
    field = (QQ, qi)[seed % 2]
    n = 2 + seed // 2 % 3
    order = (GREVLEX, LEX, block_order(1 + seed % (n - 1)))[seed // 6 % 3]
    gens = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = [0] * n
            for _ in range(rng.randint(0, 3 if n < 4 else 2)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = random_field_element(rng, field)
        gens.append(MultiPoly(field, n, terms))
    return gens, order


def _smallest_budget(engine, gens, order):
    lo, hi = -1, 1
    while True:
        try:
            engine(gens, order, hi)
            break
        except PairBudgetExceededError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            engine(gens, order, mid)
            hi = mid
        except PairBudgetExceededError:
            lo = mid
    return hi


@pytest.mark.parametrize("seed", range(40))
def test_buchberger_matches_the_reference_engine(seed, qi):
    # the engine reduces the same S-pairs as the reference kept in
    # helpers, so it needs the same smallest budget, and it returns the
    # same basis, term for term and in the same term order
    gens, order = _reference_system(seed, qi)
    gb, ref = buchberger(gens, order), reference_buchberger(gens, order)
    assert gb == ref and gb.order == ref.order
    assert ([list(g.terms.items()) for g in gb]
            == [list(g.terms.items()) for g in ref])
    budget = _smallest_budget(reference_buchberger, gens, order)
    assert buchberger(gens, order, budget) == ref
    if budget:
        with pytest.raises(PairBudgetExceededError):
            buchberger(gens, order, budget - 1)


def test_the_reducer_memo_picks_the_first_divisor(monkeypatch):
    # in lex, the generators leave t0^2 irreducible, and the third basis
    # element reduces it later, then the fourth reduces t0: the memo's
    # one non-trivial case, where a lookup scans only the elements added
    # since.  Every entry names the reducer a full scan would pick, but
    # for the lead of a basis element whose tail the interreduction
    # reduces by all kept elements: it is marked irreducible meanwhile.
    gens = parse_gens(["t0^3 - t1", "t0*t1^2 - t0 - 1"], 2)
    rescanned = []
    pseudo_reduce = groebner._pseudo_reduce

    def spy(terms, basis, lms, tails, spans, pk, memo):
        own = max(terms) if any(terms is g for g in basis) else None
        stale = [e for e, i in memo.items() if i < 0 and ~i < len(lms)]
        rem = pseudo_reduce(terms, basis, lms, tails, spans, pk, memo)
        rescanned.extend((pk.unpack(e), memo[e]) for e in stale
                         if memo[e] >= 0)
        assert own is None or memo[own] == ~len(lms)
        for e, i in memo.items():
            if e == own:
                continue
            divides = [not (e - m) & pk.guard for m in lms]
            if i >= 0:
                assert divides.index(True) == i
            else:
                assert not any(divides[:~i])
        return rem

    monkeypatch.setattr(groebner, "_pseudo_reduce", spy)
    assert buchberger(gens, LEX) == reference_buchberger(gens, LEX)
    assert rescanned == [((2, 0), 2), ((1, 0), 3)]


def test_eliminate_keeps_the_variable_free_prefix_of_the_block_basis():
    # the image of t -> (t^2 + t, t^3, t^3 + t^2 - 1): three
    # quadrics free of t, then the one element with a term in t
    gens = parse_gens(["t1 - t0^2 - t0", "t2 - t0^3", "t3 - t0*t1 + 1"], 4)
    gb = buchberger(gens, block_order(1))
    free = [g for g in gb if g.degree_in(0) == 0]
    assert len(free) == 3 and gb[:3] == free
    out = eliminate(gens, 1)
    assert out.order == GREVLEX
    assert out == [g.drop_vars([0]) for g in free]
    assert out == sorted(out, key=lambda p: GREVLEX.key(p.leading()[0]))


def _tower_system(qi):
    """Three generators over QQ(i), with i in every leading coefficient
    or tail."""
    i = MultiPoly.const(qi, 3, qi.gen())
    one = MultiPoly.const(qi, 3, qi.one)
    x, y, z = mp_vars(qi, 3)
    return [x * x + i * y - one, x * y - i * z + 2 * one,
            y * y * z + (one + i) * x * z - 3 * one]


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)])
def test_qq_and_tower_bases_are_monic_and_contain_their_generators(
        order, qi):
    systems = {"qq": _wide_system(), "tower": _tower_system(qi)}
    for label, gens in systems.items():
        gb = buchberger(gens, order)
        assert gb
        if label == "qq":
            _assert_monic_fractions(gb, order)
        else:
            assert all(g.leading(order)[1] == qi.one for g in gb)
            for g in systems[label]:
                assert normal_form(g, gb, order).is_zero()


_ORDERS = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sampled_from([LEX, GREVLEX] + [block_order(k)
                                          for k in range(n + 1)])))


def _exponents(n):
    return st.tuples(*[st.integers(min_value=0, max_value=40)] * n)


@settings(max_examples=300, deadline=None)
@given(_ORDERS.flatmap(lambda no: st.tuples(
    st.just(no[1]), _exponents(no[0]), _exponents(no[0]))))
def test_packed_monomials_follow_the_order_and_the_monoid(case):
    order, e1, e2 = case
    e3 = tuple(a + b for a, b in zip(e1, e2))
    # the engine's packing with the order's fields, and the descent's:
    # no order fields (raw exponents compare as lex) and the exact bound
    # of e1 * e2
    for pk, key in ((Packing(len(e1), groebner._MAX_DEGREE, order),
                     order.key),
                    (Packing(len(e1), sum(e3)), LEX.key)):
        p1, p2 = pk.pack(e1), pk.pack(e2)
        k1, k2 = key(e1), key(e2)
        assert (p1 < p2) == (k1 < k2) and (p1 == p2) == (k1 == k2)
        assert pk.pack(e3) == p1 + p2
        assert pk.unpack(p1 + p2) == e3
        assert pk.degree(p1 + p2) == sum(e3)
        assert ((not (p2 - p1) & pk.guard)
                == all(a <= b for a, b in zip(e1, e2)))
        assert pk.unpack(p1) == e1
        assert pk.terms({e1: 1}) == {p1: 1}


def test_degree_past_the_packed_bound_raises(monkeypatch):
    # in lex, reducing x*y^5 by x - y^5 reaches degree 10 from inputs of
    # degree 5 and an S-polynomial of degree 6
    x, y = mp_vars(QQ, 2)
    one = MultiPoly.const(QQ, 2, Fraction(1))
    gens = [x - y ** 5, x * x - one]
    assert buchberger(gens, LEX) == [y ** 10 - one, x - y ** 5]
    monkeypatch.setattr(groebner, "_MAX_DEGREE", 7)
    with pytest.raises(PairBudgetExceededError, match="degree 10 exceeds"):
        buchberger(gens, LEX)
    with pytest.raises(PairBudgetExceededError, match="degree 11 exceeds"):
        normal_form(x ** 3, [x - y ** 5], LEX)
    with pytest.raises(PairBudgetExceededError, match="degree 8 exceeds"):
        buchberger([x ** 8 - one], GREVLEX)
    with pytest.raises(PairBudgetExceededError, match="degree 8 exceeds"):
        normal_form(x ** 8, [y], GREVLEX)
