"""Buchberger, saturation, elimination, dimension, triangular solving."""

from fractions import Fraction
from functools import partial

import pytest

from helpers import mp_vars, parse_gens

from hypercircle.fields import QQ, canonical_key, make_extension, roots_in_field
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
    spoly,
    triangular_solve,
)
from hypercircle.mpoly import GREVLEX, LEX, MultiPoly, block_order
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
    finder = partial(roots_in_field, field=K)
    sols = triangular_solve(gens, 2, QQ, K, K.coerce, finder)
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
