"""Sparse multivariate polynomials and monomial orders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mp_vars, substitute

from hypercircle.fields import QQ, make_extension
from hypercircle.mpoly import GREVLEX, LEX, MultiPoly, block_order
from hypercircle.upoly import UniPoly

exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)
coeff = st.fractions(max_denominator=12, min_value=Fraction(-12), max_value=Fraction(12))
mpolys = st.dictionaries(exps, coeff.filter(bool), max_size=6).map(
    lambda d: MultiPoly(QQ, 3, d)
)


def test_construction_drops_zero_terms():
    f = MultiPoly(QQ, 2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert f.terms == {(0, 1): Fraction(2)}
    assert MultiPoly(QQ, 2, {}).is_zero()


def test_var_const_and_basic_queries():
    x, y = mp_vars(QQ, 2)
    c = MultiPoly.const(QQ, 2, Fraction(5))
    assert x.total_degree() == 1 and c.total_degree() == 0
    assert c.is_constant() and c.constant_value() == 5
    assert (x * y).degree_in(0) == 1
    assert (x * x * y).degree_in(0) == 2
    assert sorted((x + y).variables()) == [0, 1]
    assert x.arity == 2


@settings(max_examples=100, deadline=None)
@given(mpolys, mpolys, mpolys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) * h == f * h + g * h
    assert f - f == MultiPoly.zero(QQ, 3)
    assert f * g == g * f


@settings(max_examples=100, deadline=None)
@given(mpolys, mpolys.filter(lambda p: not p.is_zero()))
def test_exact_div_roundtrip(f, g):
    assert (f * g).exact_div(g) == f


def test_exact_div_raises_on_nondivisor():
    x, y = mp_vars(QQ, 2)
    with pytest.raises(ValueError):
        (x * x + y).exact_div(x)


def test_leading_term_under_orders():
    x, y = mp_vars(QQ, 2)
    f = x * x + x * y * y  # x^2 + x y^2
    e_grev, _ = f.leading(GREVLEX)
    e_lex, _ = f.leading(LEX)
    assert e_grev == (1, 2)  # higher total degree wins
    assert e_lex == (2, 0)  # higher power of the first variable wins


# (larger, smaller) pairs: grevlex compares degree first and then
# prefers the smaller trailing exponent; block(1) compares exponent 0
# first, then grevlex on the rest
HAND_ORDERS = [
    (GREVLEX, [((1, 2, 0), (0, 0, 3)), ((2, 0, 0), (0, 2, 0)),
               ((0, 3, 0), (1, 0, 2)), ((2, 1, 0), (0, 1, 2)),
               ((3, 0, 0), (0, 0, 3)), ((1, 1, 0), (0, 2, 0)),
               ((0, 0, 2), (0, 0, 1))]),
    (LEX, [((1, 0, 0), (0, 9, 9)), ((1, 2, 0), (1, 1, 9))]),
    (block_order(1), [((1, 0, 0), (0, 9, 9)), ((1, 2, 0), (1, 0, 1)),
                      ((1, 0, 3), (1, 2, 0))]),
]


@pytest.mark.parametrize("order, pairs", HAND_ORDERS,
                         ids=[repr(order) for order, _ in HAND_ORDERS])
def test_leading_follows_the_hand_orders(order, pairs):
    for larger, smaller in pairs:
        for terms in ({larger: 1, smaller: 2}, {smaller: 2, larger: 1}):
            assert MultiPoly(QQ, 3, terms).leading(order) == (larger, 1)


def test_block_order_leading():
    x, y, z = mp_vars(QQ, 3)
    f = x + y * y * z * z
    # x outranks anything in later blocks when it sits in the first block
    e, _ = f.leading(block_order(1))
    assert e == (1, 0, 0)


def test_evaluate_and_substitute_agree():
    x, y = mp_vars(QQ, 2)
    f = x * x * y - 2 * y + MultiPoly.const(QQ, 2, Fraction(7))
    assert f.evaluate([Fraction(3), Fraction(2)]) == 18 - 4 + 7
    g = substitute(f, {0: y})  # x -> y
    assert g == y * y * y - 2 * y + MultiPoly.const(QQ, 2, Fraction(7))


def test_assign_value_drops_the_assigned_variable():
    x, y = mp_vars(QQ, 2)
    f = x * x + x * y + y
    g = f.assign_value(0, Fraction(2))
    assert g.arity == 1
    (s,) = mp_vars(QQ, 1)
    assert g == 3 * s + MultiPoly.const(QQ, 1, Fraction(4))


def test_homogenize_dehomogenize_roundtrip():
    x, y = mp_vars(QQ, 2)
    f = x * x * y + x - MultiPoly.const(QQ, 2, Fraction(3))
    h = f.homogenize()
    assert h.arity == 3
    degs = {sum(e) for e in h.terms}
    assert degs == {f.total_degree()}
    assert h.assign_value(2, Fraction(1)) == f


def test_homogenize_at_infinity_gives_leading_form():
    x, y = mp_vars(QQ, 2)
    f = x * x + y * y - y  # circle through the origin
    top = f.homogenize().assign_value(2, Fraction(0))
    assert top == x * x + y * y


def test_scale_monic_and_content():
    x, y = mp_vars(QQ, 2)
    f = 4 * x + 2 * y
    assert f.scale(Fraction(1, 2)) == 2 * x + y
    m = f.monic(GREVLEX)
    _, lc = m.leading(GREVLEX)
    assert lc == 1


def test_map_coefficients_into_tower():
    K = make_extension(QQ, UniPoly(QQ, (1, 0, 1)), "a")
    x, y = mp_vars(QQ, 2)
    f = x + 2 * y
    g = f.map_coefficients(K.coerce, K)
    assert g.field is K
    assert g.terms[(0, 1)] == K.coerce(2)


def _tuple_product(a, b):
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            k = tuple(x + y for x, y in zip(e, f))
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


def _tuple_quotient(a, b):
    """a / b by long division on exponent tuples, or None when b does not
    divide a."""
    lead = max(b, key=GREVLEX.key)
    rem, q = dict(a), {}
    while rem:
        e = max(rem, key=GREVLEX.key)
        s = tuple(x - y for x, y in zip(e, lead))
        if min(s) < 0:
            return None
        c = rem[e] / b[lead]
        q[s] = c
        for k, v in _tuple_product({s: -c}, b).items():
            rem[k] = rem.get(k, 0) + v
            if not rem[k]:
                del rem[k]
    return q


ZERO = MultiPoly.zero(QQ, 3)
SEVEN = MultiPoly.const(QQ, 3, Fraction(7))
ORDERS = st.sampled_from([LEX, GREVLEX, block_order(1), block_order(2)])


@settings(max_examples=150, deadline=None)
@given(mpolys, mpolys, ORDERS)
def test_packed_arithmetic_matches_a_tuple_reference(f, g, order):
    fg = f * g
    assert fg.terms == _tuple_product(f.terms, g.terms)
    for p in (f, g, fg):
        if p.terms:
            e = max(p.terms, key=order.key)
            assert p.leading(order) == (e, p.terms[e])
    if g.is_zero():
        return
    # the product, an arbitrary dividend, a constant and zero; a divisor
    # of higher degree than the dividend must raise
    for h in (fg, f, SEVEN, ZERO):
        want = _tuple_quotient(h.terms, g.terms)
        if want is None:
            with pytest.raises(ValueError):
                h.exact_div(g)
        else:
            assert h.exact_div(g).terms == want


def test_exact_div_of_a_constant_or_zero_dividend():
    x, y, _ = mp_vars(QQ, 3)
    assert ZERO.exact_div(x * y + 1).is_zero()
    assert ZERO.exact_div(SEVEN).is_zero()
    assert SEVEN.exact_div(MultiPoly.const(QQ, 3, Fraction(2))) == \
        MultiPoly.const(QQ, 3, Fraction(7, 2))
    for divisor in (x, x * y + 1, x * x * y * y):
        with pytest.raises(ValueError):
            SEVEN.exact_div(divisor)
    with pytest.raises(ValueError):
        (x + y).exact_div(x * x * y)
    with pytest.raises(ZeroDivisionError):
        SEVEN.exact_div(ZERO)
