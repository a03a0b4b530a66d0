"""Expression parsing, curve files, and canonical rendering."""

from fractions import Fraction

import pytest

from helpers import parse_field_element, parse_gens

from hypercircle.exprparse import (
    ExpressionError,
    build_problem,
    parse_component,
    parse_curve_file,
    parse_fraction,
    parse_polynomial,
    tokenize,
)
from hypercircle.fields import QQ, ReduciblePolynomialError
from hypercircle.render import (
    render_field_element,
    render_fraction,
    render_mpoly,
    render_point,
    render_rational,
    render_unipoly,
)
from hypercircle.hypercircles import primitive_infinity_point
from hypercircle.upoly import RationalFunction, UniPoly


def test_tokenize_positions():
    toks = tokenize("t +\n 12*x")
    assert toks[0] == ("NAME", "t", 1, 1)
    assert toks[1] == ("OP", "+", 1, 3)
    assert toks[2] == ("INT", "12", 2, 2)
    assert toks[-1][0] == "END"


@pytest.mark.parametrize("src,reason,line,col", [
    ("t^", "expected an integer exponent", 1, 3),
    ("1/0", "division by zero", 1, 2),
    ("(1 + 2", "expected ')'", 1, 7),
    ("t + y", "unknown variable 'y'", 1, 5),
    ("t +\n@", "unexpected character '@'", 2, 1),
    ("", "unexpected end of expression", 1, 1),
    ("2 2", "unexpected token '2'", 1, 3),
    ("t^99999999", "power of degree above 64", 1, 3),
])
def test_expression_errors_carry_positions(src, reason, line, col):
    with pytest.raises(ExpressionError) as exc:
        parse_fraction(src, ("t",))
    assert exc.value.reason == reason
    assert (exc.value.line, exc.value.column) == (line, col)


def test_precedence_and_unary_minus():
    assert parse_polynomial("2 + 3 * 4^2", "x") == UniPoly(QQ, (50,))
    assert parse_polynomial("-x^2", "x") == UniPoly(QQ, (0, 0, -1))
    assert parse_polynomial("(x + 1)^2", "x") == UniPoly(QQ, (1, 2, 1))
    assert parse_polynomial("2*-3", "x") == UniPoly(QQ, (-6,))
    assert parse_polynomial("1/2*x - x/4", "x") == UniPoly(
        QQ, (0, Fraction(1, 4)))


def test_parse_polynomial():
    assert parse_polynomial("x^2 + 6*x + 10") == UniPoly(QQ, (10, 6, 1))
    # division is fine as long as it cancels
    assert parse_polynomial("(x^2 - 1)/(x - 1)") == UniPoly(QQ, (1, 1))
    with pytest.raises(ValueError, match="not a polynomial"):
        parse_polynomial("1/x")


def test_parse_component_over_extension(qi):
    i = qi.gen()
    rf = parse_component("(t - a)^2", qi)
    assert rf == RationalFunction(
        UniPoly(qi, (qi.coerce(-1), -2 * i, qi.one)), UniPoly(qi, (qi.one,)))
    with pytest.raises(ValueError, match="zero denominator"):
        parse_component("1/(a^2 + 1)", qi)


def test_parse_component_over_qq_normalizes():
    rf = parse_component("(t^2 + 1)/(2*t)", QQ)
    assert rf.den == UniPoly(QQ, (0, 1))
    assert rf.num == UniPoly(QQ, (Fraction(1, 2), 0, Fraction(1, 2)))


def test_parse_field_element(qi):
    assert parse_field_element("3/2", QQ) == Fraction(3, 2)
    assert parse_field_element("1/2*a - 3", qi) == qi.gen() / 2 - qi.coerce(3)
    with pytest.raises(ValueError, match="divides by the field generator"):
        parse_field_element("1/a", qi)


def test_parse_curve_file_full():
    text = """
    # a comment
    minpoly = x^2 + 1

    x1 = "(t - a)^2"
    x2 = (t - a)^3
    budget = 500
    """
    curve = parse_curve_file(text)
    assert curve.minpoly == "x^2 + 1"
    assert curve.components == ["(t - a)^2", "(t - a)^3"]
    assert curve.budget == 500


@pytest.mark.parametrize("text,message", [
    ("minpoly = x^2 + 1\nminpoly = x^2 + 2\nx1 = t",
     "duplicate key 'minpoly'"),
    ("minpoly = x^2 + 1\nx1 = t\nfrobnicate = 3", "unknown keys"),
    ("x1 = t", "missing 'minpoly'"),
    ("minpoly = x^2 + 1", "missing component entries"),
    ("minpoly = x^2 + 1\nx1 = t\nbudget = abc", "budget must be an integer"),
    ("minpoly = x^2 + 1\nx1 = t\nbudget = 0", "budget must be positive"),
    ("minpoly x^2 + 1\nx1 = t", "expected key = value"),
])
def test_parse_curve_file_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_curve_file(text)


def test_build_problem_shapes(quartic):
    phi = quartic
    assert phi.field.degree == 4
    assert len(phi.components()) == 2
    assert phi.field.name == "a"


def test_build_problem_rejects_reducible_minpoly():
    curve = parse_curve_file("minpoly = x^2 - 1\nx1 = t")
    with pytest.raises(ReduciblePolynomialError):
        build_problem(curve)


def test_render_fraction():
    assert render_fraction(Fraction(3, 2)) == "3/2"
    assert render_fraction(-4) == "-4"
    assert render_fraction(Fraction(0)) == "0"


def test_render_field_element(qi):
    i = qi.gen()
    assert render_field_element(qi.coerce(Fraction(-1, 3))) == "-1/3"
    assert render_field_element(i) == "a"
    assert render_field_element(-i) == "-a"
    assert render_field_element(Fraction(3, 2) - 2 * i) == "3/2 - 2*a"
    assert render_field_element(qi.zero) == "0"


def test_render_mpoly():
    g = parse_gens(["-t0^2 + t1 - 1/2"], 2)[0]
    assert render_mpoly(g) == "-t0^2 + t1 - 1/2"
    assert render_mpoly(parse_gens(["t0"], 2)[0]) == "t0"
    zero = g - g
    assert render_mpoly(zero) == "0"


def test_render_unipoly_parenthesizes_field_coefficients(qi):
    i = qi.gen()
    f = UniPoly(qi, (qi.one + i, 2 * i))
    s = render_unipoly(f)
    assert s == "(2*a)*t + (1 + a)"
    assert parse_component(s, qi) == RationalFunction(f, UniPoly(
        qi, (qi.one,)))


def test_render_rational_hides_unit_denominator():
    rf = RationalFunction(UniPoly(QQ, (0, 0, 1)), UniPoly(QQ, (1,)))
    assert render_rational(rf) == "t^2"
    rf2 = RationalFunction(UniPoly(QQ, (0, 1)), UniPoly(QQ, (1, 0, 1)))
    assert render_rational(rf2) == "(t)/(t^2 + 1)"


def test_render_point(qi):
    p = primitive_infinity_point(qi)
    assert render_point(p) == ["a", "1", "0"]


def test_roundtrip_witness_generators(quartic_report):
    report, _ = quartic_report
    for g in report.witness:
        assert parse_gens([render_mpoly(g)], g.arity)[0] == g


def test_roundtrip_components(quartic):
    phi = quartic
    K = phi.field
    for comp in phi.components():
        assert parse_component(render_rational(comp), K) == comp


def test_roundtrip_field_elements(quartic_report):
    report, _ = quartic_report
    emb = report.embedding
    for x in (emb.gamma, emb.ambient.gen(), emb.ambient.coerce(Fraction(
            -7, 3))):
        assert parse_field_element(render_field_element(x),
                                   emb.ambient) == x


def test_roundtrip_minpoly(quartic):
    m = quartic.field.minpoly
    assert parse_polynomial(render_unipoly(m, "x")) == m
