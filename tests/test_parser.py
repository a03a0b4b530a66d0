"""Expression parsing, curve files, and canonical rendering."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import (input_path, parse_field_element, parse_gens,
                     reference_parse_component, reference_parse_polynomial,
                     repo_root)

from hypercircle.cli import main as cli_main
from hypercircle.exprparse import (
    ExpressionError,
    build_problem,
    parse_component,
    parse_curve_file,
    parse_fraction,
    parse_polynomial,
    tokenize,
)
from hypercircle.fields import (QQ, ReduciblePolynomialError, TowerContext,
                               make_extension)
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


@pytest.mark.parametrize("src,ok", [
    ("a^64", True),
    ("a^65", False),
    ("(a*t)^40", True),
    ("(a*t)^65", False),
    ("(t - a)^64", True),
    ("1/(t^2 + a)^33", False),
])
def test_power_cap_reads_the_degree_in_t(qi, src, ok):
    # the generator is reduced as it is read, so it is a constant
    if ok:
        parse_component(src, qi)
        return
    with pytest.raises(ExpressionError) as exc:
        parse_component(src, qi)
    assert exc.value.reason == "power of degree above 64"
    assert exc.value.column == src.rindex("^") + 2


@pytest.mark.parametrize("src,column", [
    ("((2^64)^64)^64", 13),
    ("(3*t)^64 + ((1/3^40)^40)^40", 26),
])
def test_power_cap_reads_the_bits_of_a_constant(src, column):
    # a constant base counts as degree one, so nested powers of constants
    # pass the degree cap; the bit cap is checked before the power is
    # built
    with pytest.raises(ExpressionError) as exc:
        parse_fraction(src, ("t",))
    assert exc.value.reason == "constant power above 16384 bits"
    assert exc.value.column == column
    parse_fraction("((2^64)^64)^3 + (3*t)^64", ("t",))


def test_power_of_the_generator_is_reduced(qi):
    # i^40 = 1 and i^2 = -1
    t40 = UniPoly(qi, (0,) * 40 + (1,))
    assert parse_component("(a*t)^40", qi) == RationalFunction(t40)
    assert parse_component("a^64 + a^2*t", qi) == RationalFunction(
        UniPoly(qi, (1, -1)))


def test_division_by_zero_is_zero_in_t_and_the_generator(qi):
    # a divisor that vanishes only modulo a^2 + 1 is no division by
    # zero (test_parse_component_over_extension): it can cancel out
    with pytest.raises(ExpressionError) as exc:
        parse_component("t/(a*t - t*a)", qi)
    assert exc.value.reason == "division by zero"
    assert (exc.value.line, exc.value.column) == (1, 2)
    assert parse_component("1/(1/(a^2 + 1))", qi) == RationalFunction(
        UniPoly.zero(qi))
    # the field parse accepts (a^2)^40, whose re-read over QQ[t, a] is
    # past the degree cap: the divisor is zero in the field, so the
    # error is the division at the `/`, not the re-read's cap
    with pytest.raises(ExpressionError) as exc:
        parse_component("t + 1/((a^2)^40 - 1)", qi)
    assert exc.value.reason == "division by zero"
    assert (exc.value.line, exc.value.column) == (1, 6)


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


def test_render_second_descent_elements_parse_back(quartic,
                                                   quartic_report):
    # over QQ(g)(a) an a-free coefficient can still be irrational in QQ(g)
    report, _ = quartic_report
    ctx = TowerContext(report.embedding)
    tower = ctx.tower
    phi2 = quartic.map_coefficients(ctx.to_tower, tower)
    assert repr(phi2).startswith("Parametrization([")
    g, a = tower.coerce(tower.base.gen()), tower.gen()
    elements = phi2.coefficients() + [g, tower.coerce(3) - g / 2, a * g]
    assert any(not any(c.coeffs[1:]) and not c.coeffs[0].is_rational()
               for c in phi2.coefficients())
    for c in elements:
        num, den = parse_fraction(render_field_element(c),
                                  (tower.base.name, tower.name))
        value = tower.zero
        for (i, j), q in num.terms.items():
            value = value + g ** i * a ** j * q
        assert value / den.constant_value() == c


# ---------------------------------------------------------------------------
# nesting, signs and characters: every input is an error with a position
# or a value, never a RecursionError


def _nested(depth, inner="t"):
    return "(" * depth + inner + ")" * depth


def _cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _curve(tmp_path, component, name="c.curve"):
    path = tmp_path / name
    path.write_text(f"minpoly = x^2 + 1\nx1 = {component}\nx2 = t^2 + a\n",
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("component,same_as", [
    (_nested(100), "t"),
    ("-" * 3000 + "t", "t"),
    ("-" * 3001 + "t", "-t"),
    ("t^2 - " + "-" * 999 + "a", "t^2 + a"),
], ids=["parens-100", "signs-3000", "signs-3001", "signs-inside"])
def test_deep_but_bounded_components_parse(capsys, tmp_path, component,
                                           same_as):
    want = _cli(capsys, "witness", _curve(tmp_path, same_as, "want.curve"),
                "--json")
    got = _cli(capsys, "witness", _curve(tmp_path, component), "--json")
    assert want[0] == 0
    assert got == want


@pytest.mark.parametrize("depth", [101, 3000])
def test_nesting_past_the_cap_is_input_error(capsys, tmp_path, depth):
    code, out, err = _cli(capsys, "witness",
                          _curve(tmp_path, _nested(depth)), "--json")
    assert (code, out) == (2, "")
    assert err == ("input error: x1 (line 2): nesting deeper than 100 at "
                   "column 101\n")


@pytest.mark.parametrize("minpoly,unit,same_as", [
    (_nested(100, "x^2 + 1"), "t", ("x^2 + 1", "t")),
    ("x^2 + 1", _nested(100, "a*t + 1"), ("x^2 + 1", "a*t + 1")),
    ("x^2 + 1", "-" * 3000 + "t", ("x^2 + 1", "t")),
    ("x^2 + 1", "-" * 3001 + "t", ("x^2 + 1", "-t")),
], ids=["minpoly-100", "unit-100", "signs-3000", "signs-3001"])
def test_hypercircle_reads_deep_but_bounded_input(capsys, minpoly, unit,
                                                  same_as):
    # "--" ends the options, so a unit may start with a sign
    want = _cli(capsys, "hypercircle", "--json", "--", *same_as)
    got = _cli(capsys, "hypercircle", "--json", "--", minpoly, unit)
    assert want[0] == 0
    assert got == want


@pytest.mark.parametrize("depth", [101, 250, 3000])
@pytest.mark.parametrize("which", ["minpoly", "unit"])
def test_hypercircle_nesting_past_the_cap_is_input_error(capsys, depth,
                                                         which):
    minpoly, unit = "x^2 + 1", "a*t + 1"
    if which == "minpoly":
        minpoly = _nested(depth, minpoly)
    else:
        unit = _nested(depth, unit)
    code, out, err = _cli(capsys, "hypercircle", minpoly, unit, "--json")
    assert (code, out) == (2, "")
    assert err == ("input error: nesting deeper than 100 at line 1, "
                   "column 101\n")


def test_nesting_cap_covers_every_parser(qi):
    for parse in (lambda s: parse_fraction(s, ("t",)),
                  lambda s: parse_polynomial(s, "t"),
                  lambda s: parse_component(s, qi)):
        parse(_nested(100))
        with pytest.raises(ExpressionError) as exc:
            parse("t + " + _nested(101))
        assert exc.value.reason == "nesting deeper than 100"
        assert (exc.value.line, exc.value.column) == (1, 105)


@pytest.mark.parametrize("src,char,column", [
    ("t^٣ + ٢", "٣", 3),
    ("t^²", "²", 3),
    ("t٣", "٣", 2),
    ("é + t", "é", 1),
    ("t + xé", "é", 6),
])
def test_only_ascii_digits_and_names_are_tokens(src, char, column):
    with pytest.raises(ExpressionError) as exc:
        parse_component(src, QQ)
    assert exc.value.reason == f"unexpected character '{char}'"
    assert (exc.value.line, exc.value.column) == (1, column)


def test_non_ascii_digit_in_a_curve_file_is_input_error(capsys, tmp_path):
    code, out, err = _cli(capsys, "witness",
                          _curve(tmp_path, "t^٣"), "--json")
    assert (code, out) == (2, "")
    assert err == ("input error: x1 (line 2): unexpected character "
                   "'٣' at column 3\n")


# ---------------------------------------------------------------------------
# differential oracle: the parser against the UniPoly-valued reference


def _field(minpoly):
    return make_extension(QQ, parse_polynomial(minpoly), "a")


def _fields():
    quartic = parse_curve_file(input_path("quartic.curve").read_text())
    return {
        "QQ": QQ,
        "QQ(i)": _field("x^2 + 1"),
        # 2a^4 = 3: a minimal polynomial with a denominator, T = 2
        "2a^4=3": _field("x^4 - 3/2"),
        "quartic": _field(quartic.minpoly),
        "quintic": _field("x^5 + 2*x^3 - 4*x + 2"),
    }


FIELDS = _fields()


def _outcome(parse, *args):
    """What a parse gives: the reduced (num, den) coefficients, or the
    error's type, reason and position."""
    try:
        value = parse(*args)
    except ExpressionError as exc:
        return ("ExpressionError", exc.reason, exc.line, exc.column)
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(value, RationalFunction):
        return ("ok", value.num.coeffs, value.den.coeffs)
    return ("ok", value.coeffs)


def _same_component(s, field):
    got = _outcome(parse_component, s, field)
    assert got == _outcome(reference_parse_component, s, field), s
    return got


def _same_polynomial(s, var="t"):
    got = _outcome(parse_polynomial, s, var)
    assert got == _outcome(reference_parse_polynomial, s, var), s
    return got


def _field_zero(field):
    """Divisors that are zero in the field but not in QQ[t, a]."""
    m = render_unipoly(field.minpoly, "a")
    return [f"({m})", f"(t*({m}))", f"(({m})^2 - t + t)"]


_FORMAL_ZERO = ["(t - t)", "(a*t - t*a)", "(0*a)", "(a - a)", "(2 - 2)"]


def _leaf(rng, field):
    n = field.degree
    roll = rng.random()
    if roll < 0.25:
        return "t"
    if roll < 0.45:
        return str(rng.randint(0, 12))
    if roll < 0.6:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if field is QQ and rng.random() < 0.9:
        return f"t^{rng.randint(0, 4)}"
    if roll < 0.8:
        return "a"
    # powers of the generator past its degree fold through the table
    return f"a^{rng.randint(0, 2 * n + 3)}"


def _divisor(rng, field):
    roll = rng.random()
    if roll < 0.3:
        d = rng.choice(["3", "(2/5)", "(-7)", "(a + 1)", "(2*a)"])
    elif roll < 0.65:
        d = rng.choice(["(t + 1)", "(t^2 - a)", "(a*t - 1/2)", "t",
                        "(t - 1)^2"])
    elif roll < 0.85 and field is not QQ:
        return rng.choice(_field_zero(field))
    else:
        d = rng.choice(_FORMAL_ZERO)
    return d.replace("a", "5") if field is QQ else d


def _expression(rng, field, depth=0):
    if depth >= 4 or rng.random() < 0.2:
        return _leaf(rng, field)
    roll = rng.random()
    sub = lambda: _expression(rng, field, depth + 1)  # noqa: E731
    if roll < 0.3:
        return " + ".join(sub() for _ in range(rng.randint(2, 3)))
    if roll < 0.45:
        return f"{sub()} - {sub()}"
    if roll < 0.65:
        return f"{sub()}*{sub()}"
    if roll < 0.8:
        return f"{sub()}/{_divisor(rng, field)}"
    if roll < 0.88:
        return "-" * rng.randint(1, 3) + sub()
    if roll < 0.95:
        return f"({sub()})^{rng.randint(0, 3)}"
    return f"(({sub()}))"


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_random_expressions_match_the_reference(name):
    field = FIELDS[name]
    rng = random.Random(f"parse:{name}")
    outcomes = set()
    for _ in range(80):
        s = _expression(rng, field)
        if field is not QQ and rng.random() < 0.1:
            s = f"({s}) / {_divisor(rng, field)}"
        outcomes.add(_same_component(s, field)[0])
        if field is QQ:
            _same_polynomial(s)
    # the corpus reaches values and errors alike
    assert "ok" in outcomes and "ExpressionError" in outcomes


def _cap_edge(template, field, limit=300):
    """The least exponent k at which template.format(k) fails the
    reference parse, or None below limit."""
    for k in range(limit):
        if _outcome(reference_parse_component, template.format(k),
                    field)[0] != "ok":
            return k
    return None


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("template", [
    "t^{}", "(t + 1)^{}", "(t^2 - 1/3)^{}", "1/(t^3 + 2)^{}", "(2^64)^{}",
    "((3/7)^20)^{}", "(a*t)^{}", "(a + 2)^{}", "((a + 2)^16)^{}",
    "((a^2 - 3/5)^9)^{}", "(t - a)^{}",
    # 256-bit constants: 256 * 64 is exactly the bit cap
    "((2^51)^5)^{}", "((1/2^51)^5)^{}", "((-3/2^51)^5)^{}",
])
def test_powers_up_to_each_cap_match_the_reference(name, template):
    field = FIELDS[name]
    if "a" in template and field is QQ:
        template = template.replace("a", "5")
    k = _cap_edge(template, field)
    assert k is not None and k > 1, template
    for e in (k - 1, k):
        _same_component(template.format(e), field)
        if field is QQ:
            _same_polynomial(template.format(e))
    assert _same_component(template.format(k), field)[0] == "ExpressionError"


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_divisions_by_zero_match_the_reference(name):
    field = FIELDS[name]
    divisors = list(_FORMAL_ZERO)
    if field is not QQ:
        # the last one is zero in the field, and its re-read over
        # QQ[t, a] meets the degree cap
        m = render_unipoly(field.minpoly, "a")
        divisors += _field_zero(field) + [f"((({m})^2)^40)"]
    for d in divisors:
        for s in (f"1/{d}", f"t + 1/{d}", f"1/(1/{d})", f"(t/{d})*{d}",
                  f"t^2/({d}^2)", f"1/{d}^0"):
            _same_component(s, field)


def _workload_curves(tmp_path):
    """{(workload, seed): parsed curves} for every generated curve of
    shift-r1 and tower-r2 at seeds 1, 3 and 21, built by the benchmark's
    generators in a child process."""
    script = (
        "import json, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import workloads\n"
        "out = []\n"
        "for w in ('shift-r1', 'tower-r2'):\n"
        "    for seed in (1, 3, 21):\n"
        "        d = os.path.join(sys.argv[2], f'{w}-{seed}')\n"
        "        workloads.build(w, seed, d)\n"
        "        for f in sorted(os.listdir(d)):\n"
        "            if f.endswith('.curve'):\n"
        "                out.append([w, seed,\n"
        "                            open(os.path.join(d, f)).read()])\n"
        "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", script, str(repo_root() / "hcbench"),
         str(tmp_path)], capture_output=True, text=True, env=env,
        check=True)
    curves = {}
    for w, seed, text in json.loads(done.stdout):
        curves.setdefault((w, seed), []).append(parse_curve_file(text))
    return curves


def test_workload_components_match_the_reference(tmp_path):
    curves = _workload_curves(tmp_path)
    assert set(curves) == {(w, seed) for w in ("shift-r1", "tower-r2")
                           for seed in (1, 3, 21)}
    fields = {}
    for curve in (c for batch in curves.values() for c in batch):
        got = _same_polynomial(curve.minpoly, "x")
        if curve.minpoly not in fields:
            fields[curve.minpoly] = make_extension(
                QQ, UniPoly(QQ, got[1]), "a")
        for s in curve.components:
            assert _same_component(s, fields[curve.minpoly])[0] == "ok"
