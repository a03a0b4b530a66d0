"""Expression and input-file parsing.

Grammar: integers, names, + - * / ^ with the usual precedence, and
parentheses.  Multiplication is always explicit.  Expressions evaluate
into an exact numerator/denominator pair of multivariate polynomials
over QQ, which callers then shape into the object they expect; every
error carries a line and column.
"""

from .descent import Parametrization
from .fields import QQ, make_extension
from .mpoly import MultiPoly
from .upoly import RationalFunction, UniPoly


class ExpressionError(ValueError):
    """Parse or evaluation failure at a known source position."""

    def __init__(self, reason, line, column):
        super().__init__(f"{reason} at line {line}, column {column}")
        self.reason = reason
        self.line = line
        self.column = column


_OPS = set("+-*/^()")

# Cap on (degree of the base) * exponent for one eagerly expanded `^`;
# a constant base counts as degree one.
MAX_POWER_DEGREE = 64


def tokenize(s):
    out = []
    line = 1
    col = 1
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            out.append(("INT", s[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            out.append(("NAME", s[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            out.append(("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ExpressionError(f"unexpected character '{ch}'", line, col)
    out.append(("END", "", line, col))
    return out


class _Parser:
    """Recursive descent over num/den pairs of MultiPoly over QQ."""

    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.arity = len(var_names)
        self.one = MultiPoly.const(QQ, self.arity, 1)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, reason, tok=None):
        tok = tok or self.peek()
        raise ExpressionError(reason, tok[2], tok[3])

    def parse(self):
        value = self.expr()
        kind, text, _, _ = self.peek()
        if kind != "END":
            self.fail(f"unexpected token '{text}'")
        return value

    def expr(self):
        num, den = self.term()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "OP" and text in "+-":
                self.advance()
                n2, d2 = self.term()
                if text == "-":
                    n2 = -n2
                num, den = self._sum(num, den, n2, d2)
            else:
                return num, den

    def _sum(self, num, den, n2, d2):
        # products by the constant-one denominator are skipped; other
        # equal denominators are multiplied, so that a power's degree
        # check sees the same denominators as ever
        if d2 == self.one:
            return num + (n2 if den == self.one else n2 * den), den
        if den == self.one:
            return num * d2 + n2, d2
        return num * d2 + n2 * den, den * d2

    def term(self):
        num, den = self.factor()
        while True:
            kind, text, line, col = self.peek()
            if kind == "OP" and text in "*/":
                self.advance()
                n2, d2 = self.factor()
                if text == "/":
                    if n2.is_zero():
                        raise ExpressionError("division by zero", line, col)
                    n2, d2 = d2, n2
                num = num if n2 == self.one else num * n2
                den = den if d2 == self.one else (
                    d2 if den == self.one else den * d2)
            else:
                return num, den

    def factor(self):
        kind, text, _, _ = self.peek()
        if kind == "OP" and text == "-":
            self.advance()
            num, den = self.factor()
            return -num, den
        return self.power()

    def power(self):
        num, den = self.atom()
        kind, text, _, _ = self.peek()
        if kind == "OP" and text == "^":
            self.advance()
            etok = self.peek()
            if etok[0] != "INT":
                self.fail("expected an integer exponent")
            self.advance()
            k = int(etok[1])
            base = max(num.total_degree(), den.total_degree(), 1)
            if base * k > MAX_POWER_DEGREE:
                self.fail(f"power of degree above {MAX_POWER_DEGREE}", etok)
            return num ** k, (den if den == self.one else den ** k)
        return num, den

    def atom(self):
        kind, text, _, _ = self.advance()
        if kind == "INT":
            return MultiPoly.const(QQ, self.arity, int(text)), self.one
        if kind == "NAME":
            idx = self.vars.get(text)
            if idx is None:
                tok = self.tokens[self.pos - 1]
                raise ExpressionError(f"unknown variable '{text}'",
                                      tok[2], tok[3])
            return MultiPoly.var(QQ, self.arity, idx), self.one
        if kind == "OP" and text == "(":
            value = self.expr()
            closing = self.peek()
            if not (closing[0] == "OP" and closing[1] == ")"):
                self.fail("expected ')'")
            self.advance()
            return value
        tok = self.tokens[self.pos - 1]
        if kind == "END":
            raise ExpressionError("unexpected end of expression",
                                  tok[2], tok[3])
        raise ExpressionError(f"unexpected token '{text}'", tok[2], tok[3])


def parse_fraction(s, var_names):
    """(numerator, denominator) over QQ in the given variables."""
    num, den = _Parser(tokenize(s), var_names).parse()
    if den.is_constant():
        num = num.scale(1 / den.constant_value())
        den = den.scale(1 / den.constant_value())
    return num, den


def parse_polynomial(s, var_name="x"):
    """Univariate polynomial over QQ; division must cancel."""
    num, den = parse_fraction(s, (var_name,))
    rf = RationalFunction(UniPoly.from_mpoly(num), UniPoly.from_mpoly(den))
    if rf.den.degree() > 0:
        raise ValueError(f"'{s}' is not a polynomial in {var_name}")
    return rf.num


def _collapse_generator(p, field, gen_index):
    """MultiPoly over QQ in (t, gen) -> UniPoly over the field in t."""
    gen = field.gen()
    powers = [field.one]
    for _ in range(max((e[gen_index] for e in p.terms), default=0)):
        powers.append(powers[-1] * gen)
    by_degree = {}
    for e, c in p.terms.items():
        kt = e[1 - gen_index]
        ka = e[gen_index]
        val = field.coerce(c)
        if ka:
            val = val * powers[ka]
        cur = by_degree.get(kt)
        by_degree[kt] = val if cur is None else cur + val
    if not by_degree:
        return UniPoly.zero(field)
    top = max(by_degree)
    return UniPoly(field, [by_degree.get(k, field.zero)
                           for k in range(top + 1)])


def parse_component(s, field, var="t"):
    """Rational function in the parameter over QQ or an extension."""
    if field is QQ:
        num, den = parse_fraction(s, (var,))
        nump, denp = UniPoly.from_mpoly(num), UniPoly.from_mpoly(den)
    else:
        num, den = parse_fraction(s, (var, field.name))
        nump = _collapse_generator(num, field, 1)
        denp = _collapse_generator(den, field, 1)
    if denp.is_zero():
        raise ValueError(f"zero denominator in component '{s}'")
    return RationalFunction(nump, denp)


# ---------------------------------------------------------------------------
# curve input files


class CurveFile:
    """Parsed key = value description of a parametrized curve."""

    __slots__ = ("minpoly", "components", "budget", "lines")

    def __init__(self, minpoly, components, budget=None, lines=None):
        self.minpoly = minpoly
        self.components = components
        self.budget = budget
        # file line of each key, for error messages
        self.lines = lines or {}


def parse_curve_file(text):
    """Flat key = value lines: minpoly, x1..xN, optional budget."""
    entries = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        if not key or not value:
            raise ValueError(f"line {lineno}: expected key = value")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = value
        lines[key] = lineno
    if "minpoly" not in entries:
        raise ValueError("missing 'minpoly' entry")
    minpoly = entries.pop("minpoly")
    budget = None
    if "budget" in entries:
        raw = entries.pop("budget")
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"budget must be an integer, got '{raw}'")
        if budget < 1:
            raise ValueError("budget must be positive")
    components = []
    i = 1
    while f"x{i}" in entries:
        components.append(entries.pop(f"x{i}"))
        i += 1
    if entries:
        raise ValueError(f"unknown keys: {', '.join(sorted(entries))}")
    if not components:
        raise ValueError("missing component entries x1, x2, ...")
    return CurveFile(minpoly, components, budget, lines)


def _parse_entry(curve, key, parse, *args):
    """parse(*args), with an error naming the entry and its file line.

    A position inside the entry's expression is a column of that entry.
    """
    line = curve.lines.get(key)
    where = key if line is None else f"{key} (line {line})"
    try:
        return parse(*args)
    except ExpressionError as exc:
        raise ValueError(f"{where}: {exc.reason} at column {exc.column}") \
            from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def build_problem(curve):
    """CurveFile -> Parametrization over QQ(a); phi.field is QQ(a)."""
    minpoly = _parse_entry(curve, "minpoly", parse_polynomial,
                           curve.minpoly, "x")
    tower = make_extension(QQ, minpoly, "a")
    comps = [_parse_entry(curve, f"x{i}", parse_component, s, tower)
             for i, s in enumerate(curve.components, start=1)]
    if all(max(c.num.degree(), c.den.degree()) <= 0 for c in comps):
        raise ValueError("constant parametrization: no component "
                         "depends on t")
    return Parametrization.from_components(comps)
