"""Expression and input-file parsing.

Grammar: integers, names, + - * / ^ with the usual precedence, and
parentheses.  Multiplication is always explicit.  An expression
evaluates into an exact numerator/denominator pair of polynomials: a
curve component or a minimal polynomial straight into univariate
polynomials over its field, where the generator is the constant `a`
and is reduced as it is read; `parse_fraction` into multivariate
polynomials over QQ.  Every error carries a line and column.
"""

from fractions import Fraction

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
# a constant base counts as degree one.  Over a field the degree is the
# degree in the parameter, the generator being a constant.
MAX_POWER_DEGREE = 64

# Cap on (bit size of the base) * exponent for one `^` of a constant,
# checked before the power is built: the degree cap alone leaves nested
# powers of constants, such as ((2^64)^64)^64, unbounded.  The bit size
# of a constant is that of its largest numerator or denominator.
MAX_POWER_BITS = 1 << 14


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
    """Recursive descent over num/den pairs of polynomials.

    atoms maps each variable name to its polynomial, const lifts an
    integer into the same ring, and degree is the degree the `^` cap
    reads.  formal names the variables of the ring QQ[t, a] that a
    parse over a field QQ(a) is the image of; a divisor that is zero
    only modulo the minimal polynomial is not a division by zero there.
    """

    def __init__(self, tokens, atoms, const, degree, formal=None):
        self.tokens = tokens
        self.pos = 0
        self.atoms = atoms
        self.const = const
        self.degree = degree
        self.formal = formal
        self.one = const(1)

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
                start = self.pos
                n2, d2 = self.factor()
                if text == "/":
                    if self._zero_divisor(n2, start):
                        raise ExpressionError("division by zero", line, col)
                    n2, d2 = d2, n2
                num = num if n2 == self.one else num * n2
                den = den if d2 == self.one else (
                    d2 if den == self.one else den * d2)
                if den.is_constant() and not den.is_zero() and (
                        den != self.one):
                    # a nonzero constant denominator is a unit
                    num, den = num.scale(1 / den.constant_value()), self.one
            else:
                return num, den

    def _zero_divisor(self, num, start):
        """Whether the numerator num of the factor read from token start
        on is zero as a polynomial in the formal variables."""
        if not num.is_zero():
            return False
        if self.formal is None:
            return True
        span = self.tokens[start:self.pos] + [("END", "", 0, 0)]
        return _fraction_parser(span, self.formal).parse()[0].is_zero()

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
            degree = max(self.degree(num), self.degree(den))
            if max(degree, 1) * k > MAX_POWER_DEGREE:
                self.fail(f"power of degree above {MAX_POWER_DEGREE}", etok)
            if degree <= 0:
                bits = max(_bits(num.constant_value()),
                           _bits(den.constant_value()))
                if bits * k > MAX_POWER_BITS:
                    self.fail(f"constant power above {MAX_POWER_BITS} bits",
                              etok)
            return num ** k, (den if den == self.one else den ** k)
        return num, den

    def atom(self):
        kind, text, _, _ = self.advance()
        if kind == "INT":
            return self.const(int(text)), self.one
        if kind == "NAME":
            value = self.atoms.get(text)
            if value is None:
                tok = self.tokens[self.pos - 1]
                raise ExpressionError(f"unknown variable '{text}'",
                                      tok[2], tok[3])
            return value, self.one
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


def _bits(c):
    """The bit size of the largest numerator or denominator of a
    rational or of a field element's coordinates."""
    if isinstance(c, Fraction):
        return max(abs(c.numerator), c.denominator).bit_length()
    if c.field.height == 1:
        # integer numerators over one denominator
        return max(c.den, *map(abs, c.vec)).bit_length()
    return max(map(_bits, c.vec))


def _fraction_parser(tokens, var_names):
    """A parser into multivariate polynomials over QQ."""
    arity = len(var_names)
    atoms = {name: MultiPoly.var(QQ, arity, i)
             for i, name in enumerate(var_names)}
    return _Parser(tokens, atoms, lambda k: MultiPoly.const(QQ, arity, k),
                   MultiPoly.total_degree)


def _field_parser(tokens, field, var):
    """A parser into polynomials in var over field; the name of a tower
    field's generator reads as that constant."""
    atoms = {var: UniPoly.x(field)}
    formal = None
    if field is not QQ:
        atoms[field.name] = UniPoly.const(field, field.gen())
        formal = (var, field.name)
    return _Parser(tokens, atoms, lambda k: UniPoly.const(field, k),
                   UniPoly.degree, formal)


def parse_fraction(s, var_names):
    """(numerator, denominator) over QQ in the given variables."""
    return _fraction_parser(tokenize(s), var_names).parse()


def parse_polynomial(s, var_name="x"):
    """Univariate polynomial over QQ; division must cancel."""
    rf = RationalFunction(*_field_parser(tokenize(s), QQ, var_name).parse())
    if rf.den.degree() > 0:
        raise ValueError(f"'{s}' is not a polynomial in {var_name}")
    return rf.num


def parse_component(s, field, var="t"):
    """Rational function in the parameter over QQ or an extension."""
    num, den = _field_parser(tokenize(s), field, var).parse()
    if den.is_zero():
        raise ValueError(f"zero denominator in component '{s}'")
    return RationalFunction(num, den)


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
