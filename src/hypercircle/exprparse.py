"""Expression and input-file parsing.

Grammar: integers, names, + - * / ^ with the usual precedence, and
parentheses.  Multiplication is always explicit.  Digits and names are
ASCII: a name is [A-Za-z_][A-Za-z0-9_]*, and any other character is an
error.  Parentheses nest at most MAX_NESTING deep; a run of unary minus
signs is read in a loop, so no input can exhaust the interpreter's
stack.  Every error carries a line and column.

One recursive-descent parser evaluates an expression into an exact
numerator/denominator pair; the denominator is None, read as one,
until a non-constant divisor appears, and a nonzero constant divisor
is folded into the numerator where it appears.  The values come from
one of two rings:

- a curve component or a minimal polynomial is read over its field
  into sparse maps {degree in the parameter: coefficient}.  A
  coefficient stays an int or a Fraction while it is rational and
  becomes a field element only when the generator `a` enters; `a^k`
  is the unit coordinate vector for k below the degree of the field,
  so the generator is reduced as it is read.  The polynomials over
  the field are built once, from the final pair.
- `parse_fraction` reads into multivariate polynomials over QQ.  A
  divisor that is zero in a field QQ(a) is re-read this way, over
  QQ[t, a]: only a divisor that is zero there too is a division by
  zero, since one zero only modulo the minimal polynomial can cancel.
  A re-read that meets a `^` cap reports a division by zero as well.
"""

import operator
from fractions import Fraction

from .descent import Parametrization
from .fields import QQ, make_extension
from .mpoly import MultiPoly, add_terms, addmul
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

# Cap on the depth of nested parentheses.  Each level costs the parser
# three stack frames, so the cap keeps every input, a formal re-read of
# a divisor included, far below the interpreter's recursion limit.
MAX_NESTING = 100


def tokenize(s):
    out = []
    line = 1
    col = 1
    i = 0
    n = len(s)
    while i < n:
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
        if ch in _OPS:
            out.append(("OP", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isascii():
            if ch.isdigit():
                j = i + 1
                while j < n and s[j].isdigit() and s[j].isascii():
                    j += 1
                out.append(("INT", s[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and s[j].isascii() and (s[j].isalnum()
                                                    or s[j] == "_"):
                    j += 1
                out.append(("NAME", s[i:j], line, col))
                col += j - i
                i = j
                continue
        raise ExpressionError(f"unexpected character '{ch}'", line, col)
    out.append(("END", "", line, col))
    return out


def _fail(reason, tok):
    raise ExpressionError(reason, tok[2], tok[3])


class _Parser:
    """Recursive descent over num/den pairs of a ring's values.

    A value pair is (num, den) with den None for one.  The ring names
    its atoms, lifts integers (const), and gives the arithmetic, the
    degree the `^` cap reads and, as formal, the variables of the ring
    QQ[t, a] that a parse over a field QQ(a) is the image of.
    """

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def parse(self):
        value = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            _fail(f"unexpected token '{tok[1]}'", tok)
        return value

    def expr(self):
        tokens = self.tokens
        ring = self.ring
        add, mul = ring.add, ring.mul
        num, den = self.term()
        while True:
            kind, text, _, _ = tokens[self.pos]
            if kind != "OP" or text not in "+-":
                return num, den
            self.pos += 1
            n2, d2 = self.term()
            if text == "-":
                n2 = ring.neg(n2)
            if d2 is None:
                num = add(num, n2 if den is None else mul(n2, den))
            elif den is None:
                num, den = add(mul(num, d2), n2), d2
            else:
                num, den = add(mul(num, d2), mul(n2, den)), mul(den, d2)

    def term(self):
        tokens = self.tokens
        ring = self.ring
        mul = ring.mul
        num, den = self.factor()
        while True:
            tok = tokens[self.pos]
            kind, text = tok[0], tok[1]
            if kind != "OP" or text not in "*/":
                return num, den
            self.pos += 1
            start = self.pos
            n2, d2 = self.factor()
            if text == "/":
                if ring.is_zero(n2) and self._formally_zero(start):
                    _fail("division by zero", tok)
                n2, d2 = d2, n2
            if n2 is not None:
                num = mul(num, n2)
            if d2 is not None:
                den = d2 if den is None else mul(den, d2)
                c = ring.unit_constant(den)
                if c is not None:
                    # a nonzero constant denominator is a unit
                    num, den = ring.divide(num, c), None

    def _formally_zero(self, start):
        """Whether the factor read from token start on, whose numerator
        is zero, is zero as a polynomial in the formal variables."""
        formal = self.ring.formal
        if formal is None:
            return True
        span = self.tokens[start:self.pos] + [("END", "", 0, 0)]
        try:
            return _Parser(span, _Formal(formal)).parse()[0].is_zero()
        except ExpressionError:
            # a `^` cap bounds the re-read; the divisor is zero in the field
            return True

    def factor(self):
        """A run of unary minus signs, then an atom and an optional
        `^` with an integer exponent."""
        tokens = self.tokens
        ring = self.ring
        tok = tokens[self.pos]
        negate = False
        while tok[1] == "-" and tok[0] == "OP":
            negate = not negate
            self.pos += 1
            tok = tokens[self.pos]
        self.pos += 1
        kind, text = tok[0], tok[1]
        den = None
        if kind == "INT":
            num = ring.const(int(text))
        elif kind == "NAME":
            num = ring.atoms.get(text)
            if num is None:
                _fail(f"unknown variable '{text}'", tok)
        elif kind == "OP" and text == "(":
            if self.depth == MAX_NESTING:
                _fail(f"nesting deeper than {MAX_NESTING}", tok)
            self.depth += 1
            num, den = self.expr()
            closing = tokens[self.pos]
            if not (closing[0] == "OP" and closing[1] == ")"):
                _fail("expected ')'", closing)
            self.pos += 1
            self.depth -= 1
        elif kind == "END":
            _fail("unexpected end of expression", tok)
        else:
            _fail(f"unexpected token '{text}'", tok)
        tok = tokens[self.pos]
        if tok[1] == "^" and tok[0] == "OP":
            num, den = self.power(num, den)
        return (ring.neg(num) if negate else num), den

    def power(self, num, den):
        ring = self.ring
        self.pos += 1
        etok = self.tokens[self.pos]
        if etok[0] != "INT":
            _fail("expected an integer exponent", etok)
        self.pos += 1
        k = int(etok[1])
        degree = ring.degree(num)
        if den is not None:
            degree = max(degree, ring.degree(den))
        if max(degree, 1) * k > MAX_POWER_DEGREE:
            _fail(f"power of degree above {MAX_POWER_DEGREE}", etok)
        if degree <= 0:
            bits = _bits(ring.constant(num))
            if den is not None:
                bits = max(bits, _bits(ring.constant(den)))
            if bits * k > MAX_POWER_BITS:
                _fail(f"constant power above {MAX_POWER_BITS} bits", etok)
        if not k:
            return ring.const(1), None
        return ring.power(num, k), (None if den is None
                                    else ring.power(den, k))


def _bits(c):
    """The bit size of the largest numerator or denominator of a
    rational or of a field element's coordinates."""
    if isinstance(c, (int, Fraction)):
        return max(abs(c.numerator), c.denominator).bit_length()
    if c.field.height == 1:
        # integer numerators over one denominator
        return max(c.den, *map(abs, c.vec)).bit_length()
    return max(map(_bits, c.vec))


class _Formal:
    """MultiPoly values over QQ in the given variables."""

    formal = None

    def __init__(self, var_names):
        arity = self.arity = len(var_names)
        self.atoms = {name: MultiPoly.var(QQ, arity, i)
                      for i, name in enumerate(var_names)}

    def const(self, k):
        return MultiPoly.const(QQ, self.arity, k)

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    power = staticmethod(operator.pow)
    is_zero = staticmethod(MultiPoly.is_zero)
    degree = staticmethod(MultiPoly.total_degree)
    constant = staticmethod(MultiPoly.constant_value)

    @staticmethod
    def unit_constant(p):
        if p.is_constant() and not p.is_zero():
            return p.constant_value()
        return None

    @staticmethod
    def divide(p, c):
        return p.scale(1 / c)


class _Lean:
    """Polynomials in one variable over QQ or a tower QQ(a), as sparse
    maps {degree: coefficient} holding no zero coefficient.

    A coefficient is an int or a Fraction while it is rational, and a
    field element once the generator, the constant named field.name,
    has entered it.
    """

    def __init__(self, field, var):
        self.field = field
        self.atoms = {var: {1: 1}}
        self.gen = self.formal = None
        if field is not QQ:
            self.gen = field.gen()
            self.atoms[field.name] = {0: self.gen}
            self.formal = (var, field.name)

    @staticmethod
    def const(k):
        return {0: k} if k else {}

    add = staticmethod(add_terms)

    @staticmethod
    def neg(p):
        return {k: -c for k, c in p.items()}

    @staticmethod
    def mul(p, q):
        if len(p) == 1:
            p, q = q, p
        if len(q) == 1:
            # a monomial factor: a shift and a scale, skipped for one
            (m, c), = q.items()
            if c.__class__ is int and c == 1:
                return {k + m: v for k, v in p.items()} if m else p
            return {k + m: v * c for k, v in p.items()}
        out = {}
        addmul(out, p, q)
        return out

    def power(self, p, k):
        if len(p) == 1:
            (m, c), = p.items()
            return {m * k: self._gen_power(k) if c is self.gen else c ** k}
        out = None
        while k:
            if k & 1:
                out = p if out is None else self.mul(out, p)
            k >>= 1
            if k:
                p = self.mul(p, p)
        return out

    def _gen_power(self, k):
        """a^k: a unit coordinate vector below the degree of the field,
        a power of the generator from there on."""
        f = self.field
        if k < f.degree:
            return f._unit(k, 1 if f.height == 1 else f.base.one)
        return self.gen ** k

    @staticmethod
    def is_zero(p):
        return not p

    @staticmethod
    def degree(p):
        return max(p) if p else -1

    @staticmethod
    def constant(p):
        return p.get(0, 0)

    @staticmethod
    def unit_constant(p):
        if len(p) == 1 and 0 in p:
            return p[0]
        return None

    def divide(self, p, c):
        if isinstance(c, (int, Fraction)):
            return self.mul(p, {0: Fraction(1, c)})
        return self.mul(p, {0: c.inverse()})

    def unipoly(self, p):
        """The UniPoly over the field of a sparse map."""
        field = self.field
        coeffs = [field.zero] * (max(p) + 1 if p else 0)
        for k, c in p.items():
            coeffs[k] = c
        return UniPoly(field, coeffs)


def _field_pair(s, field, var):
    """(num, den) of s over field as UniPolys, den None for one."""
    ring = _Lean(field, var)
    num, den = _Parser(tokenize(s), ring).parse()
    return ring.unipoly(num), None if den is None else ring.unipoly(den)


def parse_fraction(s, var_names):
    """(numerator, denominator) over QQ in the given variables."""
    ring = _Formal(var_names)
    num, den = _Parser(tokenize(s), ring).parse()
    return num, ring.const(1) if den is None else den


def parse_polynomial(s, var_name="x"):
    """Univariate polynomial over QQ; division must cancel."""
    rf = RationalFunction(*_field_pair(s, QQ, var_name))
    if rf.den.degree() > 0:
        raise ValueError(f"'{s}' is not a polynomial in {var_name}")
    return rf.num


def parse_component(s, field, var="t"):
    """Rational function in the parameter over QQ or an extension."""
    num, den = _field_pair(s, field, var)
    if den is not None and den.is_zero():
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
