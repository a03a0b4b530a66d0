"""Exact arithmetic in QQ(a) for the benchmark's generators and checks.

Deliberately independent of the hypercircle package: the generators
expand known-answer curves with it, and the answer checks evaluate
reported parametrizations with it, so a defect in the package's own
field arithmetic or parser cannot vouch for itself.
"""

from fractions import Fraction


class NumberField:
    """QQ[x] / (minpoly) with elements stored as coefficient tuples.

    minpoly is an ascending list of rationals, monic, of degree n >= 1;
    irreducibility is the caller's promise (inverse() checks it).
    """

    def __init__(self, minpoly):
        minpoly = [Fraction(c) for c in minpoly]
        if minpoly[-1] != 1 or len(minpoly) < 2:
            raise ValueError("minimal polynomial must be monic, degree >= 1")
        self.minpoly = minpoly
        self.n = len(minpoly) - 1
        self.zero = (Fraction(0),) * self.n
        self.one = self.const(1)

    def const(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.n - 1)

    def gen(self):
        if self.n == 1:
            return (-self.minpoly[0],)
        return (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.n - 2)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def mul(self, x, y):
        n = self.n
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c:
                for i in range(n):
                    prod[k - n + i] -= c * self.minpoly[i]
        return tuple(prod[:n])

    def pow(self, x, k):
        if k < 0:
            return self.pow(self.inv(x), -k)
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            k >>= 1
        return out

    def inv(self, x):
        """Inverse by solving x * y = 1 as an n x n rational system."""
        if not any(x):
            raise ZeroDivisionError("inverse of zero")
        n = self.n
        cols = []
        basis = self.one
        for _ in range(n):
            cols.append(self.mul(x, basis))
            basis = self.mul(basis, self.gen())
        rows = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))]
                for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if rows[r][c]), None)
            if piv is None:
                raise ArithmeticError("minimal polynomial is reducible")
            rows[c], rows[piv] = rows[piv], rows[c]
            p = rows[c][c]
            rows[c] = [v / p for v in rows[c]]
            for r in range(n):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
        return tuple(rows[i][n] for i in range(n))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def render(self, x, name="a"):
        """Parenthesized sum c0 + c1*name + ..., parseable by the CLI."""
        out = ""
        for k, c in enumerate(x):
            if not c:
                continue
            mon = "" if k == 0 else (name if k == 1 else f"{name}^{k}")
            mag = abs(c)
            coeff = f"{mag.numerator}" if mag.denominator == 1 else \
                f"{mag.numerator}/{mag.denominator}"
            if not mon:
                term = coeff
            else:
                term = mon if mag == 1 else f"{coeff}*{mon}"
            if not out:
                out = term if c > 0 else f"-{term}"
            else:
                out += f" + {term}" if c > 0 else f" - {term}"
        return f"({out or '0'})"


# ---------------------------------------------------------------------------
# polynomials in t with coefficients in a NumberField (ascending lists)


def poly_add(K, p, q):
    out = [K.zero] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] = K.add(out[i], c)
    for i, c in enumerate(q):
        out[i] = K.add(out[i], c)
    return out


def poly_mul(K, p, q):
    out = [K.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return out


def poly_shift(K, p, b):
    """p(t + b) by Horner."""
    out = [p[-1]]
    lin = [b, K.one]
    for c in reversed(p[:-1]):
        out = poly_add(K, poly_mul(K, out, lin), [c])
    return out


def render_poly(K, p, var="t", name="a"):
    terms = []
    for k in range(len(p) - 1, -1, -1):
        if not any(p[k]):
            continue
        mon = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        c = K.render(p[k], name)
        terms.append(c if not mon else f"{c}*{mon}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# evaluation of expression strings at field values


def _tokens(s):
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            out.append(("INT", int(s[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            out.append(("NAME", s[i:j]))
            i = j
        elif ch in "+-*/^()":
            out.append(("OP", ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {s!r}")
    out.append(("END", None))
    return out


def evaluate(K, s, env):
    """Value in K of the expression s, names bound by env.

    Same grammar as the CLI's inputs and outputs: integers, names,
    + - * / ^ (integer exponents), unary minus and parentheses.  An
    unbound name raises KeyError; a zero divisor, ZeroDivisionError.
    """
    toks = _tokens(s)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take():
        tok = toks[pos[0]]
        pos[0] += 1
        return tok

    def expr():
        v = term()
        while peek() in (("OP", "+"), ("OP", "-")):
            op = take()[1]
            w = term()
            v = K.add(v, w) if op == "+" else K.sub(v, w)
        return v

    def term():
        v = unary()
        while peek() in (("OP", "*"), ("OP", "/")):
            op = take()[1]
            w = unary()
            v = K.mul(v, w) if op == "*" else K.div(v, w)
        return v

    def unary():
        if peek() == ("OP", "-"):
            take()
            return K.neg(unary())
        if peek() == ("OP", "+"):
            take()
            return unary()
        return power()

    def power():
        v = atom()
        if peek() == ("OP", "^"):
            take()
            sign = 1
            if peek() == ("OP", "-"):
                take()
                sign = -1
            kind, k = take()
            if kind != "INT":
                raise ValueError(f"non-integer exponent in {s!r}")
            v = K.pow(v, sign * k)
        return v

    def atom():
        kind, val = take()
        if kind == "INT":
            return K.const(val)
        if kind == "NAME":
            return env[val]
        if (kind, val) == ("OP", "("):
            v = expr()
            if take() != ("OP", ")"):
                raise ValueError(f"unbalanced parentheses in {s!r}")
            return v
        raise ValueError(f"unexpected token {val!r} in {s!r}")

    v = expr()
    if peek()[0] != "END":
        raise ValueError(f"trailing input in {s!r}")
    return v
