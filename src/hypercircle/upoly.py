"""Dense univariate polynomials over an exact field, plus resultants.

Coefficients ascend; the zero polynomial has an empty coefficient tuple.
The Sylvester resultant runs fraction-free Bareiss elimination so it also
works when the entries are themselves polynomials (exact division only).

A RationalFunction is kept reduced.  When the numerator or the
denominator is linear, one evaluation at its root decides exactly
whether they share it.  When both have degree two or more, over QQ and
over a height-one tower QQ(a), coprimality is first proved modulo a
prime (the field's `reduction`, a ring map a -> r into GF(p)): when
neither leading coefficient vanishes there and the images have a
constant gcd in GF(p)[t], no common factor of positive degree exists
over the field, because it would reduce to one of the same degree.
Only when the images share a factor, or the field has no reduction, is
the gcd taken exactly by Euclid.  `lcm` decides the same way.

Rational roots are the linear factors over ZZ that `modp` lifts.
"""

from fractions import Fraction

from . import modp
from .numtheory import clear_denominators


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_mpoly(cls, p):
        """The polynomial in the only variable of the MultiPoly p."""
        coeffs = [p.field.zero] * (p.total_degree() + 1)
        for (k,), c in p.terms.items():
            coeffs[k] = c
        return cls(p.field, coeffs)

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant_value(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def _coerce_other(self, other):
        if isinstance(other, UniPoly):
            return other
        return UniPoly.const(self.field, other)

    def __add__(self, other):
        other = self._coerce_other(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        other = self._coerce_other(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if self.is_constant():
            return UniPoly.const(self.field, self.constant_value() ** k)
        out = UniPoly.const(self.field, self.field.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if self.is_constant():
            try:
                return self.constant_value() == self.field.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return UniPoly.zero(self.field)
        return UniPoly(self.field, tuple(c * v for v in self.coeffs))

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == self.field.one:
            return self
        return self.scale(self.field.one / lc)

    def divrem(self, other):
        """Quotient and remainder; the divisor must be nonzero."""
        other = self._coerce_other(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        r = list(self.coeffs)
        d = other.degree()
        lc = other.coeffs[-1]
        if len(r) - 1 < d:
            return UniPoly.zero(field), self
        inv = None if lc == field.one else field.one / lc
        q = [field.zero] * (len(r) - d)
        for i in range(len(r) - 1, d - 1, -1):
            ci = r[i]
            if not ci:
                continue
            f = ci if inv is None else ci * inv
            q[i - d] = f
            for j, cb in enumerate(other.coeffs):
                r[i - d + j] = r[i - d + j] - f * cb
        return UniPoly(field, q), UniPoly(field, r[:d])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def gcd(self, other):
        """Monic greatest common divisor."""
        a, b = self, self._coerce_other(other)
        while not b.is_zero():
            a, b = b, a.divrem(b)[1]
        return a.monic()

    def lcm(self, other):
        """Monic least common multiple."""
        other = self._coerce_other(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        if self.is_constant():
            return other.monic()
        if other.is_constant() or self == other:
            return self.monic()
        g = _known_gcd(self, other)
        if g is None:
            g = self.gcd(other)
        if g.is_constant():
            return (self * other).monic()
        return (self * other).divrem(g)[0].monic()

    def derivative(self):
        return UniPoly(self.field,
                       [k * c for k, c in enumerate(self.coeffs)][1:])

    def compose(self, inner):
        """self(inner(x)) by Horner."""
        inner = self._coerce_other(inner)
        field = self.field
        out = UniPoly.zero(field)
        for c in reversed(self.coeffs):
            out = out * inner + UniPoly.const(field, c)
        return out

    def evaluate(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_compose(self, a, b):
        """self(a*x + b) for field elements a, b."""
        return self.compose(UniPoly(self.field, (b, a)))

    def map_coefficients(self, fn, field):
        return UniPoly(field, tuple(fn(c) for c in self.coeffs))

    def __repr__(self):
        from .render import render_unipoly
        return f"UniPoly({render_unipoly(self, 'x')})"


def _known_gcd(f, g):
    """The monic gcd of f and the nonconstant g when no Euclid is
    needed, else None.

    A zero or constant f gives g or 1.  When either is linear, its root
    decides exactly whether it divides the other.  Otherwise a proof of
    coprimality modulo a prime (`coprime_mod_p`) gives 1.
    """
    field = f.field
    if f.is_constant():
        return g.monic() if f.is_zero() else UniPoly.const(field, field.one)
    if f.degree() == 1 or g.degree() == 1:
        line, other = (f, g) if f.degree() == 1 else (g, f)
        if other.evaluate(-line.coeffs[0] / line.coeffs[1]):
            return UniPoly.const(field, field.one)
        return line.monic()
    if coprime_mod_p(f, g):
        return UniPoly.const(field, field.one)
    return None


def coprime_mod_p(f, g):
    """True when a reduction of the coefficient field modulo a prime
    proves f and g coprime; False when it does not decide.

    The images under the field's `reduction` must have the degrees of f
    and g, and a gcd of degree 0 in GF(p)[t].
    """
    red = f.field.reduction()
    if red is None or f.is_zero() or g.is_zero():
        return False
    p, image = red
    fp = [image(c) for c in f.coeffs]
    gp = [image(c) for c in g.coeffs]
    if None in fp or None in gp or not fp[-1] or not gp[-1]:
        return False
    return len(modp.gcd(fp, gp, p)) == 1


def _exact_div(a, b):
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    return a / b


def bareiss_det(rows, zero, one):
    """Fraction-free determinant over an integral domain with exact division.

    Mutates a copy of rows; entries need -, *, equality with zero via
    truthiness, and either / (fields) or exact_div (polynomial rings).
    """
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            pivot = None
            for i in range(k + 1, n):
                if m[i][k]:
                    pivot = i
                    break
            if pivot is None:
                return zero
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * pkk - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
            m[i][k] = zero
        prev = pkk
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_resultant_lists(fc, gc, zero, one):
    """Resultant of two coefficient lists (ascending) over a domain."""
    while fc and not fc[-1]:
        fc = fc[:-1]
    while gc and not gc[-1]:
        gc = gc[:-1]
    if not fc or not gc:
        raise ValueError("resultant of the zero polynomial")
    m = len(fc) - 1
    n = len(gc) - 1
    if m == 0 and n == 0:
        return one
    size = m + n
    rows = []
    fdesc = list(reversed(fc))
    gdesc = list(reversed(gc))
    for i in range(n):
        rows.append([zero] * i + fdesc + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + gdesc + [zero] * (size - i - n - 1))
    return bareiss_det(rows, zero, one)


def resultant(f: UniPoly, g: UniPoly):
    """Sylvester resultant of two univariate polynomials over a field."""
    return sylvester_resultant_lists(list(f.coeffs), list(g.coeffs),
                                     f.field.zero, f.field.one)


def rational_roots(f: UniPoly):
    """All rational roots of a polynomial over the rationals, sorted.

    The roots other than 0 of the squarefree part of f, less its factor
    x, are those of the linear factors over ZZ of its integer form,
    which `modp.factor_zz` finds by Hensel lifting its linear factors
    modulo a prime, with their cofactor, past the degree-1 coefficient
    bound (Loos' p-adic method, R. Loos, SIAM J. Comput. 12, 1983).
    """
    if f.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    if f.degree() == 0:
        return []
    df = f.derivative()
    common = _known_gcd(df, f)
    if common is None:
        common = f.gcd(df)
    f = (f // common).monic()
    roots = [] if f[0] else [Fraction(0)]
    ints = clear_denominators(f.coeffs[len(roots):])[0]
    factors = modp.factor_zz(ints, [1]) if len(ints) > 2 else [ints]
    return sorted(roots + [Fraction(-g[0], g[1])
                           for g in factors if len(g) == 2])


class RationalFunction:
    """Reduced univariate fraction with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den=None):
        field = num.field
        if den is None:
            den = UniPoly.const(field, field.one)
        elif not isinstance(den, UniPoly):
            den = UniPoly.const(field, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree() > 0:
            g = _known_gcd(num, den)
            if g is None:
                g = num.gcd(den)
            if g.degree() > 0:
                num = num.divrem(g)[0]
                den = den.divrem(g)[0]
        lc = den.leading()
        if lc != field.one:
            inv = field.one / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    def is_polynomial(self):
        return self.den.degree() == 0

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, UniPoly):
            return self.is_polynomial() and self.num == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, UniPoly):
            return RationalFunction(other)
        return RationalFunction(UniPoly.const(self.field, other))

    def compose(self, inner: UniPoly):
        """Substitute a polynomial for the variable.

        Raises when the denominator collapses to zero (a substitution pole).
        """
        den = self.den.compose(inner)
        if den.is_zero():
            raise ZeroDivisionError("substitution pole")
        return RationalFunction(self.num.compose(inner), den)

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError("evaluation pole")
        return self.num.evaluate(x) / d

    def __repr__(self):
        from .render import render_rational
        return f"RationalFunction({render_rational(self, 'x')})"
