"""Canonical text rendering.

Multivariate terms print in graded-lex descending order, univariate
polynomials by falling degree, field elements by ascending generator
powers.  Multiplication and powers are always explicit so every rendered
string parses back through exprparse.

Coefficients are read, never computed with, and no Fraction is built:
a rational prints from its numerator and denominator, an element of a
height-one tower QQ(a) from its integer numerators `vec` over `den`,
each coordinate reduced by one gcd, and an element of QQ(g)(a) from its
coordinates in QQ(g).
"""

from math import gcd

from .fields import FieldElement, TowerElement


def _ratio(n, d):
    return str(n) if d == 1 else f"{n}/{d}"


def _power(name, k):
    return "" if k == 0 else (name if k == 1 else f"{name}^{k}")


def render_fraction(q) -> str:
    """An int or a Fraction as n or n/d."""
    return _ratio(q.numerator, q.denominator)


def _rational_of(c):
    """(numerator, denominator) in lowest terms, denominator positive,
    when the coefficient is rational, else None."""
    while isinstance(c, TowerElement):
        if any(c.vec[1:]):
            return None
        c = c.vec[0]
    if isinstance(c, FieldElement):
        # gcd(vec, den) = 1, so a rational vec[0] / den is reduced
        return None if any(c.vec[1:]) else (c.vec[0], c.den)
    return c.numerator, c.denominator


def render_field_element(x) -> str:
    """Ascending powers of the top generator, e.g. 3/2 + 2*a - 1/2*a^3."""
    q = _rational_of(x)
    if q is not None:
        return _ratio(*q)
    name = x.field.name
    parts = []
    if isinstance(x, TowerElement):
        for k, c in enumerate(x.vec):
            if c:
                parts.append(_signed_term(c, _power(name, k)))
        return _join_terms(parts)
    den = x.den
    for k, v in enumerate(x.vec):
        if v:
            g = gcd(v, den)
            parts.append(_signed_rational(v // g, den // g, _power(name, k)))
    return _join_terms(parts)


def _signed_term(c, mon):
    """(sign, body) for one rendered term."""
    q = _rational_of(c)
    if q is None:
        body = f"({render_field_element(c)})"
        if mon:
            body = f"{body}*{mon}"
        return 1, body
    return _signed_rational(q[0], q[1], mon)


def _signed_rational(n, d, mon):
    """(sign, body) for the term n/d * mon, d > 0 and n/d reduced."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    if not mon:
        return sign, _ratio(n, d)
    if n == 1 and d == 1:
        return sign, mon
    return sign, f"{_ratio(n, d)}*{mon}"


def _join_terms(parts):
    if not parts:
        return "0"
    out = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            out.append(f"-{body}" if sign < 0 else body)
        else:
            out.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(out)


def default_names(arity):
    return [f"t{i}" for i in range(arity)]


def render_mpoly(p, names=None) -> str:
    if p.is_zero():
        return "0"
    if names is None:
        names = default_names(p.arity)
    items = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                   reverse=True)
    parts = []
    for e, c in items:
        mon = "*".join([names[i] if k == 1 else f"{names[i]}^{k}"
                        for i, k in enumerate(e) if k])
        parts.append(_signed_term(c, mon))
    return _join_terms(parts)


def render_unipoly(f, var="t") -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k in range(f.degree(), -1, -1):
        c = f[k]
        if c:
            parts.append(_signed_term(c, _power(var, k)))
    return _join_terms(parts)


def render_rational(rf, var="t") -> str:
    num = render_unipoly(rf.num, var)
    if rf.den.degree() == 0 and rf.den.constant_value() == rf.field.one:
        return num
    den = render_unipoly(rf.den, var)
    return f"({num})/({den})"


def render_point(point) -> list:
    """Projective point as a list of coordinate strings."""
    return [render_field_element(c) for c in point.coords]
