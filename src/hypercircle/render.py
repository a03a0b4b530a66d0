"""Canonical text rendering.

Multivariate terms print in graded-lex descending order, univariate
polynomials by falling degree, field elements by ascending generator
powers.  Multiplication and powers are always explicit so every rendered
string parses back through exprparse.
"""

from fractions import Fraction


def render_fraction(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _is_field_element(c):
    return hasattr(c, "field") and hasattr(c, "coeffs") and not hasattr(
        c, "terms")


def _rational_of(c):
    """Fraction value when the coefficient is rational, else None."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if _is_field_element(c) and c.is_rational():
        return Fraction(c.rational_value())
    return None


def render_field_element(x) -> str:
    """Ascending powers of the top generator, e.g. 3/2 + 2*a - 1/2*a^3."""
    q = _rational_of(x)
    if q is not None:
        return render_fraction(q)
    name = x.field.name
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        mon = "" if k == 0 else (name if k == 1 else f"{name}^{k}")
        parts.append(_signed_term(c, mon))
    return _join_terms(parts)


def _signed_term(c, mon):
    """(sign, body) for one rendered term."""
    q = _rational_of(c)
    if q is None:
        body = f"({render_field_element(c)})"
        if mon:
            body = f"{body}*{mon}"
        return 1, body
    sign = -1 if q < 0 else 1
    aq = abs(q)
    if not mon:
        return sign, render_fraction(aq)
    if aq == 1:
        return sign, mon
    return sign, f"{render_fraction(aq)}*{mon}"


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


def _monomial_str(e, names):
    pieces = []
    for i, k in enumerate(e):
        if not k:
            continue
        pieces.append(names[i] if k == 1 else f"{names[i]}^{k}")
    return "*".join(pieces)


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
        parts.append(_signed_term(c, _monomial_str(e, names)))
    return _join_terms(parts)


def render_unipoly(f, var="t") -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k in range(f.degree(), -1, -1):
        c = f[k]
        if not c:
            continue
        mon = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        parts.append(_signed_term(c, mon))
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
