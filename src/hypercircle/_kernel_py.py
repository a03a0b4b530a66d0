"""Pure-Python term arithmetic kernels, re-exported by kernel.

A polynomial is carried around as a dict mapping exponent tuples to nonzero
coefficient objects.  Coefficients only need +, *, unary - and truthiness
(false means zero), so Fraction and field elements both work.

Order kinds: 0 lex, 1 grevlex, 2 block (grevlex on the first `split`
exponents, then grevlex on the rest).
"""

ORDER_LEX = 0
ORDER_GREVLEX = 1
ORDER_BLOCK = 2


def _cmp_grevlex(e1, e2):
    d1 = sum(e1)
    d2 = sum(e2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    for i in range(len(e1) - 1, -1, -1):
        a = e1[i]
        b = e2[i]
        if a != b:
            # equal total degree: greater iff the last difference is negative
            return 1 if a < b else -1
    return 0


def cmp_exp(e1, e2, kind, split):
    """Three-way monomial comparison under the given order."""
    if kind == ORDER_LEX:
        if e1 == e2:
            return 0
        return 1 if e1 > e2 else -1
    if kind == ORDER_GREVLEX:
        return _cmp_grevlex(e1, e2)
    c = _cmp_grevlex(e1[:split], e2[:split])
    if c:
        return c
    return _cmp_grevlex(e1[split:], e2[split:])


def leading_exponent(terms, kind, split):
    """Largest exponent in the dict, or None when empty."""
    best = None
    for e in terms:
        if best is None or cmp_exp(e, best, kind, split) > 0:
            best = e
    return best


def exp_div(e1, e2):
    """e1 / e2 as an exponent tuple, or None when not divisible."""
    out = []
    for a, b in zip(e1, e2):
        if a < b:
            return None
        out.append(a - b)
    return tuple(out)


def exp_lcm(e1, e2):
    return tuple(a if a > b else b for a, b in zip(e1, e2))


def addmul_terms(acc, c, shift, src):
    """In place acc += c * X^shift * src, dropping cancelled terms."""
    for e, v in src.items():
        k = tuple(a + b for a, b in zip(e, shift))
        w = acc.get(k)
        if w is None:
            nv = c * v
            if nv:
                acc[k] = nv
        else:
            nv = w + c * v
            if nv:
                acc[k] = nv
            else:
                del acc[k]


def add_terms(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e)
        if w is None:
            out[e] = v
        else:
            nv = w + v
            if nv:
                out[e] = nv
            else:
                del out[e]
    return out


def sub_terms(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e)
        if w is None:
            out[e] = -v
        else:
            nv = w - v
            if nv:
                out[e] = nv
            else:
                del out[e]
    return out


def mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e, c in a.items():
        addmul_terms(out, c, e, b)
    return out


def scale_terms(a, c):
    """c * a for nonzero c; zero products from zero divisors are dropped."""
    out = {}
    for e, v in a.items():
        nv = c * v
        if nv:
            out[e] = nv
    return out


def neg_terms(a):
    return {e: -v for e, v in a.items()}
