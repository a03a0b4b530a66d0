"""Descent of a rational parametrization to the base field.

Substituting t = t0 + a*t1 + ... + a^(n-1)*t_{n-1} into a component f/g
over L(a) and expanding in powers of the generator splits it into n
coordinate functions F_i / delta over L.  The shared denominator delta is
the norm of the substituted g, so it is independent of the component.
The witness ideal collects the coordinate numerators for the powers
a^1..a^(n-1) and saturates away the spurious locus delta = 0.

The norm and the cofactor delta / g come from the n x n matrix M of
multiplication by g over L, whose column j holds the layers of a^j * g:
delta = det M, which for the monic minimal polynomial equals
Res_x(minpoly, g written in x), and the cofactor's coordinates are the
first column of adj M.  Both come from one memoized Laplace expansion of
the minors of rows 1..n-1, with no division.  Each F_i is then a
convolution of layers over L folded once through the power table of the
generator, so no product is taken over L(a).  Over QQ every row of M and
every numerator is first cleared of denominators, the products run on
integers, and the coefficients become Fractions again at the end.
"""

from fractions import Fraction
from math import gcd

from . import kernel
from .fields import QQ
from .groebner import DEFAULT_PAIR_BUDGET, saturate
from .mpoly import MultiPoly
from .upoly import RationalFunction, UniPoly


class Extension:
    """A base field together with a simple extension of degree n >= 2.

    Descent introduces one fresh variable per power of the generator, so
    the descent ring always has arity n.
    """

    __slots__ = ("tower", "base", "n")

    def __init__(self, tower):
        self.tower = tower
        self.base = tower.base
        self.n = tower.degree

    def substitution(self):
        """t0 + a*t1 + ... + a^(n-1)*t_{n-1} in the descent ring."""
        gen = self.tower.gen()
        acc = MultiPoly.zero(self.tower, self.n)
        power = self.tower.one
        for i in range(self.n):
            acc = acc + MultiPoly.var(self.tower, self.n, i).scale(power)
            power = power * gen
        return acc

    def __repr__(self):
        return f"Extension(n={self.n}, top={self.tower!r})"


class Parametrization:
    """Rational curve components sharing one denominator.

    Stored with gcd(f_1, ..., f_N, g) = 1 and g monic, so the coefficient
    set is canonical.
    """

    __slots__ = ("field", "numerators", "denominator")

    def __init__(self, field, numerators, denominator):
        if denominator.is_zero():
            raise ZeroDivisionError("zero common denominator")
        if not numerators:
            raise ValueError("parametrization needs at least one component")
        common = denominator
        for f in numerators:
            common = common.gcd(f)
        if common.degree() > 0:
            numerators = [f // common for f in numerators]
            denominator = denominator // common
        lc = denominator.leading()
        if lc != field.one:
            inv = field.one / lc
            numerators = [f.scale(inv) for f in numerators]
            denominator = denominator.scale(inv)
        self.field = field
        self.numerators = tuple(numerators)
        self.denominator = denominator

    @classmethod
    def from_components(cls, components):
        """Build from reduced rational functions, merging denominators."""
        if not components:
            raise ValueError("parametrization needs at least one component")
        field = components[0].field
        den = UniPoly.const(field, field.one)
        for rf in components:
            den = den.lcm(rf.den)
        nums = [rf.num * (den // rf.den) for rf in components]
        return cls(field, nums, den)

    def components(self):
        return [RationalFunction(f, self.denominator)
                for f in self.numerators]

    def coefficients(self):
        """Every stored numerator and denominator coefficient."""
        out = []
        for f in self.numerators:
            out.extend(f.coeffs)
        out.extend(self.denominator.coeffs)
        return out

    def map_coefficients(self, fn, field):
        nums = [f.map_coefficients(fn, field) for f in self.numerators]
        return Parametrization(field, nums,
                               self.denominator.map_coefficients(fn, field))

    def compose_affine(self, a, b):
        """The parametrization at a*t + b; a must be a unit."""
        a = self.field.coerce(a)
        if not a:
            raise ValueError("affine substitution needs a nonzero slope")
        nums = [f.shift_compose(a, b) for f in self.numerators]
        return Parametrization(self.field, nums,
                               self.denominator.shift_compose(a, b))

    def __eq__(self, other):
        if not isinstance(other, Parametrization):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(tuple(self.components()))

    def __repr__(self):
        comps = ", ".join(repr(c) for c in self.components())
        return f"Parametrization([{comps}])"


def lift_to_tower(p, tower):
    """Reinterpret a base-field polynomial over the extension."""
    return p.map_coefficients(tower.coerce, tower)


def _layer_terms(p, ext):
    """The term dicts of p's coordinates along powers of the generator."""
    layers = [dict() for _ in range(ext.n)]
    for e, c in p.terms.items():
        cc = ext.tower.coerce(c)
        for k, ck in enumerate(cc.coeffs):
            if ck:
                layers[k][e] = ck
    return layers


def alpha_layers(p, ext):
    """The n base-field coordinates of p along powers of the generator."""
    return [MultiPoly(ext.base, p.arity, lay, _clean=True)
            for lay in _layer_terms(p, ext)]


def _substitute_unipoly(f, s, tower):
    """f evaluated at the polynomial s, by Horner."""
    arity = s.arity
    acc = MultiPoly.const(tower, arity, f[f.degree()])
    for k in range(f.degree() - 1, -1, -1):
        acc = acc * s + MultiPoly.const(tower, arity, f[k])
    return acc


def _clear(dicts, base):
    """(L, the dicts times L) with L the lcm of every denominator over QQ.

    Over any other base L is 1 and the dicts come back unchanged.
    """
    if base is not QQ:
        return 1, dicts
    L = 1
    for d in dicts:
        for c in d.values():
            L = L // gcd(L, c.denominator) * c.denominator
    return L, [{e: c.numerator * (L // c.denominator)
                for e, c in d.items()} for d in dicts]


def _addmul(acc, a, b, negate=False):
    """In place acc += a * b, or acc -= a * b when negate is set."""
    if len(a) > len(b):
        a, b = b, a
    for e, c in a.items():
        kernel.addmul_terms(acc, -c if negate else c, e, b)


def _multiplication_rows(den, ext):
    """Rows of M, column j the layers of a^j * den, and each row's scale.

    Over QQ row r comes back cleared of denominators, as integer terms
    times its own integer L_r; over any other base every L_r is 1.
    """
    n = ext.n
    mp = ext.tower.minpoly.coeffs
    one = (0,) * den.arity
    col = _layer_terms(den, ext)
    cols = [col]
    for _ in range(n - 1):
        # times the generator: shift up and fold a^n = -sum m_i a^i
        top = col[-1]
        col = [{}] + col[:-1]
        for i, m in enumerate(mp[:-1]):
            if m and top:
                col[i] = dict(col[i])
                kernel.addmul_terms(col[i], -m, one, top)
        cols.append(col)
    scales = []
    rows = []
    for r in range(n):
        L, row = _clear([c[r] for c in cols], ext.base)
        scales.append(L)
        rows.append(row)
    return rows, scales


def _adjugate_column(rows):
    """(det M, first column of adj M) by Laplace expansion.

    Entry i of the column is (-1)^i times the minor of rows 1..n-1 that
    omits column i.  Minors are memoized by their column set, so all of
    them cost about n * 2^(n-1) products and no division; the
    determinant is the expansion along row 0.
    """
    n = len(rows)
    minors = {}

    def minor(mask, k):
        # rows k..n-1 on the columns whose bits are set in mask
        got = minors.get(mask)
        if got is not None:
            return got
        if k == n - 1:
            return rows[k][mask.bit_length() - 1]
        acc = {}
        pos = 0
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                if rows[k][j]:
                    sub = minor(mask ^ bit, k + 1)
                    if sub:
                        _addmul(acc, rows[k][j], sub, pos & 1)
                pos += 1
        minors[mask] = acc
        return acc

    full = (1 << n) - 1
    det = {}
    column = []
    for i in range(n):
        c = minor(full ^ (1 << i), 1)
        if i & 1:
            c = kernel.neg_terms(c)
        column.append(c)
        if rows[0][i]:
            _addmul(det, rows[0][i], c)
    return det, column


def _descend(den, nums, ext):
    """(delta, [layers of num * delta / den for num in nums]).

    delta and the cofactor delta / den come from the multiplication
    matrix of den; each product with the cofactor is a convolution of
    layers over the base, folded once through the power table.
    """
    base = ext.base
    n = ext.n
    arity = den.arity
    one = (0,) * arity
    rows, scales = _multiplication_rows(den, ext)
    delta, cof = _adjugate_column(rows)
    if not delta:
        raise ArithmeticError("vanishing norm of a nonzero denominator")
    # the cleared rows scale delta by prod(L_r) and the cofactor by
    # rest = prod(L_r) / L_0, since row 0 is not in its minors
    rest = 1
    for L in scales[1:]:
        rest *= L
    L_t, table = _clear([dict(enumerate(row)) for row in
                         ext.tower._power_table()], base)
    out = []
    for num in nums:
        L_p, lay = _clear(_layer_terms(num, ext), base)
        conv = [{} for _ in range(2 * n - 1)]
        for i, li in enumerate(lay):
            if li:
                for j, cj in enumerate(cof):
                    if cj:
                        _addmul(conv[i + j], li, cj)
        res = conv[:n]
        if L_t != 1:
            res = [kernel.scale_terms(r, L_t) for r in res]
        for k in range(n, 2 * n - 1):
            if conv[k]:
                for i, t in table[k - n].items():
                    if t:
                        kernel.addmul_terms(res[i], t, one, conv[k])
        out.append(_unscale(res, base, arity, L_t * L_p * rest))
    return _unscale([delta], base, arity, scales[0] * rest)[0], out


def _unscale(dicts, base, arity, scale):
    """Polynomials over the base from cleared dicts, divided by scale."""
    if base is QQ:
        dicts = [{e: Fraction(c, scale) for e, c in d.items()}
                 for d in dicts]
    return [MultiPoly(base, arity, d, _clean=True) for d in dicts]


def alpha_decompose(num, den, ext):
    """Coordinates of num/den along generator powers, over the base.

    Returns (components, delta) with sum_i a^i * components[i] equal to
    num * (delta / den) identically, so num/den = sum_i a^i comp_i/delta.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    delta, (layers,) = _descend(den, [num], ext)
    return layers, delta


class DescentResult:
    """Coordinate numerators of every component over one denominator.

    numerators[j][i] is the coefficient of a^i in component j; delta is
    the shared denominator, a base-field polynomial.
    """

    __slots__ = ("extension", "numerators", "delta")

    def __init__(self, extension, numerators, delta):
        self.extension = extension
        self.numerators = numerators
        self.delta = delta


def weil_substitute(phi, ext):
    """Descend every component of phi along the extension's generator."""
    if phi.field is not ext.tower:
        raise ValueError("parametrization field does not match extension")
    s = ext.substitution()
    sub_den = _substitute_unipoly(phi.denominator, s, ext.tower)
    sub_nums = [_substitute_unipoly(f, s, ext.tower)
                for f in phi.numerators]
    delta, numerators = _descend(sub_den, sub_nums, ext)
    return DescentResult(ext, numerators, delta)


def witness_ideal(phi, ext, budget=DEFAULT_PAIR_BUDGET):
    """Reduced basis of the witness ideal, plus the descent denominator.

    The ideal of the closure of V(F_ij : i >= 1) minus V(delta); the
    zero ideal (no constraints) comes back as an empty basis.
    """
    res = weil_substitute(phi, ext)
    gens = []
    for layers in res.numerators:
        for i in range(1, ext.n):
            if not layers[i].is_zero():
                gens.append(layers[i])
    return saturate(gens, res.delta, budget), res.delta
