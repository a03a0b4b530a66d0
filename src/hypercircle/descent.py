"""Descent of a rational parametrization to the base field.

Substituting t = t0 + a*t1 + ... + a^(n-1)*t_{n-1} into a component f/g
over L(a) and expanding in powers of the generator splits it into n
coordinate functions F_i / delta over L.  The shared denominator delta is
the norm of the substituted g, so it is independent of the component.
The witness ideal collects the coordinate numerators for the powers
a^1..a^(n-1) and saturates away the spurious locus delta = 0.

Everything between the input and the returned MultiPolys works on the
layers of a polynomial, its coordinates along powers of the generator,
each a term dict over L whose keys are packed monomials: the exponent
of t_i sits in the i-th field of w bits of one int, so the product of
two monomials is the sum of their ints.  w is the bit length of
max(n * deg g, deg f + (n-1) * deg g), the largest total degree any
product below reaches, so no field ever carries into the next.

The substituted polynomials are built on layers directly: Horner in t,
where each product by t0 + a*t1 + ... is itself Horner in a, shifting by
the packed unit of t_i and folding a^n by the minimal polynomial.

The norm and the cofactor delta / g come from the n x n matrix M of
multiplication by g over L, whose column j holds the layers of a^j * g:
delta = det M, which for the monic minimal polynomial equals
Res_x(minpoly, g written in x), and the cofactor's coordinates are the
first column of adj M.  Both come from one memoized Laplace expansion of
the minors of rows 1..n-1, with no division.  Each F_i is then a
convolution of layers over L folded once through the power table of the
generator, so no product is taken over L(a).  Over QQ every layer and
every row of M is first cleared of denominators, the products run on
integers, and the coefficients become Fractions again at the end.

The extension L(a) is always the FieldTower the data lives over: the
field of a Parametrization, or the coefficient field of a polynomial.
Nothing else describes it, so a descent over another field, such as
QQ(g)(a) over a subfield, needs only data over that tower.
"""

from fractions import Fraction
from math import gcd

from .fields import QQ
from .groebner import DEFAULT_PAIR_BUDGET, saturate
from .mpoly import MultiPoly
from .upoly import RationalFunction, UniPoly


class Parametrization:
    """Rational curve components sharing one denominator.

    Stored with gcd(f_1, ..., f_N, g) = 1 and g monic, so the coefficient
    set is canonical.  The constructor only makes g monic: every caller
    passes coprime polynomials.  from_components merges reduced
    components over the lcm of their denominators, and an affine change
    with a unit slope or a map through a field embedding keeps the gcd
    at 1.
    """

    __slots__ = ("field", "numerators", "denominator")

    def __init__(self, field, numerators, denominator):
        if denominator.is_zero():
            raise ZeroDivisionError("zero common denominator")
        if not numerators:
            raise ValueError("parametrization needs at least one component")
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
        nums = [rf.num if rf.den == den else rf.num * (den // rf.den)
                for rf in components]
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


def substitution(tower):
    """t0 + a*t1 + ... + a^(n-1)*t_{n-1} in the descent ring of arity n."""
    n = tower.degree
    gen = tower.gen()
    acc = MultiPoly.zero(tower, n)
    power = tower.one
    for i in range(n):
        acc = acc + MultiPoly.var(tower, n, i).scale(power)
        power = power * gen
    return acc


def alpha_layers(p):
    """The n base-field coordinates of p along powers of the generator
    of its coefficient field."""
    tower = p.field
    layers = [{} for _ in range(tower.degree)]
    for e, c in p.terms.items():
        for k, ck in enumerate(tower.coerce(c).coeffs):
            if ck:
                layers[k][e] = ck
    return [MultiPoly(tower.base, p.arity, lay, _clean=True)
            for lay in layers]


def _width(n, deg_num, deg_den):
    """Bits per packed exponent field for a descent of degree n.

    Every product formed has total degree at most n * deg_den (delta and
    the minors) or deg_num + (n-1) * deg_den (a numerator times the
    cofactor), and no exponent exceeds its total degree.
    """
    return max(n * deg_den, deg_num + (n - 1) * deg_den, 1).bit_length()


def _unpacker(arity, width):
    """The exponent tuple of a packed monomial, memoized."""
    mask = (1 << width) - 1
    shifts = range(0, width * arity, width)
    seen = {}

    def unpack(k):
        e = seen.get(k)
        if e is None:
            e = seen[k] = tuple((k >> s) & mask for s in shifts)
        return e
    return unpack


def _clear(dicts, base):
    """(L, the dicts times L) with L the lcm of every denominator over QQ.

    Over QQ the values come back as ints; over any other base L is 1 and
    the dicts come back unchanged.
    """
    if base is not QQ:
        return 1, dicts
    L = 1
    for d in dicts:
        for c in d.values():
            q = c.denominator
            if L % q:
                L = L // gcd(L, q) * q
    return L, [{e: c.numerator * (L // c.denominator)
                for e, c in d.items()} for d in dicts]


def _addmul(acc, a, b, negate=False):
    """In place acc += a * b, or acc -= a * b when negate is set."""
    if len(a) > len(b):
        a, b = b, a
    b = b.items()
    for e, c in a.items():
        if negate:
            c = -c
        for f, d in b:
            k = e + f
            v = acc.get(k)
            if v is None:
                acc[k] = c * d
            else:
                v += c * d
                if v:
                    acc[k] = v
                else:
                    del acc[k]


def _fold(tower):
    """The coordinates of a^n, as ints over QQ where they are integers."""
    row = tower._power_table()[0]
    if tower.base is QQ:
        row = [c.numerator if c.denominator == 1 else c for c in row]
    return row


def _times_gen(layers, fold):
    """In place, the layers of a * p from the layers of p.

    The list shifts up one power and its old top layer is folded back
    through fold, the coordinates of a^n.
    """
    top = layers.pop()
    layers.insert(0, {})
    if top:
        for i, m in enumerate(fold):
            if m:
                _addmul(layers[i], {0: m}, top)


def _substitute(f, tower, width):
    """(L times the layers of f(t0 + a*t1 + ...), L), packed.

    Horner in t, where each product by the substitution is Horner in a:
    s * p = t0*p + a*(t1*p + a*(... + a*t_{n-1}*p)).  Over QQ the layers
    are ints and L clears every denominator; elsewhere L is 1.
    """
    n = tower.degree
    base = tower.base
    L, coeffs = _clear([dict(enumerate(c.coeffs)) for c in f.coeffs], base)
    fold = _fold(tower)
    one = 1 if base is QQ else base.one
    units = [{1 << (width * i): one} for i in range(n)]
    acc = [{} for _ in range(n)]
    for ck in reversed(coeffs):
        prod = [{} for _ in range(n)]
        for unit in reversed(units):
            _times_gen(prod, fold)
            for j, lay in enumerate(acc):
                _addmul(prod[j], unit, lay)
        acc = prod
        for j, c in ck.items():
            if c:
                # the constant term
                _addmul(acc[j], {0: c}, {0: one})
    # a minimal polynomial with denominators leaves Fractions behind
    L2, acc = _clear(acc, base)
    return acc, L * L2


def _multiplication_rows(tower, den, scale):
    """Rows of M, column j the layers of a^j * den, and each row's scale.

    den holds scale times the layers of the denominator.  Over QQ row r
    comes back as integers, its true entries times its scale; over any
    other base every scale is 1.
    """
    n = tower.degree
    fold = _fold(tower)
    col = den
    cols = [col]
    for _ in range(n - 1):
        col = [dict(lay) for lay in col]
        _times_gen(col, fold)
        cols.append(col)
    scales = []
    rows = []
    for r in range(n):
        L, row = _clear([c[r] for c in cols], tower.base)
        scales.append(L * scale)
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
            c = {e: -v for e, v in c.items()}
        column.append(c)
        if rows[0][i]:
            _addmul(det, rows[0][i], c)
    return det, column


def _descend(tower, arity, width, den, nums):
    """(delta, [layers of num * delta / den for num in nums]).

    den and every num are (layers, L): packed layers that are L times
    the true ones, ints over QQ.  delta and the cofactor delta / den
    come from the multiplication matrix of den; each product with the
    cofactor is a convolution of layers over the base, folded once
    through the power table.
    """
    base = tower.base
    n = tower.degree
    rows, scales = _multiplication_rows(tower, *den)
    delta, cof = _adjugate_column(rows)
    if not delta:
        raise ArithmeticError("vanishing norm of a nonzero denominator")
    # the cleared rows scale delta by prod(L_r) and the cofactor by
    # rest = prod(L_r) / L_0, since row 0 is not in its minors
    rest = 1
    for L in scales[1:]:
        rest *= L
    L_t, table = _clear([dict(enumerate(row)) for row in
                         tower._power_table()], base)
    unpack = _unpacker(arity, width)
    out = []
    for lay, L_p in nums:
        conv = [{} for _ in range(2 * n - 1)]
        for i, li in enumerate(lay):
            if li:
                for j, cj in enumerate(cof):
                    if cj:
                        _addmul(conv[i + j], li, cj)
        res = conv[:n]
        if L_t != 1:
            res = [{e: c * L_t for e, c in r.items()} for r in res]
        for k in range(n, 2 * n - 1):
            if conv[k]:
                for i, t in table[k - n].items():
                    if t:
                        _addmul(res[i], {0: t}, conv[k])
        out.append(_unscale(res, base, arity, unpack, L_t * L_p * rest))
    delta = _unscale([delta], base, arity, unpack, scales[0] * rest)[0]
    return delta, out


def _unscale(dicts, base, arity, unpack, scale):
    """Polynomials over the base from packed dicts, divided by scale."""
    if base is QQ:
        dicts = [{unpack(e): Fraction(c, scale) for e, c in d.items()}
                 for d in dicts]
    else:
        dicts = [{unpack(e): c for e, c in d.items()} for d in dicts]
    return [MultiPoly(base, arity, d, _clean=True) for d in dicts]


def alpha_decompose(num, den):
    """Coordinates of num/den along generator powers, over the base.

    den carries the extension.  Returns (components, delta) with
    sum_i a^i * components[i] equal to num * (delta / den) identically,
    so num/den = sum_i a^i comp_i/delta.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    tower = den.field
    n = tower.degree
    width = _width(n, num.total_degree(), den.total_degree())
    shifts = range(0, width * den.arity, width)

    def packed(p):
        layers = [{} for _ in range(n)]
        for e, c in p.terms.items():
            k = sum(v << s for v, s in zip(e, shifts))
            for j, cj in enumerate(tower.coerce(c).coeffs):
                if cj:
                    layers[j][k] = cj
        L, layers = _clear(layers, tower.base)
        return layers, L

    delta, (layers,) = _descend(tower, den.arity, width, packed(den),
                                [packed(num)])
    return layers, delta


def weil_substitute(phi):
    """Descend every component of phi along the generator of phi.field.

    Returns (delta, numerators): numerators[j][i] is the coefficient of
    a^i in component j, and delta, a base-field polynomial, is the
    shared denominator.
    """
    tower = phi.field
    n = tower.degree
    den = phi.denominator
    width = _width(n, max(f.degree() for f in phi.numerators), den.degree())
    nums = [_substitute(f, tower, width) for f in phi.numerators]
    return _descend(tower, n, width, _substitute(den, tower, width), nums)


def witness_ideal(phi, budget=DEFAULT_PAIR_BUDGET):
    """Reduced basis of the witness ideal, plus the descent denominator.

    The ideal of the closure of V(F_ij : i >= 1) minus V(delta); the
    zero ideal (no constraints) comes back as an empty basis.
    """
    delta, numerators = weil_substitute(phi)
    gens = []
    for layers in numerators:
        for layer in layers[1:]:
            if not layer.is_zero():
                gens.append(layer)
    return saturate(gens, delta, budget), delta
