"""Descent of a rational parametrization to the base field.

Substituting t = t0 + a*t1 + ... + a^(n-1)*t_{n-1} into a component f/g
over L(a) and expanding in powers of the generator splits it into n
coordinate functions F_i / delta over L.  The shared denominator delta is
the norm of the substituted g, so it is independent of the component.

The witness variety is the set of points t at which every component
takes a value in L.  Its ideal is computed by elimination: one variable
l_j per component stands for that value, and the layers of
f_j(T) - l_j * g(T), with T the substitution, generate an ideal whose
intersection with L[t0..t_{n-1}] is the witness ideal.  Because every
Parametrization is stored with gcd(f_1, ..., f_N, g) = 1, no conjugate
of g(T) vanishes on that ideal's variety, so delta is a unit modulo it
and the elimination equals the saturation of the layers a^1..a^(n-1) of
the F_j by delta, with no norm and no extra variable in the ideal.

Everything between the input and the returned MultiPolys works on the
layers of a polynomial, its coordinates along powers of the generator,
each a term dict over L whose keys are packed monomials (mpoly.Packing,
with no order fields), so the product of two monomials is the sum of
their ints.  A coefficient's layer entries are its coordinates over L,
read through the element's `coeffs`: Fractions over QQ, which an
element of QQ(a) stores as integer numerators over one denominator,
and elements of QQ(g) over QQ(g).  The packing bound is the largest total degree any product
below reaches, so no field ever carries into the next: max(n * deg g,
deg f + (n-1) * deg g) for the F_i, and max(n * deg g, deg f) for the
witness ideal, which forms no product with the cofactor.

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
from functools import lru_cache

from .fields import QQ
from .groebner import DEFAULT_PAIR_BUDGET, buchberger, eliminate
from .mpoly import GREVLEX, MultiPoly, Packing, add_multiple, addmul
from .numtheory import clear_denominators
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


def _degree_bound(n, deg_num, deg_den):
    """The packing bound of a descent of degree n.

    Every product formed has total degree at most n * deg_den (delta and
    the minors) or deg_num + (n-1) * deg_den (a numerator times the
    cofactor).
    """
    return max(n * deg_den, deg_num + (n - 1) * deg_den)


def _clear(dicts, base):
    """(L, the dicts times L) with L the lcm of every denominator over QQ.

    Over QQ the values come back as ints; over any other base L is 1 and
    the dicts come back unchanged.
    """
    if base is not QQ:
        return 1, dicts
    ints, L = clear_denominators([c for d in dicts for c in d.values()])
    it = iter(ints)
    return L, [dict(zip(d, it)) for d in dicts]


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
    top = layers.pop().items()
    layers.insert(0, {})
    if top:
        for i, m in enumerate(fold):
            if m:
                add_multiple(layers[i], m, 0, top)


def _substitute(f, tower, pk):
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
    acc = [{} for _ in range(n)]
    for ck in reversed(coeffs):
        prod = [{} for _ in range(n)]
        for unit in reversed(pk.units):
            _times_gen(prod, fold)
            for j, lay in enumerate(acc):
                if lay:
                    add_multiple(prod[j], one, unit, lay.items())
        acc = prod
        for j, c in ck.items():
            if c:
                # the constant term
                add_multiple(acc[j], c, 0, ((0, one),))
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
                        addmul(acc, rows[k][j], sub, pos & 1)
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
            addmul(det, rows[0][i], c)
    return det, column


def _descend(tower, pk, den, nums):
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
    arity = len(pk.units)
    unpack = lru_cache(maxsize=None)(pk.unpack)
    out = []
    for lay, L_p in nums:
        conv = [{} for _ in range(2 * n - 1)]
        for i, li in enumerate(lay):
            if li:
                for j, cj in enumerate(cof):
                    if cj:
                        addmul(conv[i + j], li, cj)
        res = conv[:n]
        if L_t != 1:
            res = [{e: c * L_t for e, c in r.items()} for r in res]
        for k in range(n, 2 * n - 1):
            if conv[k]:
                for i, t in table[k - n].items():
                    if t:
                        add_multiple(res[i], t, 0, conv[k].items())
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
    pk = Packing(den.arity, _degree_bound(n, num.total_degree(),
                                          den.total_degree()))

    def packed(p):
        layers = [{} for _ in range(n)]
        for k, c in pk.terms(p.terms).items():
            for j, cj in enumerate(tower.coerce(c).coeffs):
                if cj:
                    layers[j][k] = cj
        L, layers = _clear(layers, tower.base)
        return layers, L

    delta, (layers,) = _descend(tower, pk, packed(den), [packed(num)])
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
    pk = Packing(n, _degree_bound(n, max(f.degree() for f in phi.numerators),
                                  den.degree()))
    nums = [_substitute(f, tower, pk) for f in phi.numerators]
    return _descend(tower, pk, _substitute(den, tower, pk), nums)


def witness_ideal(phi, budget=DEFAULT_PAIR_BUDGET):
    """Reduced basis of the witness ideal, plus the descent denominator.

    The witness ideal is J intersected with L[t0..t_{n-1}], where J is
    generated, over the base L, by the layers of f_j(T) - l_j * g(T) in
    the variables (l_1..l_N, t0..t_{n-1}), one l_j per component: l_j is
    the value of component j, which must lie in L.  Since phi is stored
    with gcd(f_1, ..., f_N, g) = 1, at no point of V(J) does a conjugate
    of g(T) vanish, so delta, their product, is a unit modulo J.  Over
    L[t][1/delta], J is the ideal of the layers a^1..a^(n-1) of
    f_j * delta / g together with l_j - (their layer 0) / delta, so the
    elimination equals the saturation of those layers by delta.

    When g is constant, it is 1, and l_j occurs only in its layer-0
    equation l_j = layer 0 of f_j(T); eliminating l_j drops that
    equation and leaves the grevlex basis of the other layers.  The zero
    ideal (no constraints) comes back as an empty basis.
    """
    tower = phi.field
    n = tower.degree
    base = tower.base
    nums = phi.numerators
    count = len(nums)
    deg_den = phi.denominator.degree()
    # delta has degree n * deg g, a substituted layer its input's degree
    pk = Packing(n, max(n * deg_den, max(f.degree() for f in nums)))
    den, L_den = _substitute(phi.denominator, tower, pk)
    delta, _ = _descend(tower, pk, (den, L_den), [])
    unpack = lru_cache(maxsize=None)(pk.unpack)

    def lifted(layer, L, lam):
        """The true layer, from L times it, times the monomial lam."""
        if base is QQ:
            return {lam + unpack(e): Fraction(c, L) for e, c in layer.items()}
        return {lam + unpack(e): c for e, c in layer.items()}  # L is 1

    if not deg_den:
        gens = [MultiPoly(base, n, lifted(layer, L, ()), _clean=True)
                for layers, L in (_substitute(f, tower, pk) for f in nums)
                for layer in layers[1:] if layer]
        return buchberger(gens, GREVLEX, budget), delta
    minus = [{e: -c for e, c in layer.items()} for layer in den]
    free = (0,) * count
    gens = []
    for j, f in enumerate(nums):
        layers, L = _substitute(f, tower, pk)
        lam = free[:j] + (1,) + free[j + 1:]
        for layer, g_layer in zip(layers, minus):
            terms = lifted(layer, L, free)
            terms.update(lifted(g_layer, L_den, lam))
            if terms:
                gens.append(MultiPoly(base, count + n, terms, _clean=True))
    return eliminate(gens, count, budget), delta
