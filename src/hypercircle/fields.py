"""Number field towers of height at most two and their elements.

A tower is QQ, QQ(a) or QQ(g)(a): each level adjoins a root of a monic
irreducible polynomial over the level below.  Elements are coefficient
vectors over the base level, reduced against the defining polynomial.
An element of a height-one tower QQ(a) is stored as one vector of
integer numerators over one positive denominator, with no common
factor, as in the nf_elem layout of W. Hart's ANTIC (2015): a product
is an integer convolution folded through an integer table of the powers
a^d .. a^(2d-2) over their common denominator, and an inverse one
fraction-free linear solve.  An element of QQ(g)(a) keeps a tuple of
QQ(g) elements.  Either way `coeffs` reads the coordinates over the
base: Fractions at height one, QQ(g) elements at height two.
Irreducibility, roots inside a field, primitive elements and subfield
membership are all decided exactly.  Over QQ, f with its denominators
cleared goes to the factor search over ZZ of `modp` (degree patterns
modulo a few primes, one Hensel lift, Zassenhaus recombination), and
only the factors it returns become polynomials over QQ again; the
witness of reducibility is chosen here.  Over an extension L(a), f is
factored by Trager's norm: a shift f(x - s*a) whose norm to L is
squarefree, that norm factored over L (over QQ as above, over QQ(g)
by the same norm one level down), and one gcd per factor; the roots
in the field are the linear factors.  Every linear problem over QQ
here (inverses at both heights, minimal polynomials over QQ, primitive
elements and membership) is one fraction-free Gauss-Jordan elimination
on an integer matrix, `_row_reduce`.  A FieldTower is the only model of
an extension: every routine that works over one reads it from the data
it is given.

QQ and every height-one tower also offer a reduction modulo a prime
(`reduction`), a ring map into GF(p) on the elements whose denominators
p does not divide; `upoly` proves coprimality with it.

A subfield QQ(g) of degree r inside QQ(a) of degree n is a
SubfieldEmbedding.  It inverts its QQ-basis g^j * a^k (j < r, k < n/r)
once, by one `_row_reduce` of the basis beside the identity, and keeps
that inverse as integer rows over one denominator; membership and
lifting into QQ(g), the minimal polynomial of a over QQ(g) and
coordinates in the tower QQ(g)(a) are all read from it.
"""

from fractions import Fraction
from math import gcd

from . import modp
from .mpoly import MultiPoly
from .numtheory import clear_denominators
from .upoly import UniPoly, rational_roots


class RationalField:
    """The rationals; coefficients are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    degree = 1
    height = 0

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, FieldElement):
            raise TypeError("field element does not embed into QQ")
        return Fraction(v)

    def qq_dim(self):
        return 1

    def reduction(self):
        """(p, image): a prime and the residue map QQ -> GF(p); image(c)
        is None when p divides the denominator of c."""
        return _QQ_REDUCTION

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _residue(c, p):
    """The rational c modulo p, or None when p divides its denominator."""
    d = c.denominator % p
    if not d:
        return None
    return c.numerator * pow(d, -1, p) % p


_QQ_REDUCTION = (modp.PRIMES[0], lambda c, p=modp.PRIMES[0]: _residue(c, p))

# Primes of modp.PRIMES a height-one tower tries for a root of its
# minimal polynomial, which must stay squarefree modulo the prime.  A
# root exists modulo a positive density of primes, at least 1/n for a
# field of degree n; a tower with none gets no reduction, and its gcds
# are taken exactly.
_ROOT_TRIES = 24


def _tower_reduction(tower):
    """(p, image) with image the map a -> r into GF(p), r the least root
    of the minimal polynomial modulo p, at the first tried prime that
    keeps the minimal polynomial squarefree and gives it a root; None
    when no tried prime does.  The primes and the linear factors come
    from the factor search's own path (`modp._reductions` up to degree
    1), and `modp.equal_degree` splits them.

    On elements whose denominator p does not divide, image is a ring
    map, since the minimal polynomial vanishes at r."""
    n = tower.degree
    ints = clear_denominators(tower.minpoly.coeffs)[0]
    for parts, p, _ in modp._reductions(ints, modp.PRIMES[:_ROOT_TRIES], 1):
        d, part = parts[0]
        lines = modp.equal_degree(part, 1, p) if d == 1 else None
        if lines is None:
            continue
        r = min(-g[0] % p for g in lines)
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * r % p)

        def image(x):
            d = x.den % p
            if not d:
                return None
            acc = 0
            for c, rk in zip(x.vec, powers):
                if c:
                    acc += c * rk
            return acc * pow(d, -1, p) % p
        return p, image
    return None


class ReduciblePolynomialError(ValueError):
    """Raised when a would-be minimal polynomial factors; carries a witness."""

    def __init__(self, factor):
        from .render import render_unipoly
        self.factor = factor
        super().__init__("reducible minimal polynomial, witness factor "
                         + render_unipoly(factor, "x"))


class FieldTower:
    """An extension field base(name) defined by a monic minimal polynomial."""

    __slots__ = ("base", "name", "minpoly", "degree", "height", "zero",
                 "one", "_gen_powers", "_int_powers", "_reduction")

    def __init__(self, base, name, minpoly: UniPoly):
        if not minpoly.is_monic():
            raise ValueError("defining polynomial must be monic")
        if minpoly.degree() < 2:
            raise ValueError("extension degree must be at least 2")
        self.base = base
        self.name = name
        self.minpoly = minpoly
        self.degree = minpoly.degree()
        self.height = base.height + 1
        self.zero = self.coerce(0)
        self.one = self.coerce(1)
        self._gen_powers = None
        self._int_powers = None
        self._reduction = None

    def _unit(self, k, c, den=1):
        """c * gen^k, for c a base element; at height one c is an int
        and den a positive int coprime to it, giving c/den * gen^k."""
        d = self.degree
        if self.height == 1:
            vec = [0] * d
            vec[k] = c
            return FieldElement(self, tuple(vec), den)
        vec = [self.base.zero] * d
        vec[k] = c
        return TowerElement(self, tuple(vec))

    def gen(self):
        return self._unit(1, 1 if self.height == 1 else self.base.one)

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field is self:
                return v
            if v.field is self.base:
                return self._unit(0, v)
            raise TypeError("element of an unrelated field")
        if self.height == 1:
            c = v if isinstance(v, (int, Fraction)) else QQ.coerce(v)
            return self._unit(0, c.numerator, c.denominator)
        return self._unit(0, self.base.coerce(v))

    def element(self, coeffs):
        base = self.base
        cs = [base.coerce(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("coefficient vector too long")
        cs += [base.zero] * (self.degree - len(cs))
        if self.height == 1:
            nums, den = clear_denominators(cs)
            return FieldElement(self, tuple(nums), den)
        return TowerElement(self, tuple(cs))

    def _power_table(self):
        # gen^d .. gen^(2d-2) reduced, as base coordinates
        if self._gen_powers is None:
            d = self.degree
            base = self.base
            mp = self.minpoly.coeffs
            rows = []
            cur = [-c for c in mp[:-1]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                nxt = [base.zero] + cur[:-1]
                top = cur[-1]
                if top:
                    for i in range(d):
                        nxt[i] = nxt[i] - top * mp[i]
                cur = nxt
                rows.append(tuple(cur))
            self._gen_powers = rows
        return self._gen_powers

    def _integer_power_table(self):
        """(rows, T) for a height-one tower: row k holds T times the
        coordinates of gen^(d+k), all integers, T their least common
        denominator (1 when the minimal polynomial is integral)."""
        if self._int_powers is None:
            d = self.degree
            table = self._power_table()
            nums, T = clear_denominators([c for row in table for c in row])
            self._int_powers = ([tuple(nums[k * d:(k + 1) * d])
                                 for k in range(len(table))], T)
        return self._int_powers

    def reduction(self):
        """(p, image) for a height-one tower: image maps an element into
        GF(p) through a -> r, r a simple root of the minimal polynomial
        modulo the prime p, and is None when p divides the element's
        denominator.  Found once, lazily.  None for a height-two tower
        or when no tried prime has such a root."""
        if self._reduction is None:
            self._reduction = (self.height == 1 and _tower_reduction(self)
                               or False)
        return self._reduction or None

    def qq_dim(self):
        return self.degree * self.base.qq_dim()

    def flatten(self, x):
        """Coordinates over QQ; index k*r+j is gen^k times base-basis j."""
        x = self.coerce(x)
        if self.height == 1:
            return list(x.coeffs)
        out = []
        for c in x.vec:
            out.extend(self.base.flatten(c))
        return out

    def unflatten(self, vec):
        if self.height == 1:
            return self.element(vec)
        r = self.base.qq_dim()
        return TowerElement(self, tuple(
            self.base.unflatten(vec[k * r:(k + 1) * r])
            for k in range(self.degree)))

    def __repr__(self):
        return f"{self.base!r}({self.name})"


def _reduced(field, vec, den):
    """FieldElement vec / den in canonical form; den > 0."""
    if den != 1:
        g = gcd(den, *vec)
        if g != 1:
            return FieldElement(field, tuple(v // g for v in vec), den // g)
    return FieldElement(field, vec, den)


def _row_reduce(rows):
    """(rows, pivots, D) for an integer matrix: fraction-free
    Gauss-Jordan elimination (E. Bareiss, Math. Comp. 22, 1968; Nakos,
    Turner and Williams, SIGSAM Bull. 31, 1997).  Pivot k in column c
    with value p_k turns every other row i into
    (p_k * row_i - a_ic * row_k) // p_(k-1), which is exact.  The nonzero
    rows come back equal to D times the reduced row echelon form, D the
    last pivot (1 when there is none), and pivots lists their pivot
    columns."""
    m = [list(row) for row in rows]
    pivots = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == len(m):
            break
        sel = next((i for i in range(k, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[k], m[sel] = m[sel], m[k]
        top = m[k]
        pk = top[col]
        for i, row in enumerate(m):
            if i != k:
                f = row[col]
                m[i] = [(pk * x - f * y) // prev for x, y in zip(row, top)]
        prev = pk
        pivots.append(col)
    return m[:len(pivots)], pivots, prev


class FieldElement:
    """An element sum_i vec[i] * gen^i / den of a height-one tower QQ(a).

    vec holds integers and den is a positive integer with
    gcd(vec, den) = 1, so equal elements have equal (vec, den).
    """

    __slots__ = ("field", "vec", "den")

    def __init__(self, field, vec, den):
        self.field = field
        self.vec = vec
        self.den = den

    @property
    def coeffs(self):
        """The coordinates over the base: Fractions at height one."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.vec)

    def __bool__(self):
        return any(self.vec)

    def _other(self, v):
        if isinstance(v, FieldElement) and v.field is self.field:
            return v
        return self.field.coerce(v)

    def __eq__(self, other):
        try:
            other = self._other(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.vec == other.vec and self.den == other.den

    def __hash__(self):
        return hash((self.vec, self.den))

    def __add__(self, other):
        o = self._other(other)
        a, da = self.vec, self.den
        b, db = o.vec, o.den
        if da == db:
            return _reduced(self.field, tuple(x + y for x, y in zip(a, b)),
                            da)
        return _reduced(self.field, tuple(x * db + y * da
                                          for x, y in zip(a, b)), da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.vec),
                            self.den)

    def __sub__(self, other):
        o = self._other(other)
        a, da = self.vec, self.den
        b, db = o.vec, o.den
        if da == db:
            return _reduced(self.field, tuple(x - y for x, y in zip(a, b)),
                            da)
        return _reduced(self.field, tuple(x * db - y * da
                                          for x, y in zip(a, b)), da * db)

    def __rsub__(self, other):
        return self._other(other) - self

    def __mul__(self, other):
        f = self.field
        if not (isinstance(other, FieldElement) and other.field is f):
            if isinstance(other, (int, Fraction)):
                return _reduced(f, tuple(x * other.numerator
                                         for x in self.vec),
                                self.den * other.denominator)
            other = f.coerce(other)
        d = f.degree
        prod = [0] * (2 * d - 1)
        b = other.vec
        for i, x in enumerate(self.vec):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        rows, T = f._integer_power_table()
        out = prod[:d] if T == 1 else [c * T for c in prod[:d]]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                for i, r in enumerate(rows[k - d]):
                    if r:
                        out[i] += c * r
        return _reduced(f, tuple(out), self.den * other.den * T)

    __rmul__ = __mul__

    def inverse(self):
        """Solves x * y = 1 as the linear system whose column j holds
        the numerator of x * gen^j, fraction-free (`_row_reduce`).  The
        matrix of multiplication by a nonzero element is singular only
        when the defining polynomial factors."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        a = self.vec
        if not any(a[1:]):
            c = a[0]
            return f._unit(0, self.den if c > 0 else -self.den, abs(c))
        n = f.degree
        col = FieldElement(f, a, 1)
        gen = f.gen()
        cols = [col]
        for _ in range(n - 1):
            col = col * gen
            cols.append(col)
        rows, pivots, D = _row_reduce([[c.vec[i] for c in cols] + [int(not i)]
                                       for i in range(n)])
        if pivots != list(range(n)):
            raise ArithmeticError("defining polynomial is not irreducible")
        s = -1 if D < 0 else 1
        return _reduced(f, tuple(s * self.den * row[n] * c.den
                                 for row, c in zip(rows, cols)), s * D)

    def __truediv__(self, other):
        return self * self._other(other).inverse()

    def __rtruediv__(self, other):
        return self._other(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def is_rational(self):
        return not any(self.vec[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.vec[0], self.den)

    def canonical_key(self):
        """Total order key: lexicographic on the flattened QQ coordinates,
        each fraction compared as its (numerator, denominator) pair."""
        flat = self.field.flatten(self)
        return tuple((c.numerator, c.denominator) for c in flat)

    def __repr__(self):
        from .render import render_field_element
        return f"FieldElement({render_field_element(self)})"


class TowerElement(FieldElement):
    """An element of a height-two tower QQ(g)(a): vec holds its
    coordinates along powers of a, each an element of QQ(g), and den is
    always 1, so equality and hashing are those of FieldElement."""

    __slots__ = ()

    def __init__(self, field, vec):
        self.field = field
        self.vec = vec
        self.den = 1

    @property
    def coeffs(self):
        """The coordinates over the base: elements of QQ(g)."""
        return self.vec

    def __add__(self, other):
        o = self._other(other)
        return TowerElement(self.field, tuple(a + b for a, b in
                                              zip(self.vec, o.vec)))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.field, tuple(-a for a in self.vec))

    def __sub__(self, other):
        o = self._other(other)
        return TowerElement(self.field, tuple(a - b for a, b in
                                              zip(self.vec, o.vec)))

    def __mul__(self, other):
        f = self.field
        prod = UniPoly(f.base, self.vec) * UniPoly(f.base,
                                                    self._other(other).vec)
        return f.element((prod % f.minpoly).coeffs)

    __rmul__ = __mul__

    def inverse(self):
        """Solves x * y = 1 over QQ: column i holds the QQ coordinates of
        x times basis element i, each row cleared of its denominators."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        if not any(self.vec[1:]):
            return f._unit(0, self.vec[0].inverse())
        n = f.qq_dim()
        cols = [f.flatten(self * f.unflatten([int(i == j) for j in range(n)]))
                for i in range(n)]
        rows, pivots, D = _row_reduce(
            [clear_denominators([c[i] for c in cols] + [int(not i)])[0]
             for i in range(n)])
        if pivots != list(range(n)):
            raise ArithmeticError("defining polynomial is not irreducible")
        return f.unflatten([Fraction(row[n], D) for row in rows])

    def is_rational(self):
        return not any(self.vec[1:]) and self.vec[0].is_rational()

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.vec[0].rational_value()


def canonical_key(x):
    if isinstance(x, FieldElement):
        return x.canonical_key()
    q = Fraction(x)
    return ((q.numerator, q.denominator),)


# ---------------------------------------------------------------------------
# irreducibility and extension construction


def make_extension(base, minpoly: UniPoly, name=None):
    """Build base(name) after verifying the defining polynomial is
    irreducible over base; raises ReduciblePolynomialError with a witness
    factor otherwise."""
    minpoly = minpoly.monic()
    if minpoly.degree() < 1:
        raise ValueError("defining polynomial must be nonconstant")
    ok, factor = is_irreducible(minpoly)
    if not ok:
        raise ReduciblePolynomialError(factor)
    if name is None:
        name = "a" if base is QQ or base.height == 0 else "b"
    return FieldTower(base, name, minpoly)


def is_irreducible(f: UniPoly):
    """Exact irreducibility over the coefficient field of f.

    Returns (True, None) or (False, witness_factor).  The witness is
    x - r for the least root r of f in the field (least rational, over
    QQ; least canonical key, over an extension), or else the monic
    factor of least degree whose coefficients, constant first, have the
    least canonical keys.

    Over QQ the integer form of f goes to the factor search of `modp`:
    `modp.degree_patterns` leaves the degrees a factor can have, and
    `modp.factor_zz` searches them, 1 included, up to the least degree
    that yields a factor, since the witness has that degree; it raises
    SearchCapExceededError past `modp._RECOMBINATION_CAP` candidates.
    An f that is not squarefree is decided by its squarefree part.  Over
    an extension f is factored by Trager's norm (`_tower_factors`).
    """
    d = f.degree()
    if d < 1:
        raise ValueError("constants are neither reducible nor irreducible")
    if d == 1:
        return True, None
    f = f.monic()
    if f.field is not QQ:
        factors = _tower_factors(f)
    else:
        ints = clear_denominators(f.coeffs)[0]
        degrees, modular = modp.degree_patterns(ints)
        if degrees and modular is None:
            # no tried prime keeps f squarefree; when f is not squarefree
            # over QQ either, its factors are those of its squarefree part
            common = f.gcd(f.derivative())
            if common.degree() > 0:
                part = f // common
                ok, factor = is_irreducible(part)
                return False, part if ok else factor
        factors = ([_monic_qq(g) for g in
                    modp.factor_zz(ints, degrees, modular, first=True)]
                   if degrees else [f])
    return (True, None) if factors == [f] else (False, _least(factors))


def _least(factors):
    """The witness among monic irreducible factors: x - r for the least
    root r, else the least degree, then the least coefficient keys."""
    def key(g):
        if g.degree() == 1:
            return 1, -g[0] if g.field is QQ else canonical_key(-g[0])
        return g.degree(), [canonical_key(c) for c in g.coeffs]
    return min(factors, key=key)


def _monic_qq(ints):
    """The monic polynomial over QQ of an integer coefficient list."""
    return UniPoly(QQ, [Fraction(c, ints[-1]) for c in ints])


# ---------------------------------------------------------------------------
# factors and roots over an extension


def _tower_factors(f: UniPoly):
    """The monic irreducible factors of the squarefree part of the monic
    f over a tower K = L(a) of degree n over L, by Trager's norm
    (B. Trager, SYMSAC 1976).

    With h the squarefree part, g(x) = h(x - s*a) for s = 0, 1, -1, 2,
    ... has the norm N over L, the product of its n conjugates: the
    determinant of multiplication by g, which `descent` computes.  At
    most C(n * deg h, 2) shifts leave N with a square factor.  When h
    lies in L[x] its norm is h^n, so the shifts start at s = 1.  Once N is
    squarefree, each irreducible factor N_i of N over L, of a degree
    divisible by n, gives one irreducible factor gcd(g, N_i)(x + s*a) of
    h.  Over L = QQ the N_i come from `modp.factor_zz` on the integer
    form of N, over L = QQ(g) from this function one level down.
    """
    from .descent import alpha_decompose
    field = f.field
    f = f // f.gcd(f.derivative())
    if f.degree() == 1:
        return [f]
    a = field.gen()
    one = MultiPoly.const(field, 1, field.one)
    s = 1 if all(not any(c.vec[1:]) for c in f.coeffs) else 0
    while True:
        g = f.shift_compose(field.one, -s * a)
        _, norm = alpha_decompose(one, MultiPoly(
            field, 1, {(k,): c for k, c in enumerate(g.coeffs) if c},
            _clean=True))
        norm = UniPoly.from_mpoly(norm)
        ints = clear_denominators(norm.coeffs)[0] if field.base is QQ else []
        degrees, modular = modp.degree_patterns(ints) if ints else ([], None)
        # a prime that keeps N squarefree proves it squarefree over QQ
        if modular or norm.gcd(norm.derivative()).degree() == 0:
            break
        s = -s if s > 0 else 1 - s
    if field.base is not QQ:
        parts = _tower_factors(norm)
    else:
        degrees = [k for k in degrees if not k % field.degree]
        parts = ([_monic_qq(g) for g in
                  modp.factor_zz(ints, degrees, modular)]
                 if degrees else [norm])
    return [g.gcd(_coerce_unipoly(mu, field)).shift_compose(field.one, s * a)
            for mu in parts]


def roots_in_field(f: UniPoly, field):
    """All roots of f lying in the given field, canonically sorted.

    Either way they are read off the linear factors of f: over QQ those
    `modp.factor_zz` lifts for `rational_roots`, over an extension those
    of Trager's norm (`_tower_factors`).
    """
    if f.is_zero():
        raise ValueError("every element is a root of the zero polynomial")
    f = _coerce_unipoly(f, field)
    if isinstance(field, RationalField):
        return rational_roots(f)
    d = f.degree()
    if d <= 0:
        return []
    if d == 1:
        return [-f[0] / f[1]]
    return sorted((-g[0] for g in _tower_factors(f.monic())
                   if g.degree() == 1), key=canonical_key)


def _coerce_unipoly(f: UniPoly, field):
    if f.field is field:
        return f
    return UniPoly(field, tuple(field.coerce(c) for c in f.coeffs))


# ---------------------------------------------------------------------------
# subfields of a height-one field


def min_poly_over_q(x: FieldElement) -> UniPoly:
    """Monic minimal polynomial over QQ of an element of QQ(a).

    One RREF of the Krylov matrix with columns 1, x, ..., x^n, each row
    cleared of its denominators (`_row_reduce`).  Once x^d depends on the
    lower powers so does every higher power, so the pivots are the
    columns 0..d-1 and the entries of column d in the RREF are the
    coefficients of that dependency.
    """
    field = x.field
    n = field.qq_dim()
    cols = [field.flatten(field.one)]
    power = field.one
    for _ in range(n):
        power = power * x
        cols.append(field.flatten(power))
    rows, pivots, D = _row_reduce(
        [clear_denominators([col[i] for col in cols])[0] for i in range(n)])
    d = len(pivots)
    return UniPoly(QQ, [Fraction(-rows[i][d], D) for i in range(d)]
                   + [Fraction(1)])


class SubfieldEmbedding:
    """QQ(gamma) inside a height-one field QQ(a).

    gamma generates the subfield; minpoly is its monic minimal polynomial
    over QQ of degree r.  r = 1 is normalized to gamma = 0, minpoly = x.
    For r > 1 the products gamma^j * a^k (j < r, k < n / r) are a QQ-basis
    of the ambient field; the inverse of that basis, computed once, gives
    membership, the relative minimal polynomial and tower coordinates.
    """

    __slots__ = ("ambient", "gamma", "minpoly", "r", "subfield",
                 "_gamma_powers", "_basis_inverse")

    def __init__(self, ambient, gamma, minpoly=None):
        self.ambient = ambient
        gamma = ambient.coerce(gamma)
        if minpoly is None:
            minpoly = min_poly_over_q(gamma)
        self.minpoly = minpoly
        self.r = minpoly.degree()
        if self.r == 1:
            self.gamma = ambient.zero
            self.minpoly = UniPoly(QQ, (Fraction(0), Fraction(1)))
            self.subfield = QQ
        else:
            self.gamma = gamma
            self.subfield = FieldTower(QQ, "g", self.minpoly)
        self._gamma_powers = None
        self._basis_inverse = None

    def gamma_powers(self):
        if self._gamma_powers is None:
            out = [self.ambient.one]
            for _ in range(1, self.r):
                out.append(out[-1] * self.gamma)
            self._gamma_powers = out
        return self._gamma_powers

    def coordinates(self, x):
        """QQ coordinates of x in the basis gamma^j * a^k, at index
        k*r + j as in a tower's flatten.

        The inverse of the basis is kept as integer rows over one
        denominator D, the right block of D times the RREF of [B | I],
        so each coordinate is one integer dot product with the
        numerators of x.  Clearing the denominators of each row of
        [B | I] first leaves that RREF as it is."""
        if self._basis_inverse is None:
            ambient = self.ambient
            n = ambient.qq_dim()
            if n % self.r:
                raise ArithmeticError(
                    "subfield degree does not divide field degree")
            alpha = ambient.gen()
            apow = ambient.one
            cols = []
            for _ in range(n // self.r):
                cols.extend(ambient.flatten(apow * g)
                            for g in self.gamma_powers())
                apow = apow * alpha
            aug = [[col[i] for col in cols] + [int(i == c) for c in range(n)]
                   for i in range(n)]
            rows, pivots, D = _row_reduce(
                [clear_denominators(row)[0] for row in aug])
            if pivots != list(range(n)):
                raise ArithmeticError("tower basis is degenerate")
            self._basis_inverse = ([row[n:] for row in rows], D)
        rows, D = self._basis_inverse
        x = self.ambient.coerce(x)
        den = D * x.den
        return [Fraction(sum(c * v for c, v in zip(row, x.vec)), den)
                for row in rows]

    def membership(self, x):
        """QQ coordinates of x in the gamma power basis, or None."""
        x = self.ambient.coerce(x)
        if self.r == 1:
            if x.is_rational():
                return (x.rational_value(),)
            return None
        coords = self.coordinates(x)
        if any(coords[self.r:]):
            return None
        return tuple(coords[:self.r])

    def lift(self, x):
        """x as an element of the abstract subfield; None when outside."""
        coords = self.membership(x)
        if coords is None:
            return None
        if self.r == 1:
            return coords[0]
        return self.subfield.element(coords)

    def push(self, c):
        """Subfield element (or rational) into the ambient field."""
        if self.r == 1:
            return self.ambient.coerce(c)
        if isinstance(c, FieldElement) and c.field is self.subfield:
            acc = self.ambient.zero
            for coeff, p in zip(c.coeffs, self.gamma_powers()):
                if coeff:
                    acc = acc + p * coeff
            return acc
        return self.ambient.coerce(c)

    def __repr__(self):
        return f"SubfieldEmbedding(r={self.r})"


def trivial_embedding(ambient):
    return SubfieldEmbedding(ambient, ambient.zero,
                             UniPoly(QQ, (Fraction(0), Fraction(1))))


def primitive_element(ambient, gens, cap=200):
    """A subfield embedding for QQ(gens).

    Deterministic search: each generator in input order, then sums
    g_i + lam * g_j with lam = 1, 2, ...; a candidate wins when every
    generator is a member of QQ(candidate).
    """
    gens = [ambient.coerce(g) for g in gens]
    if all(g.is_rational() for g in gens):
        return trivial_embedding(ambient)

    def works(cand):
        emb = SubfieldEmbedding(ambient, cand)
        for g in gens:
            if emb.membership(g) is None:
                return None
        return emb

    tried = 0
    for cand in gens:
        tried += 1
        if tried > cap:
            break
        emb = works(cand)
        if emb is not None:
            return emb
    for lam in range(1, cap):
        for i in range(len(gens)):
            for j in range(len(gens)):
                if i == j:
                    continue
                tried += 1
                if tried > cap:
                    raise ArithmeticError(
                        "primitive element search exceeded its cap")
                emb = works(gens[i] + lam * gens[j])
                if emb is not None:
                    return emb
    raise ArithmeticError("primitive element search exceeded its cap")


def relative_min_poly(emb: SubfieldEmbedding) -> UniPoly:
    """Minimal polynomial of the ambient generator over QQ(gamma).

    Monic of degree m = n / r with subfield coefficients: minus the
    coordinates of a^m in the basis gamma^j * a^k.
    """
    ambient = emb.ambient
    if emb.r == 1:
        return ambient.minpoly
    r = emb.r
    m = ambient.qq_dim() // r
    coords = emb.coordinates(ambient.gen() ** m)
    sub = emb.subfield
    coeffs = [sub.element([-c for c in coords[k * r:(k + 1) * r]])
              for k in range(m)]
    return UniPoly(sub, coeffs + [sub.one])


class TowerContext:
    """QQ(g)(a) built on a subfield embedding, with maps both ways."""

    __slots__ = ("emb", "tower")

    def __init__(self, emb: SubfieldEmbedding):
        if emb.r == 1:
            raise ValueError("tower over a trivial subfield is the field")
        self.emb = emb
        self.tower = FieldTower(emb.subfield, emb.ambient.name,
                                relative_min_poly(emb))

    def to_tower(self, x):
        """Rewrite an ambient element in the g, a tower coordinates."""
        return self.tower.unflatten(self.emb.coordinates(x))

    def flatten(self, y):
        """Tower element back into the ambient field QQ(a)."""
        y = self.tower.coerce(y)
        ambient = self.emb.ambient
        alpha = ambient.gen()
        acc = ambient.zero
        for k in range(self.tower.degree - 1, -1, -1):
            acc = acc * alpha + self.emb.push(y.coeffs[k])
        return acc
