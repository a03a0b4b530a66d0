"""Sparse multivariate polynomials over an exact field, and the one
monomial packing.

Terms live in a dict mapping dense exponent tuples to nonzero coefficients.
The coefficient field is carried explicitly (see fields.QQ and FieldTower)
so empty polynomials still know their zero and one.

Exponent arithmetic runs on packed monomials (Packing): each exponent
vector is one int, so the product of monomials is an int sum and, with
an order, the monomial order is int comparison.  A product, an exact
division and a leading term pack once per call with a bound read off
their inputs; the Groebner engine and the descent use the same Packing.
Every multiply-accumulate over sparse term dicts is one term kernel,
`add_multiple`: the product `addmul`, exact division, the descent's
layers, the parser's products and the Groebner engine's reductions and
S-polynomials.
"""

from functools import lru_cache
from operator import mul


class Order:
    """Monomial order: lex, grevlex, or a two-block grevlex elimination
    order (kinds "lex", "grevlex" and "block")."""

    __slots__ = ("kind", "split")

    def __init__(self, kind, split=0):
        self.kind = kind
        self.split = split

    def key(self, e):
        """A tuple whose natural ordering agrees with the monomial order."""
        if self.kind == "lex":
            return e
        if self.kind == "grevlex":
            return _grevlex_key(e)
        s = self.split
        return (_grevlex_key(e[:s]), _grevlex_key(e[s:]))

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.split})"
        return self.kind

    def __eq__(self, other):
        return (isinstance(other, Order) and self.kind == other.kind
                and self.split == other.split)

    def __hash__(self):
        return hash((self.kind, self.split))


def _grevlex_key(e):
    return (sum(e), tuple(-v for v in reversed(e)))


LEX = Order("lex")
GREVLEX = Order("grevlex")


def block_order(split):
    """Eliminates the first `split` variables."""
    return Order("block", split)


class Packing:
    """Exponent vectors of one arity packed into ints (M. Monagan and R.
    Pearce, "Polynomial division using dynamic arrays, heaps, and packed
    exponent vectors", CASC 2007).

    A packed monomial is a row of fixed-width fields, most significant
    first: the order fields, if an order is given, then the raw
    exponents.  Every field is a sum of exponents, so packing is linear
    (the product of monomials is the sum of their ints), and with an
    order int comparison is the monomial order.  A grevlex block has its
    degree, then the partial sums (e_0 + ... + e_{m-2}, ..., e_0), which
    at equal degree compare as the reversed, negated exponents do; lex
    needs only the raw fields.  Each field holds `bound` plus a top
    guard bit that stays clear while no total degree exceeds the bound,
    so m divides e exactly when e - m borrows into no guard bit.  The
    bound is the caller's to keep: nothing here checks it.
    """

    __slots__ = ("bound", "units", "shifts", "guard", "field", "raw",
                 "ones", "deg_shift")

    def __init__(self, arity, bound, order=None):
        self.bound = bound
        width = bound.bit_length() + 1
        if order is None or order.kind == "lex":
            blocks = ()
        elif order.kind == "grevlex":
            blocks = ((0, arity),)
        else:
            blocks = ((0, order.split), (order.split, arity))
        # each field as the range of exponents it sums
        fields = []
        for lo, hi in blocks:
            if lo < hi:
                fields.append(range(lo, hi))
                fields.extend(range(lo, j) for j in range(hi - 1, lo, -1))
        fields.extend(range(i, i + 1) for i in range(arity))
        top = len(fields) - 1
        self.units = [sum(1 << width * (top - f)
                          for f, r in enumerate(fields) if i in r)
                      for i in range(arity)]
        self.guard = sum(1 << width * f + width - 1
                         for f in range(len(fields)))
        self.field = (1 << width) - 1
        self.shifts = [width * (arity - 1 - i) for i in range(arity)]
        # the raw fields times `ones` hold the degree at `deg_shift`
        self.raw = (1 << width * arity) - 1
        self.ones = sum(1 << s for s in self.shifts)
        self.deg_shift = width * max(arity - 1, 0)

    def pack(self, e):
        return sum(map(mul, self.units, e))

    def terms(self, terms):
        """A term dict with packed monomials."""
        units = self.units
        return {sum(map(mul, units, e)): c for e, c in terms.items()}

    def unpack(self, p):
        field = self.field
        return tuple([p >> s & field for s in self.shifts])

    def degree(self, p):
        return (p & self.raw) * self.ones >> self.deg_shift & self.field

    def max_degree(self, monomials):
        """The largest degree of some packed monomials."""
        raw, ones, shift, field = (self.raw, self.ones, self.deg_shift,
                                   self.field)
        return max([(p & raw) * ones >> shift & field for p in monomials])


# MultiPoly packs per call; building a Packing costs more than a small
# product, so each (arity, bound, order) is built once.
_packing = lru_cache(maxsize=None)(Packing)


def add_terms(p, q):
    """p + q on term dicts with keys of any kind, dropping cancelled
    terms: the longer is copied and the shorter merged into it."""
    if len(p) < len(q):
        p, q = q, p
    out = dict(p)
    get = out.get
    for k, c in q.items():
        v = get(k)
        if v is None:
            out[k] = c
        else:
            v += c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def add_multiple(acc, c, shift, terms):
    """In place acc += c * x^shift * terms, dropping cancelled terms: the
    one term kernel.  terms iterates (monomial, coefficient) pairs whose
    monomials, like shift, are ints that add as monomials multiply:
    packed monomials, or the parser's degrees.  Coefficients are nonzero
    and their ring has no zero divisors."""
    get = acc.get
    for f, d in terms:
        k = shift + f
        v = get(k)
        if v is None:
            acc[k] = c * d
        else:
            v += c * d
            if v:
                acc[k] = v
            else:
                del acc[k]


def addmul(acc, a, b, negate=False):
    """In place acc += a * b on packed term dicts, or acc -= a * b when
    negate is set: one add_multiple per term of the shorter operand."""
    if len(a) > len(b):
        a, b = b, a
    b = b.items()
    for e, c in a.items():
        add_multiple(acc, -c if negate else c, e, b)


class MultiPoly:
    __slots__ = ("field", "arity", "terms")

    def __init__(self, field, arity, terms=None, _clean=False):
        self.field = field
        self.arity = arity
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, field, arity):
        return cls(field, arity, {}, _clean=True)

    @classmethod
    def const(cls, field, arity, c):
        c = field.coerce(c)
        if not c:
            return cls.zero(field, arity)
        return cls(field, arity, {(0,) * arity: c}, _clean=True)

    @classmethod
    def var(cls, field, arity, i, exp=1):
        e = [0] * arity
        e[i] = exp
        return cls(field, arity, {tuple(e): field.one}, _clean=True)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        if not self.terms:
            return True
        return set(self.terms) == {(0,) * self.arity}

    def constant_value(self):
        return self.terms.get((0,) * self.arity, self.field.zero)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def variables(self):
        """Indices of variables that actually occur."""
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return sorted(used)

    def coefficient(self, e):
        return self.terms.get(tuple(e), self.field.zero)

    def leading(self, order=GREVLEX):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        pk = _packing(self.arity, self.total_degree(), order)
        e = max(self.terms, key=pk.pack)
        return e, self.terms[e]

    def _coerce_other(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        return MultiPoly.const(self.field, self.arity, other)

    def __add__(self, other):
        return MultiPoly(self.field, self.arity, add_terms(
            self.terms, self._coerce_other(other).terms), _clean=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce_other(other)

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __neg__(self):
        return MultiPoly(self.field, self.arity,
                         {e: -v for e, v in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.field, self.arity)
        da, db = self.total_degree(), other.total_degree()
        # a constant factor needs no exponent arithmetic
        if not da:
            return other.scale(self.constant_value())
        if not db:
            return self.scale(other.constant_value())
        pk = _packing(self.arity, da + db)
        acc = {}
        addmul(acc, pk.terms(self.terms), pk.terms(other.terms))
        unpack = pk.unpack
        return MultiPoly(self.field, self.arity,
                         {unpack(e): c for e, c in acc.items()}, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        if out is None:
            return MultiPoly.const(self.field, self.arity, self.field.one)
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (self.arity == other.arity and self.terms == other.terms)
        if self.is_constant():
            try:
                return self.constant_value() == self.field.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return MultiPoly.zero(self.field, self.arity)
        out = {}
        for e, v in self.terms.items():
            v = c * v
            if v:
                out[e] = v
        return MultiPoly(self.field, self.arity, out, _clean=True)

    def monic(self, order=GREVLEX):
        if not self.terms:
            return self
        _, lc = self.leading(order)
        if lc == self.field.one:
            return self
        return self.scale(self.field.one / lc)

    def exact_div(self, other):
        """Exact quotient self / other; raises when not divisible."""
        other = self._coerce_other(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not self.terms:
            return self
        # grevlex is degree compatible, so no remainder outgrows self
        bound = self.total_degree()
        if other.total_degree() > bound:
            raise ValueError("not an exact polynomial division")
        pk = _packing(self.arity, bound, GREVLEX)
        guard = pk.guard
        div = pk.terms(other.terms)
        le = max(div)
        lc = div[le]
        rem = pk.terms(self.terms)
        q = {}
        while rem:
            e = max(rem)
            s = e - le
            if s & guard:
                raise ValueError("not an exact polynomial division")
            c = rem[e] / lc
            q[s] = c
            add_multiple(rem, -c, s, div.items())
        unpack = pk.unpack
        return MultiPoly(self.field, self.arity,
                         {unpack(s): c for s, c in q.items()}, _clean=True)

    def map_coefficients(self, fn, field):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return MultiPoly(field, self.arity, out, _clean=True)

    def assign_value(self, i, value):
        """Substitute a field element for variable i, dropping that slot."""
        field = self.field
        value = field.coerce(value)
        out = {}
        powers = {0: field.one}
        for e, c in self.terms.items():
            k = e[i]
            if k not in powers:
                powers[k] = value ** k
            ne = e[:i] + e[i + 1:]
            out[ne] = out.get(ne, field.zero) + c * powers[k]
        # the constructor drops the terms that vanish or cancel
        return MultiPoly(field, self.arity - 1, out)

    def insert_vars(self, at, count):
        """Add `count` fresh variables starting at position `at`."""
        if count == 0:
            return self
        pad = (0,) * count
        out = {e[:at] + pad + e[at:]: c for e, c in self.terms.items()}
        return MultiPoly(self.field, self.arity + count, out, _clean=True)

    def drop_vars(self, indices):
        """Remove unused variable slots (they must not occur)."""
        drop = set(indices)
        for e in self.terms:
            for i in drop:
                if e[i]:
                    raise ValueError("cannot drop an occurring variable")
        keep = [i for i in range(self.arity) if i not in drop]
        out = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return MultiPoly(self.field, len(keep), out, _clean=True)

    def evaluate(self, values):
        """Full evaluation at field elements (list or dict by index)."""
        field = self.field
        acc = field.zero
        for e, c in self.terms.items():
            v = c
            for j, k in enumerate(e):
                if k:
                    v = v * (field.coerce(values[j]) ** k)
            acc = acc + v
        return acc

    def __repr__(self):
        from .render import render_mpoly
        return f"MultiPoly({render_mpoly(self)})"
