"""Sparse multivariate polynomials over an exact field.

Terms live in a dict mapping dense exponent tuples to nonzero coefficients.
The coefficient field is carried explicitly (see fields.QQ and FieldTower)
so empty polynomials still know their zero and one.
"""

from . import kernel


class Order:
    """Monomial order: lex, grevlex, or a two-block grevlex elimination order."""

    __slots__ = ("kind", "split")

    def __init__(self, kind, split=0):
        self.kind = kind
        self.split = split

    def key(self, e):
        """A tuple whose natural ordering agrees with the monomial order."""
        if self.kind == kernel.ORDER_LEX:
            return e
        if self.kind == kernel.ORDER_GREVLEX:
            return _grevlex_key(e)
        s = self.split
        return (_grevlex_key(e[:s]), _grevlex_key(e[s:]))

    def __repr__(self):
        if self.kind == kernel.ORDER_LEX:
            return "lex"
        if self.kind == kernel.ORDER_GREVLEX:
            return "grevlex"
        return f"block({self.split})"

    def __eq__(self, other):
        return (isinstance(other, Order) and self.kind == other.kind
                and self.split == other.split)

    def __hash__(self):
        return hash((self.kind, self.split))


def _grevlex_key(e):
    return (sum(e), tuple(-v for v in reversed(e)))


LEX = Order(kernel.ORDER_LEX)
GREVLEX = Order(kernel.ORDER_GREVLEX)


def block_order(split):
    """Eliminates the first `split` variables."""
    return Order(kernel.ORDER_BLOCK, split)


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
        return max(sum(e) for e in self.terms)

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
        e = kernel.leading_exponent(self.terms, order.kind, order.split)
        if e is None:
            raise ValueError("zero polynomial has no leading term")
        return e, self.terms[e]

    def sorted_terms(self, order=GREVLEX, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=reverse)

    def _coerce_other(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        return MultiPoly.const(self.field, self.arity, other)

    def __add__(self, other):
        other = self._coerce_other(other)
        return MultiPoly(self.field, self.arity,
                         kernel.add_terms(self.terms, other.terms),
                         _clean=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        return MultiPoly(self.field, self.arity,
                         kernel.sub_terms(self.terms, other.terms),
                         _clean=True)

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __neg__(self):
        return MultiPoly(self.field, self.arity,
                         kernel.neg_terms(self.terms), _clean=True)

    def __mul__(self, other):
        other = self._coerce_other(other)
        return MultiPoly(self.field, self.arity,
                         kernel.mul_terms(self.terms, other.terms),
                         _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.field, self.arity, self.field.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
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
        return MultiPoly(self.field, self.arity,
                         kernel.scale_terms(self.terms, c), _clean=True)

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
        order = GREVLEX
        le, lc = other.leading(order)
        rem = dict(self.terms)
        q = {}
        while rem:
            e = kernel.leading_exponent(rem, order.kind, order.split)
            s = kernel.exp_div(e, le)
            if s is None:
                raise ValueError("not an exact polynomial division")
            c = rem[e] / lc
            q[s] = c
            kernel.addmul_terms(rem, -c, s, other.terms)
        return MultiPoly(self.field, self.arity, q, _clean=True)

    def map_coefficients(self, fn, field):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return MultiPoly(field, self.arity, out, _clean=True)

    def substitute(self, assignment):
        """Ring homomorphism: variable index -> MultiPoly of the same ring.

        Variables absent from the assignment map to themselves.
        """
        field = self.field
        arity = None
        for p in assignment.values():
            arity = p.arity
            break
        if arity is None:
            arity = self.arity
        out = MultiPoly.zero(field, arity)
        cache = {}
        for e, c in self.terms.items():
            term = MultiPoly.const(field, arity, c)
            for i, k in enumerate(e):
                if not k:
                    continue
                key = (i, k)
                pw = cache.get(key)
                if pw is None:
                    base = assignment.get(i)
                    if base is None:
                        base = MultiPoly.var(field, arity, i)
                    pw = base ** k
                    cache[key] = pw
                term = term * pw
            out = out + term
        return out

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
            nc = c * powers[k]
            if not nc:
                continue
            ne = e[:i] + e[i + 1:]
            w = out.get(ne)
            if w is None:
                out[ne] = nc
            else:
                nv = w + nc
                if nv:
                    out[ne] = nv
                else:
                    del out[ne]
        return MultiPoly(field, self.arity - 1, out, _clean=True)

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

    def homogenize(self):
        """Append a homogenizing variable as the new last slot."""
        d = self.total_degree()
        if d < 0:
            return MultiPoly.zero(self.field, self.arity + 1)
        out = {e + (d - sum(e),): c for e, c in self.terms.items()}
        return MultiPoly(self.field, self.arity + 1, out, _clean=True)

    def dehomogenize(self):
        """Set the last variable to one and drop it."""
        return self.assign_value(self.arity - 1, self.field.one)

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
