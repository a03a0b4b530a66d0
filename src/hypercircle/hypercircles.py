"""Hypercircles and points at infinity of witness ideals.

A unit (invertible linear fraction) over L(a) descends to a tuple of
univariate rational functions over L: the hypercircle it traces.  The
points at infinity of a witness ideal are computed from the projective
closure of a degree-compatible basis and drive the choice of the optimal
coefficient field downstream.
"""

from .descent import alpha_decompose
from .fields import canonical_key, primitive_element
from .groebner import (DEFAULT_PAIR_BUDGET, PositiveDimensionalError,
                       GREVLEX, buchberger, is_groebner_unit,
                       triangular_solve)
from .mpoly import MultiPoly
from .upoly import RationalFunction, UniPoly


class InternalInconsistencyError(RuntimeError):
    """A structural guarantee of the method failed on concrete input."""


class LinearFraction:
    """(a*t + b) / (c*t + d) with a*d - b*c invertible."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        self.field = field
        self.a = field.coerce(a)
        self.b = field.coerce(b)
        self.c = field.coerce(c)
        self.d = field.coerce(d)
        if not (self.a * self.d - self.b * self.c):
            raise ValueError("degenerate linear fraction")

    def __repr__(self):
        return (f"LinearFraction(a={self.a!r}, b={self.b!r}, "
                f"c={self.c!r}, d={self.d!r})")


class ProjectivePoint:
    """Homogeneous coordinates, scaled so the last nonzero entry is one."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = [field.coerce(c) for c in coords]
        last = -1
        for i in range(len(coords) - 1, -1, -1):
            if coords[i]:
                last = i
                break
        if last < 0:
            raise ValueError("projective point needs a nonzero coordinate")
        if coords[last] != field.one:
            inv = field.one / coords[last]
            coords = [c * inv for c in coords]
        self.field = field
        self.coords = tuple(coords)

    def sort_key(self):
        return tuple(canonical_key(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.coords)
        return f"ProjectivePoint([{inner}])"


def unit_to_hypercircle(unit):
    """The n reduced coordinate functions traced by the unit over the
    base of its field."""
    tower = unit.field
    num = MultiPoly(tower, 1, {(0,): unit.b, (1,): unit.a})
    den = MultiPoly(tower, 1, {(0,): unit.d, (1,): unit.c})
    comps, delta = alpha_decompose(num, den)
    dpoly = UniPoly.from_mpoly(delta)
    return [RationalFunction(UniPoly.from_mpoly(c), dpoly) for c in comps]


def primitive_infinity_point(tower):
    """The common point at infinity [l_0 : ... : l_{n-1} : 0].

    The l_i are the coefficients of M(t) / (t - a), by synthetic
    division, so l_{n-1} is always one.
    """
    alpha = tower.gen()
    m = tower.minpoly
    n = m.degree()
    q = [tower.zero] * n
    q[n - 1] = tower.one
    for k in range(n - 1, 0, -1):
        q[k - 1] = tower.coerce(m[k]) + alpha * q[k]
    return ProjectivePoint(tower, q + [tower.zero])


def _top_form(g):
    """The terms of g of its total degree: g homogenized, at h = 0."""
    d = g.total_degree()
    return MultiPoly(g.field, g.arity,
                     {e: c for e, c in g.terms.items() if sum(e) == d},
                     _clean=True)


def _chart(form, k):
    """A homogeneous form in x_0..x_k at x_k = 1, without x_k.  Two of
    its monomials that agree off x_k have one degree, so they agree on
    it too: no terms merge and no coefficient changes."""
    return MultiPoly(form.field, k,
                     {e[:k]: c for e, c in form.terms.items()}, _clean=True)


def _restrict(form, k):
    """A form in x_0..x_k at x_k = 0, without x_k: its terms free of
    x_k, again a homogeneous form."""
    return MultiPoly(form.field, k,
                     {e[:k]: c for e, c in form.terms.items() if not e[k]},
                     _clean=True)


def points_at_infinity(gens, tower, budget=DEFAULT_PAIR_BUDGET):
    """Infinity points of the ideal with coordinates in the tower.

    The basis is graded, so the top-degree forms of its elements are the
    reduced grevlex basis of the ideal at infinity J.  The charts
    x_k = 1 are walked from k = m - 1 down, each read off that basis
    with x_k as its last variable and no Buchberger (D. Bayer and M.
    Stillman, Invent. Math. 87, 1987; Eisenbud, Commutative Algebra,
    Prop. 15.12): setting x_k = 1 gives the grevlex basis of the chart,
    which is empty when that basis holds a constant, and setting x_k = 0
    gives the basis of J restricted to x_k = 0 for the charts below.  So
    chart k also has x_{k+1} = ... = x_{m-1} = 0.  That loses no tower
    point: one with x_j != 0 for some j > k, scaled by 1/x_j, lies over
    the tower in chart j, which came first.  The first chart with points
    over the tower is solved exactly and its points returned.

    The top-degree forms are homogeneous, and so is each restriction to
    x_k = 0, which keeps the terms free of x_k.  So a chart drops the
    coordinate x_k of every exponent with no terms merging: every slice
    is a filter of the basis terms, with no coefficient arithmetic.
    """
    gb = buchberger(gens, GREVLEX, budget)
    if not gb:
        raise InternalInconsistencyError(
            "unexpected positive-dimensional infinity")
    if is_groebner_unit(gb):
        return []
    base = tower.base
    m = gb[0].arity
    # the basis of J in x_0..x_k, for k = m - 1 first
    top = [_top_form(g) for g in gb]
    for k in range(m - 1, -1, -1):
        chart = [_chart(g, k) for g in top]
        if not any(g.is_constant() for g in chart):
            try:
                sols = triangular_solve(chart, k, tower, budget)
            except PositiveDimensionalError as exc:
                raise InternalInconsistencyError(
                    "unexpected positive-dimensional infinity") from exc
            if sols:
                tail = [base.one] + [base.zero] * (m - k)
                points = [ProjectivePoint(tower, list(sol) + tail)
                          for sol in sols]
                points.sort(key=ProjectivePoint.sort_key)
                return points
        top = [h for h in (_restrict(g, k) for g in top)
               if not h.is_zero()]
    return []


def hypercircle_degree_field(points):
    """Embedding of the field generated by the first point's coordinates."""
    if not points:
        raise ValueError("no points at infinity to measure")
    first = points[0]
    return primitive_element(first.field, list(first.coords[:-1]))
