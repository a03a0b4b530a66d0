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


def points_at_infinity(gens, tower, budget=DEFAULT_PAIR_BUDGET):
    """Infinity points of the ideal with coordinates in the tower.

    Homogenizes a degree-compatible basis, slices the h = 0 locus by the
    affine chart of the highest-index coordinate that yields solutions,
    and solves the zero-dimensional remainder exactly.
    """
    gb = buchberger(gens, GREVLEX, budget)
    if not gb:
        raise InternalInconsistencyError(
            "unexpected positive-dimensional infinity")
    base = tower.base
    m = gb[0].arity
    if is_groebner_unit(gb):
        return []
    sliced = []
    for g in gb:
        gh = g.homogenize().assign_value(m, base.zero)
        if not gh.is_zero():
            sliced.append(gh)
    for k in range(m - 1, -1, -1):
        system = [g.assign_value(k, base.one) for g in sliced]
        system = [g for g in system if not g.is_zero()]
        try:
            sols = triangular_solve(system, m - 1, tower, budget)
        except PositiveDimensionalError as exc:
            raise InternalInconsistencyError(
                "unexpected positive-dimensional infinity") from exc
        if not sols:
            continue
        points = []
        for sol in sols:
            coords = list(sol[:k]) + [base.one] + list(sol[k:])
            coords.append(base.zero)
            points.append(ProjectivePoint(tower, coords))
        points.sort(key=ProjectivePoint.sort_key)
        return points
    return []


def hypercircle_degree_field(points):
    """Embedding of the field generated by the first point's coordinates."""
    if not points:
        raise ValueError("no points at infinity to measure")
    first = points[0]
    return primitive_element(first.field, list(first.coords[:-1]))
