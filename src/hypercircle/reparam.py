"""Optimal affine reparametrization of a rational curve.

Given phi with coefficients in QQ(a), find s(t) = c*t + d such that
phi(s(t)) has coefficients in the smallest subfield reachable by an
affine change of parameter.  The subfield is read off the points at
infinity of the witness ideal; the shift itself comes from a linear
parametrization of a witness line, either of the first descent (degree
one subfield) or of a second descent over the intermediate field.
"""

from fractions import Fraction

from .descent import Parametrization, witness_ideal
from .fields import (QQ, RationalField, TowerContext, primitive_element,
                     trivial_embedding)
from .groebner import (DEFAULT_PAIR_BUDGET, PositiveDimensionalError,
                       dimension, linear_part, triangular_solve)
from .hypercircles import (InternalInconsistencyError, hypercircle_degree_field,
                           points_at_infinity)
from .linalg import rref
from .mpoly import MultiPoly
from .upoly import UniPoly


class AffineShift:
    """t -> a*t + b over the ambient field, a invertible."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = field.coerce(a)
        self.b = field.coerce(b)
        if not self.a:
            raise ValueError("affine shift needs a nonzero slope")

    @classmethod
    def identity(cls, field):
        return cls(field, field.one, field.zero)

    def as_unipoly(self):
        return UniPoly(self.field, (self.b, self.a))

    def __eq__(self, other):
        if not isinstance(other, AffineShift):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"AffineShift(a={self.a!r}, b={self.b!r})"


class ReparamReport:
    """Everything the pipeline produced, success or not."""

    __slots__ = ("status", "r", "embedding", "shift",
                 "reparametrized", "witness", "delta", "infinity_points",
                 "relative_minpoly", "second_witness", "second_delta",
                 "fail_reason", "dimension")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name, None))
        if kw:
            raise TypeError(f"unknown report fields: {sorted(kw)}")

    @property
    def succeeded(self):
        return self.status == "success"


def _tower_constant(c):
    """Base-field component of a tower element, or None if it uses the
    generator."""
    if any(c.coeffs[1:]):
        return None
    return c.coeffs[0]


def _point_directions(points):
    """Affine direction vectors of infinity points that live over the
    coefficient field of the ideal."""
    out = []
    for p in points:
        vec = []
        for c in p.coords[:-1]:
            d = _tower_constant(c)
            if d is None:
                break
            vec.append(d)
        else:
            if any(vec):
                out.append(tuple(vec))
    return out


def _line_in_variety(gens, psi, field):
    """Every generator vanishes at t -> (psi_0(t), ..., psi_{m-1}(t))."""
    one = UniPoly.const(field, field.one)
    powers = [[one] for _ in psi]
    for g in gens:
        acc = UniPoly.zero(field)
        for e, c in g.terms.items():
            term = UniPoly.const(field, c)
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1] * psi[i])
                    term = term * pw[k]
            acc = acc + term
        if not acc.is_zero():
            return False
    return True


def parametrize_line(gens, m, field, directions=(),
                     budget=DEFAULT_PAIR_BUDGET):
    """Degree <= 1 polynomials psi_0..psi_{m-1} tracing the unique line
    inside V(gens).

    The linear part of the ideal is tried first; when lower-dimensional
    junk components depress it below corank one, the line is rebuilt
    from an infinity direction and an exact transversal slice.
    """
    rows = linear_part(gens, budget)
    if len(rows) >= m:
        raise InternalInconsistencyError(
            "witness ideal has no line component")
    if len(rows) == m - 1:
        mat = []
        for p in rows:
            vec = [p.coefficient(tuple(1 if j == i else 0
                                       for j in range(m)))
                   for i in range(m)]
            vec.append(p.coefficient((0,) * m))
            mat.append(vec)
        mat, pivots = rref(mat, field)
        if len(pivots) == m - 1 and all(c < m for c in pivots):
            free = next(i for i in range(m) if i not in pivots)
            psi = [None] * m
            psi[free] = UniPoly(field, (field.zero, field.one))
            for row, p in zip(mat, pivots):
                psi[p] = UniPoly(field, (-row[m], -row[free]))
            if _line_in_variety(gens, psi, field):
                return psi
    for v in directions:
        k = max(i for i in range(m) if v[i])
        sliced = list(gens) + [MultiPoly.var(field, m, k)]
        try:
            sols = triangular_solve(sliced, m, field, budget)
        except PositiveDimensionalError as exc:
            raise InternalInconsistencyError(
                "positive-dimensional line slice") from exc
        for sol in sols:
            psi = [UniPoly(field, (sol[i], v[i])) for i in range(m)]
            if _line_in_variety(gens, psi, field):
                return psi
    raise ValueError("line extraction failed")


def _shift_from_line(psi, tower):
    """Sum of psi_i(t) * gen^i, which must be affine with a unit slope."""
    gen = tower.gen()
    power = tower.one
    a = tower.zero
    b = tower.zero
    for f in psi:
        if f.degree() > 1:
            raise InternalInconsistencyError("line parametrization is not "
                                             "affine")
        b = b + tower.coerce(f[0]) * power
        if f.degree() >= 1:
            a = a + tower.coerce(f[1]) * power
        power = power * gen
    return a, b


def verify_reparametrization(phi, shift, emb):
    """phi(shift) written over the subfield, or None when a coefficient
    lies outside it.

    The composed parametrization is canonical (gcd(f_1, ..., f_N, g) = 1,
    g monic), so its stored coefficients lie in the subfield exactly when
    those of every reduced component do.
    """
    composed = phi.compose_affine(shift.a, shift.b)
    polys = []
    for f in composed.numerators + (composed.denominator,):
        coeffs = [emb.lift(c) for c in f.coeffs]
        if any(c is None for c in coeffs):
            return None
        polys.append(UniPoly(emb.subfield, coeffs))
    return Parametrization(emb.subfield, polys[:-1], polys[-1])


def coefficient_field_degree(phi):
    """Degree over QQ of the field generated by the coefficients of the
    canonical form, which is the field the reduced components generate."""
    if isinstance(phi.field, RationalField):
        return 1
    return primitive_element(phi.field, phi.coefficients()).r


def optimal_affine_reparametrize(phi, budget=DEFAULT_PAIR_BUDGET):
    """Find the optimal affine shift of phi over its field phi.field."""
    tower = phi.field
    n = tower.degree
    if all(_is_rational(c) for c in phi.coefficients()):
        return _identity_report(phi, trivial_embedding(tower))
    witness, delta = witness_ideal(phi, budget)
    if not witness:
        return _identity_report(phi, trivial_embedding(tower))
    pts = points_at_infinity(witness, tower, budget)
    dim = dimension(witness, budget)
    if not pts:
        return ReparamReport(
            status="fail", witness=witness, delta=delta,
            infinity_points=[], dimension=dim,
            fail_reason="witness variety has no points at infinity "
                        f"(dimension {dim})")
    emb = hypercircle_degree_field(pts)
    r = emb.r
    base_report = dict(witness=witness, delta=delta,
                       infinity_points=pts, dimension=dim, r=r,
                       embedding=emb)
    if r == n:
        shift = AffineShift.identity(tower)
        return _close_report(phi, shift, emb, base_report)
    if r == 1:
        psi = parametrize_line(witness, n, QQ, _point_directions(pts),
                               budget)
        a, b = _shift_from_line(psi, tower)
        shift = AffineShift(tower, a, b)
        return _close_report(phi, shift, emb, base_report)
    ctx = TowerContext(emb)
    rel = ctx.tower.minpoly
    phi2 = phi.map_coefficients(ctx.to_tower, ctx.tower)
    witness2, delta2 = witness_ideal(phi2, budget)
    base_report.update(relative_minpoly=rel, second_witness=witness2,
                       second_delta=delta2)
    if not witness2:
        shift = AffineShift.identity(tower)
        return _close_report(phi, shift, emb, base_report)
    pts2 = points_at_infinity(witness2, ctx.tower, budget)
    if not pts2:
        raise InternalInconsistencyError(
            "second witness variety lost its line")
    psi = parametrize_line(witness2, ctx.tower.degree, emb.subfield,
                           _point_directions(pts2), budget)
    a2, b2 = _shift_from_line(psi, ctx.tower)
    shift = AffineShift(tower, ctx.flatten(a2), ctx.flatten(b2))
    return _close_report(phi, shift, emb, base_report)


def _is_rational(c):
    if isinstance(c, (int, Fraction)):
        return True
    return c.is_rational()


def _identity_report(phi, emb):
    shift = AffineShift.identity(phi.field)
    phi_q = phi.map_coefficients(_rational_value, QQ)
    return ReparamReport(status="success", r=1,
                         embedding=emb, shift=shift, reparametrized=phi_q,
                         witness=[], infinity_points=[])


def _rational_value(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    return c.rational_value()


def _close_report(phi, shift, emb, base_report):
    expressed = verify_reparametrization(phi, shift, emb)
    if expressed is None:
        raise InternalInconsistencyError(
            "reparametrized coefficients left the expected subfield")
    return ReparamReport(status="success", shift=shift,
                         reparametrized=expressed, **base_report)
