"""Optimal affine reparametrization of a rational curve.

Given phi with coefficients in QQ(a), find s(t) = c*t + d such that
phi(s(t)) has coefficients in the smallest subfield reachable by an
affine change of parameter.  The subfield is read off the points at
infinity of the witness ideal, of the first descent (degree one
subfield) or of a second descent over the intermediate field; the shift
is read off the coefficients of phi along an infinity direction, with
no point on the curve and no further solve (_shifts).
"""

from math import gcd

from .descent import Parametrization, witness_ideal
from .fields import (RationalField, TowerContext, primitive_element,
                     trivial_embedding)
from .groebner import (DEFAULT_PAIR_BUDGET, PositiveDimensionalError,
                       dimension, linear_part, triangular_solve)
from .hypercircles import (InternalInconsistencyError, hypercircle_degree_field,
                           points_at_infinity)
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
    """Every generator vanishes at t -> (psi_0(t), ..., psi_{m-1}(t)).

    The constant psi_i are substituted first, which leaves g zero when
    it vanishes on a line with one moving coordinate.  Otherwise
    g(psi(t)) has degree at most deg g * max deg psi_i, so it is zero
    when it vanishes at that many plus one points t = 0, 1, ....
    """
    moving = [i for i, f in enumerate(psi) if f.degree() > 0]
    step = max([psi[i].degree() for i in moving], default=0)
    points = []  # psi(t) at t = 0, 1, ..., moving coordinates only
    for g in gens:
        for i in reversed(range(len(psi))):
            if i not in moving:
                g = g.assign_value(i, psi[i][0])
        if g.is_zero():
            continue
        need = g.total_degree() * step + 1
        while len(points) < need:
            x = field.coerce(len(points))
            points.append([psi[i].evaluate(x) for i in moving])
        if any(g.evaluate(p) for p in points[:need]):
            return False
    return True


def _derivative(g, v):
    """The directional derivative sum_i v_i * dg/dt_i."""
    out = {}
    for e, c in g.terms.items():
        for i, k in enumerate(e):
            if k and v[i]:
                f = e[:i] + (k - 1,) + e[i + 1:]
                d = c * v[i] * k
                w = out.get(f)
                out[f] = d if w is None else w + d
    return MultiPoly(g.field, g.arity, out)


def parametrize_line(gens, m, field, directions=(),
                     budget=DEFAULT_PAIR_BUDGET):
    """Degree <= 1 polynomials psi_0..psi_{m-1} tracing the unique line
    inside V(gens).

    The linear part of the ideal is tried first: its rows come back
    reduced, t_p + c*t_free + d with lead t_p, so psi is read off them.
    When lower-dimensional junk components depress it below corank one,
    the line is solved from an infinity direction v: with t_k the last
    coordinate v moves, its points p are those on the slice t_k = 0
    whose line p + s*v lies in V(gens).  By Taylor's formula in
    characteristic 0 they are the common zeros, at t_k = 0, of g,
    D_v g, D_v^2 g, ... for each generator g, D_v the derivative along
    v, so junk points off every such line drop out.  Raises
    InternalInconsistencyError when neither gives a line inside V(gens).
    """
    rows = linear_part(gens, budget)
    if len(rows) >= m:
        raise InternalInconsistencyError(
            "witness ideal has no line component")
    if len(rows) == m - 1:
        # reduced rows t_p + c*t_free + d, one per pivot variable t_p
        lead = {row.leading()[0].index(1): row for row in rows}
        free = next(i for i in range(m) if i not in lead)
        e_free = tuple(int(j == free) for j in range(m))
        zero = (0,) * m
        psi = [UniPoly(field, (-lead[i].coefficient(zero),
                               -lead[i].coefficient(e_free)))
               if i in lead else UniPoly(field, (field.zero, field.one))
               for i in range(m)]
        if _line_in_variety(gens, psi, field):
            return psi
    for v in directions:
        k = max(i for i in range(m) if v[i])
        system = []  # on the slice: t_k is set to 0
        for g in gens:
            while not g.is_zero():
                system.append(g.assign_value(k, field.zero))
                g = _derivative(g, v)
        try:
            sols = triangular_solve(system, m - 1, field, budget)
        except PositiveDimensionalError as exc:
            raise InternalInconsistencyError(
                "positive-dimensional line slice") from exc
        for sol in sols:
            sol = sol[:k] + (field.zero,) + sol[k:]
            psi = [UniPoly(field, (sol[i], v[i])) for i in range(m)]
            if _line_in_variety(gens, psi, field):
                return psi
    raise InternalInconsistencyError("line extraction failed")


def _center(phi):
    """b0 = -g_(e-1)/e for the monic denominator g of degree e > 0, else
    -f_(d-1)/(d*f_d) for the first nonconstant numerator f: phi(t + b0)
    has no t^(e-1) term in its denominator, or no t^(d-1) term in f."""
    f = phi.denominator
    if f.degree() == 0:
        f = next(p for p in phi.numerators if p.degree() > 0)
    d = f.degree()
    return -f[d - 1] / (f[d] * d)


def require_proper(phi):
    """Raise ValueError when phi is visibly not proper: when phi(t + b0),
    b0 from `_center`, is a function of t^m for some m > 1, that is,
    when m, the gcd of the exponents of every nonzero coefficient of its
    numerators and denominator, exceeds 1.  Then phi(t) = psi((t -
    b0)^m) for a psi, so phi traces its curve m times."""
    centered = phi.compose_affine(phi.field.one, _center(phi))
    m = 0
    for f in centered.numerators + (centered.denominator,):
        m = gcd(m, *(k for k, c in enumerate(f.coeffs) if c))
    if m > 1:
        raise ValueError("parametrization is not proper")


def _shifts(phi, tower, points):
    """Candidate shifts (a, b) of phi over tower, one per infinity
    direction v over the base K'.

    The slope a is sum v_i*gen^i.  The good shifts of a proper phi are
    (c*a, b + d*a), c, d in K', and at one the monic denominator
    g(a*t + b)/a^e lies in K'[t], so (e*b + g_(e-1))/a does: b0
    (`_center`) is a good offset.  b is b0 moved along a to the slice
    t_k = 0, k the last coordinate v moves: the point of the witness
    line there.
    """
    b0 = _center(phi)
    for v in _point_directions(points):
        k = max(i for i, c in enumerate(v) if c)
        a = tower.element(v)
        yield a, b0 - a * (b0.coeffs[k] / v[k])


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
    identity = dict(r=1, embedding=trivial_embedding(tower), witness=[],
                    infinity_points=[])
    if all(c.is_rational() for c in phi.coefficients()):
        return _close_report(phi, [AffineShift.identity(tower)], identity)
    witness, delta = witness_ideal(phi, budget)
    if not witness:
        return _close_report(phi, [AffineShift.identity(tower)], identity)
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
        return _close_report(phi, [AffineShift.identity(tower)], base_report)
    if r == 1:
        shifts = _shifts(phi, tower, pts)
    else:
        ctx = TowerContext(emb)
        phi2 = phi.map_coefficients(ctx.to_tower, ctx.tower)
        witness2, delta2 = witness_ideal(phi2, budget)
        base_report.update(relative_minpoly=ctx.tower.minpoly,
                           second_witness=witness2, second_delta=delta2)
        if not witness2:
            return _close_report(phi, [AffineShift.identity(tower)],
                                 base_report)
        pts2 = points_at_infinity(witness2, ctx.tower, budget)
        shifts = ((ctx.flatten(a), ctx.flatten(b))
                  for a, b in _shifts(phi2, ctx.tower, pts2))
    return _close_report(phi, (AffineShift(tower, a, b) for a, b in shifts),
                         base_report, "line extraction failed")


def _close_report(phi, shifts, base_report, failure="reparametrized "
                  "coefficients left the expected subfield"):
    """Success with the first shift that verifies, else failure."""
    for shift in shifts:
        expressed = verify_reparametrization(phi, shift,
                                             base_report["embedding"])
        if expressed is not None:
            return ReparamReport(status="success", shift=shift,
                                 reparametrized=expressed, **base_report)
    raise InternalInconsistencyError(failure)
