"""Descent of a rational parametrization to the base field.

Substituting t = t0 + a*t1 + ... + a^(n-1)*t_{n-1} into a component f/g
over L(a) and expanding in powers of the generator splits it into n
coordinate functions F_i / delta over L.  The shared denominator delta is
the norm of the substituted g, so it is independent of the component.
The witness ideal collects the coordinate numerators for the powers
a^1..a^(n-1) and saturates away the spurious locus delta = 0.
"""

from .groebner import DEFAULT_PAIR_BUDGET, saturate
from .mpoly import MultiPoly
from .upoly import RationalFunction, UniPoly
from .upoly import sylvester_resultant_lists


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


def alpha_layers(p, ext):
    """The n base-field coordinates of p along powers of the generator."""
    n = ext.n
    layers = [dict() for _ in range(n)]
    for e, c in p.terms.items():
        cc = ext.tower.coerce(c)
        for k, ck in enumerate(cc.coeffs):
            if ck:
                layers[k][e] = ck
    return [MultiPoly(ext.base, p.arity, lay, _clean=True)
            for lay in layers]


def _substitute_unipoly(f, s, tower):
    """f evaluated at the polynomial s, by Horner."""
    arity = s.arity
    acc = MultiPoly.const(tower, arity, f[f.degree()])
    for k in range(f.degree() - 1, -1, -1):
        acc = acc * s + MultiPoly.const(tower, arity, f[k])
    return acc


def _norm_and_cofactor(den, ext):
    """(delta, delta/den) with delta = Res_x(M(x), den written in x)."""
    layers = alpha_layers(den, ext)
    while len(layers) > 1 and layers[-1].is_zero():
        layers.pop()
    arity = den.arity
    zero = MultiPoly.zero(ext.base, arity)
    one = MultiPoly.const(ext.base, arity, ext.base.one)
    mc = [MultiPoly.const(ext.base, arity, c)
          for c in ext.tower.minpoly.coeffs]
    delta = sylvester_resultant_lists(mc, layers, zero, one)
    if delta.is_zero():
        raise ArithmeticError("vanishing norm of a nonzero denominator")
    cofactor = lift_to_tower(delta, ext.tower).exact_div(den)
    return delta, cofactor


def alpha_decompose(num, den, ext):
    """Coordinates of num/den along generator powers, over the base.

    Returns (components, delta) with sum_i a^i * components[i] equal to
    num * (delta / den) identically, so num/den = sum_i a^i comp_i/delta.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    delta, cofactor = _norm_and_cofactor(den, ext)
    return alpha_layers(num * cofactor, ext), delta


class DescentResult:
    """Coordinate numerators of every component over one denominator.

    numerators[j][i] is the coefficient of a^i in component j; delta is
    the shared denominator, a base-field polynomial.
    """

    __slots__ = ("extension", "numerators", "delta", "substituted_num",
                 "substituted_den")

    def __init__(self, extension, numerators, delta, substituted_num,
                 substituted_den):
        self.extension = extension
        self.numerators = numerators
        self.delta = delta
        self.substituted_num = substituted_num
        self.substituted_den = substituted_den


def weil_substitute(phi, ext):
    """Descend every component of phi along the extension's generator."""
    if phi.field is not ext.tower:
        raise ValueError("parametrization field does not match extension")
    s = ext.substitution()
    sub_den = _substitute_unipoly(phi.denominator, s, ext.tower)
    delta, cofactor = _norm_and_cofactor(sub_den, ext)
    numerators = []
    sub_nums = []
    for f in phi.numerators:
        p = _substitute_unipoly(f, s, ext.tower)
        sub_nums.append(p)
        numerators.append(alpha_layers(p * cofactor, ext))
    return DescentResult(ext, numerators, delta, sub_nums, sub_den)


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
