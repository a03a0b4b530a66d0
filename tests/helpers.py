"""Shared test utilities: repo paths, parsing shorthands, random
generators, and reference algebra that only tests use."""

from fractions import Fraction
from pathlib import Path

from hypercircle.exprparse import parse_fraction
from hypercircle.fields import QQ
from hypercircle.mpoly import GREVLEX, MultiPoly
from hypercircle.upoly import RationalFunction, UniPoly


def repo_root():
    return Path(__file__).resolve().parent.parent


def input_path(name):
    return repo_root() / "inputs" / name


def parse_gens(strings, nvars):
    """Ideal generators over QQ from expression strings in t0..t{nvars-1}."""
    names = tuple(f"t{i}" for i in range(nvars))
    out = []
    for s in strings:
        num, den = parse_fraction(s, names)
        assert den.is_constant() and den.constant_value() == 1, s
        out.append(num)
    return out


def mp_vars(field, n):
    return [MultiPoly.var(field, n, i) for i in range(n)]


def random_field_element(rng, field, span=3):
    """Small random element, coefficients in -span..span."""
    if field is QQ:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))
    return field.element(
        tuple(Fraction(rng.randint(-span, span)) for _ in range(field.degree))
    )


def random_unipoly(rng, field, max_deg, span=3):
    deg = rng.randint(0, max_deg)
    coeffs = [random_field_element(rng, field, span) for _ in range(deg + 1)]
    return UniPoly(field, coeffs)


def random_rational_function(rng, field, max_deg=2, span=3):
    num = random_unipoly(rng, field, max_deg, span)
    while num.is_zero():
        num = random_unipoly(rng, field, max_deg, span)
    den = random_unipoly(rng, field, max_deg, span)
    while den.is_zero():
        den = random_unipoly(rng, field, max_deg, span)
    return RationalFunction(num, den)


def gen_hom(image, dst):
    """Coefficient map into dst sending the source generator to image."""

    def fn(x):
        acc = dst.zero
        power = dst.one
        for c in x.coeffs:
            acc = acc + power * dst.coerce(c)
            power = power * image
        return acc

    return fn


def parse_field_element(s, field):
    """A single element of QQ or of a simple extension."""
    if field is QQ:
        num, den = parse_fraction(s, ())
        nc = num.constant_value() if not num.is_zero() else Fraction(0)
        dc = den.constant_value()
        return nc / dc
    num, den = parse_fraction(s, (field.name,))
    gen = field.gen()
    acc = field.zero
    for e, c in num.terms.items():
        acc = acc + field.coerce(c) * gen ** e[0]
    if den.total_degree() > 0:
        raise ValueError(f"'{s}' divides by the field generator")
    return acc / field.coerce(den.constant_value())


def spoly(f, g, order=GREVLEX):
    """The S-polynomial of f and g, by MultiPoly products."""
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    lcm = tuple(map(max, ef, eg))

    def cofactor(e, c):
        shift = tuple(a - b for a, b in zip(lcm, e))
        return MultiPoly(f.field, f.arity, {shift: f.field.one / c})

    return cofactor(ef, cf) * f - cofactor(eg, cg) * g


def substitute(p, assignment):
    """Ring homomorphism: variable index -> MultiPoly of one ring.

    Variables absent from the assignment map to themselves.
    """
    field = p.field
    arity = next(iter(assignment.values())).arity if assignment else p.arity
    out = MultiPoly.zero(field, arity)
    powers = {}
    for e, c in p.terms.items():
        term = MultiPoly.const(field, arity, c)
        for i, k in enumerate(e):
            if not k:
                continue
            pw = powers.get((i, k))
            if pw is None:
                base = assignment.get(i)
                if base is None:
                    base = MultiPoly.var(field, arity, i)
                pw = powers[i, k] = base ** k
            term = term * pw
        out = out + term
    return out


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
