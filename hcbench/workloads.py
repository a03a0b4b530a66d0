"""Seeded workloads: CLI argument lists plus what each answer must be.

Every op is one `hypercircle.cli.main(argv)` call.  Generated curves are
known-answer inputs: they are built over a subfield and then pushed into
QQ(a) by an affine shift, so the optimal field degree r is known before
the program runs.  The validity rules that make the known answer true
are enforced in each generator (see its docstring).
"""

import os
import random
from fractions import Fraction
from math import gcd

from algebra import NumberField, poly_add, poly_shift, render_poly

CURVE_COMMANDS = ("reparam", "witness", "infinity")
# Fixed conic lists.  The first two are pinned by the acceptance suite;
# crt 10 is the heaviest list that stays far from the crt 11 cliff.
FIXED_CONICS = (("prime", 4), ("crt", 6), ("crt", 10))


def golden_name(argv):
    """Key of the golden stdout for an op on a bundled or fixed input."""
    if argv[0] == "conic-fields":
        return f"conic-{'_'.join(argv[1:4])}-{argv[5]}-{argv[7]}"
    stem = os.path.splitext(os.path.basename(argv[1]))[0]
    return f"{stem}-{argv[0]}"


def _golden_op(argv):
    return {"name": golden_name(argv), "argv": argv, "check": "golden"}


def bundled_op(command, stem):
    return _golden_op([command, f"inputs/{stem}.curve", "--json"])


def fixed_conic_ops():
    return [_golden_op(["conic-fields", "1", "1", "-6", "--method", method,
                        "--count", str(count), "--json"])
            for method, count in FIXED_CONICS]


def _small_rational(rng, bound, dens):
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.choice(dens))
        if q:
            return q


def _binomial_minpoly(rng, n):
    """x^n +- p for a small prime p: irreducible by Eisenstein at p.

    Ascending coefficients.  A middle term (x^n + p*x + p) made the
    cost of one n = 4 op swing 4x between seeds, so it is left out.
    """
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    coeffs[0] = Fraction(rng.choice((2, 3, 5)) * rng.choice((-1, 1)))
    return coeffs


def render_minpoly(coeffs):
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mon = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        mag = abs(c)
        body = mon if (mag == 1 and mon) else (
            f"{mag}" if not mon else f"{mag}*{mon}")
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


def _shift_element(K, rng):
    """Random b in QQ(a) with every coordinate +-1.

    Shifts with zero or larger coordinates made the cost of one op vary
    twice as much between seeds (coefficient of variation 0.25 instead
    of 0.11 for n = 5 and for tower-r2 curves).
    """
    return tuple(Fraction(rng.choice((-1, 1))) for _ in range(K.n))


def _peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def shift_r1_curve(rng, n, degree, with_den):
    """A proper QQ curve pushed into QQ(a) by t -> t + b.

    The two polynomial numerators have coprime degrees (degree,
    degree + 1), so the parametrization is proper and the components
    are not affinely dependent.  The optional shared denominator t - c
    must not vanish at a root of either numerator, or the degrees
    drop.  The expected answer is success with r = 1.
    """
    K = NumberField(_binomial_minpoly(rng, n))
    while True:
        p1 = [Fraction(rng.randint(-3, 3)) for _ in range(degree)]
        p2 = [Fraction(rng.randint(-3, 3)) for _ in range(degree + 1)]
        p1.append(_small_rational(rng, 3, (1,)))
        p2.append(_small_rational(rng, 3, (1,)))
        c = Fraction(rng.randint(-3, 3)) if with_den else None
        if c is None or all(_peval(p, c) for p in (p1, p2)):
            break
    b = _shift_element(K, rng)
    comps = []
    for p in (p1, p2):
        s = render_poly(K, poly_shift(K, [K.const(x) for x in p], b))
        if with_den:
            s = f"({s})/({render_poly(K, [K.sub(b, K.const(c)), K.one])})"
        comps.append(s)
    return K.minpoly, comps


def tower_r2_curve(rng):
    """A conic over QQ without rational points, parametrized over the
    quadratic subfield of QQ(alpha), alpha^4 = q, then shifted by b.

    The conic is x^2 - q*y^2 = -w^2, parametrized through its point at
    infinity (sqrt q : 1 : 0): x = (t^2 - w^2)/(2t),
    y = (-w^2 - t^2)/(2*sqrt(q)*t), and moved by a random invertible
    affine map of the plane over QQ.  q carries a prime p = 3 mod 4 to
    the first power, so the Hilbert symbol (-1, q)_p = -1: there is no
    rational point and no parametrization over QQ.  q > 0 is not a
    square, so x^4 - q is irreducible and QQ(alpha^2) = QQ(sqrt q) is
    its only quadratic subfield.  The expected answer is success with
    r = 2.
    """
    p = rng.choice((3, 7, 11))
    q = p * rng.choice([k for k in (1, 2, 5) if k % p])
    w = rng.randint(1, 3)
    K = NumberField([-q, 0, 0, 0, 1])
    inv_sqrt_q = K.inv(K.pow(K.gen(), 2))
    m = K.const(-w * w)
    xnum = [m, K.zero, K.one]
    ynum = [K.mul(inv_sqrt_q, m), K.zero, K.neg(inv_sqrt_q)]
    den = [K.zero, K.const(2)]
    while True:
        e = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
        if e[0] * e[4] - e[1] * e[3]:
            break

    def image(c1, c2, c3):
        scaled = [[K.mul(K.const(c), v) for v in f]
                  for c, f in ((c1, xnum), (c2, ynum), (c3, den + [K.zero]))]
        return poly_add(K, poly_add(K, scaled[0], scaled[1]), scaled[2])

    b = _shift_element(K, rng)
    shifted_den = render_poly(K, poly_shift(K, den, b))
    comps = [f"({render_poly(K, poly_shift(K, f, b))})/({shifted_den})"
             for f in (image(*e[:3]), image(*e[3:]))]
    return K.minpoly, comps


def hypercircle_op(rng, n, idx):
    """`hypercircle <minpoly> <unit>` for a unit with c irrational."""
    K = NumberField(_binomial_minpoly(rng, n))
    while True:
        a, b, c, d = (K.const(_small_rational(rng, 3, (1, 1, 2, 3)))
                      for _ in range(4))
        c = K.add(c, K.gen())
        if any(K.sub(K.mul(a, d), K.mul(b, c))):
            break
    unit = (f"({K.render(a)}*t + {K.render(b)})"
            f"/({K.render(c)}*t + {K.render(d)})")
    return {"name": f"hc-{idx:02d}-n{n}",
            "argv": ["hypercircle", render_minpoly(K.minpoly), unit,
                     "--json"],
            "check": "hypercircle", "field": _field_json(K.minpoly),
            "unit": unit}


def conic_ops(rng, idx, counts):
    """One seeded conic a*x^2 + b*y^2 + c through every (method, count)."""
    while True:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        c = -rng.randint(1, 12)
        if gcd(gcd(a, b), c) == 1:
            break
    return [{"name": f"conic-{idx:02d}-{method}{count}",
             "argv": ["conic-fields", str(a), str(b), str(c), "--method",
                      method, "--count", str(count), "--json"],
             "check": "conic"}
            for method, count in counts]


def _field_json(minpoly):
    """Ascending minimal polynomial coefficients, as JSON strings."""
    return [str(c) for c in minpoly]


def _curve_ops(workdir, name, r, minpoly, comps, commands):
    path = os.path.join(workdir, f"{name}.curve")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# known answer: success, r = {r}\n")
        fh.write(f"minpoly = {render_minpoly(minpoly)}\n")
        for i, comp in enumerate(comps, start=1):
            fh.write(f"x{i} = {comp}\n")
    return [{"name": f"{name}-{command}", "curve": name,
             "argv": [command, path, "--json"], "check": "curve",
             "r": r, "field": _field_json(minpoly), "components": comps}
            for command in commands]


# (n, numerator degree, shared denominator, inputs per pass).  With a
# denominator, n = 4 keeps numerator degrees (1, 2): degrees (2, 3) took
# 2-8 s per op, and n = 5 with one took over 20 s (NOTES.md, cliffs).
SHIFT_R1_MIX = ((2, 2, False, 5), (2, 2, True, 4),
                (3, 2, False, 5), (3, 2, True, 4),
                (4, 2, False, 6), (4, 1, True, 4),
                (5, 2, False, 6))
HYPERCIRCLE_NS = (3, 5, 7)
TOWER_R2_CURVES = 6
SEEDED_CONICS = 24
CONIC_COUNTS = (("prime", 4), ("crt", 6))


def _build_shift_r1(rng, workdir):
    ops = [bundled_op("reparam", "gaussian_cusp"),
           bundled_op("reparam", "gaussian_twist")]
    idx = 0
    for n, degree, with_den, count in SHIFT_R1_MIX:
        for _ in range(count):
            minpoly, comps = shift_r1_curve(rng, n, degree, with_den)
            name = f"r1-{idx:02d}-n{n}{'-den' if with_den else ''}"
            ops += _curve_ops(workdir, name, 1, minpoly, comps,
                              ("reparam",))
            idx += 1
    for i, n in enumerate(HYPERCIRCLE_NS):
        ops.append(hypercircle_op(rng, n, i))
    return ops


def _build_tower_r2(rng, workdir):
    ops = [bundled_op(c, "quartic") for c in CURVE_COMMANDS]
    for i in range(TOWER_R2_CURVES):
        minpoly, comps = tower_r2_curve(rng)
        ops += _curve_ops(workdir, f"r2-{i:02d}", 2, minpoly, comps,
                          CURVE_COMMANDS)
    return ops


def _build_conics(rng, workdir):
    ops = fixed_conic_ops()
    for i in range(SEEDED_CONICS):
        ops += conic_ops(rng, i, CONIC_COUNTS)
    return ops


GENERATORS = {"shift-r1": _build_shift_r1, "tower-r2": _build_tower_r2,
            "conics": _build_conics}


def build(workload, seed, workdir):
    """The op list of a workload; curve files are written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](rng, workdir)
