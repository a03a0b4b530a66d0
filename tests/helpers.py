"""Shared test utilities: repo paths, parsing shorthands, random
generators, and reference algebra that only tests use."""

from fractions import Fraction
from math import comb, gcd
from operator import itemgetter
from pathlib import Path

from hypercircle.exprparse import parse_fraction
from hypercircle.fields import QQ
from hypercircle.groebner import (_MAX_DEGREE, DEFAULT_PAIR_BUDGET,
                                  GroebnerBasis, PairBudgetExceededError,
                                  PositiveDimensionalError, _check, _packed,
                                  _primitive, buchberger, is_groebner_unit,
                                  triangular_solve)
from hypercircle.hypercircles import (InternalInconsistencyError,
                                      ProjectivePoint)
from hypercircle.mpoly import GREVLEX, MultiPoly, Packing, addmul
from hypercircle.numtheory import clear_denominators, factorize, is_prime
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


def random_ecm_composite(rng):
    """(n, {prime: exponent}) for a product of 2-4 primes of 20-45 bits,
    60-100 bits in all, that ECM has to split.

    A factor repeats an earlier one with probability 1/4.
    """
    while True:
        primes = []
        for _ in range(rng.randint(2, 4)):
            if primes and rng.random() < 0.25:
                primes.append(rng.choice(primes))
            else:
                bits = rng.randint(20, 45)
                primes.append(_random_prime(rng, 1 << (bits - 1), 1 << bits))
        factors = {}
        n = 1
        for p in primes:
            factors[p] = factors.get(p, 0) + 1
            n *= p
        if 60 <= n.bit_length() <= 100:
            return n, factors


def _random_prime(rng, lo, hi):
    """The first prime from a random start in [lo, hi)."""
    x = rng.randrange(lo, hi)
    while not is_prime(x):
        x += 1
    return x


def random_composite(rng):
    """(n, {prime: exponent}) for a product of 2-4 primes, about 80 bits
    in all, that Pollard rho has to split.

    Every factor but the last has at most 26 bits, so rho splits each
    cofactor fast.  9973 and 10007, the primes on either side of the
    trial-division bound, are drawn often; the others exceed 10^4, and a
    factor may repeat.  The last factor fills the product up to 80 bits.
    """
    primes = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if primes and roll < 0.25:
            primes.append(rng.choice(primes))
        elif roll < 0.45:
            primes.append(rng.choice((9973, 10007)))
        else:
            primes.append(_random_prime(rng, 10**4, 1 << 26))
    bits = max(80 - sum(p.bit_length() for p in primes), 15)
    primes.append(_random_prime(rng, 10**4, 1 << bits))
    factors = {}
    n = 1
    for p in primes:
        factors[p] = factors.get(p, 0) + 1
        n *= p
    return n, factors


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


def reference_mul(x, y):
    """x * y in the Fraction-tuple layout: the convolution of the base
    coordinates, folded through the tower's power table.  The integer
    numerator vectors of fields.FieldElement are checked against it."""
    f = x.field
    base = f.base
    d = f.degree
    a, b = x.coeffs, f.coerce(y).coeffs
    prod = [base.zero] * (2 * d - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                prod[i + j] = prod[i + j] + ca * cb
    out = list(prod[:d])
    table = f._power_table()
    for k in range(d, 2 * d - 1):
        c = prod[k]
        if c:
            row = table[k - d]
            for i in range(d):
                if row[i]:
                    out[i] = out[i] + c * row[i]
    return f.element(out)


def reference_inverse(x):
    """1/x in the Fraction-tuple layout: the extended gcd of x, read as
    a polynomial over the base, with the minimal polynomial."""
    if not x:
        raise ZeroDivisionError("inverse of zero field element")
    f = x.field
    base = f.base
    d, s, _ = UniPoly(base, x.coeffs).ext_gcd(f.minpoly)
    assert d.degree() == 0, "defining polynomial is not irreducible"
    return f.element(s.scale(base.one / d.constant_value()).coeffs)


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


def reference_rational_roots(f):
    """The rational roots of f over QQ, sorted, by the rational root
    theorem: a root u/v in lowest terms of the primitive integer
    multiple F of f has u dividing F(0) and v its leading coefficient,
    so v - u divides F(1) and v + u divides F(-1); a pair of divisors
    that passes those is tried by Horner's rule on v^d F(u/v)."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    roots = set()
    while not ints[0]:
        roots.add(Fraction(0))
        ints = ints[1:]

    def divisors(n):
        out = [1]
        for p, e in factorize(abs(n)).items():
            out = [d * p ** i for d in out for i in range(e + 1)]
        return out

    def divides(d, n):
        return n == 0 if d == 0 else n % d == 0

    at_one = sum(ints)
    at_minus_one = sum(ints[::2]) - sum(ints[1::2])
    for u in divisors(ints[0]):
        for v in divisors(ints[-1]):
            if gcd(u, v) != 1:
                continue
            for num, lo, hi in ((u, v - u, v + u), (-u, v + u, v - u)):
                if not (divides(lo, at_one) and divides(hi, at_minus_one)):
                    continue
                acc = 0
                v_power = 1
                for c in reversed(ints):
                    acc = acc * num + c * v_power
                    v_power *= v
                if acc == 0:
                    roots.add(Fraction(num, v))
    return sorted(roots)


def swinnerton_dyer(primes):
    """The integer coefficients, constant first, of the monic product of
    x + e_1 sqrt(p_1) + ... + e_k sqrt(p_k) over every choice of signs
    e_i: irreducible of degree 2^k over QQ, with factors of degree at
    most 2 modulo every prime.  Each step writes f(x + s), s^2 = p, as
    A + s B by Taylor's formula and takes f(x + s) f(x - s) = A^2 - p B^2.
    """
    f = [0, 1]
    for p in primes:
        halves = [[0] * len(f), [0] * len(f)]
        for j in range(len(f)):
            for i in range(j, len(f)):
                halves[j % 2][i - j] += comb(i, j) * f[i] * p ** (j // 2)
        a, b = halves
        f = [0] * (2 * len(f) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                f[i + j] += x * y
        for i, x in enumerate(b):
            for j, y in enumerate(b):
                f[i + j] -= p * x * y
    return f


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


def points_at_infinity_by_charts(gens, tower):
    """Reference for hypercircles.points_at_infinity: the first chart
    x_k = 1, k from the last coordinate down, of the homogenized basis
    at h = 0 that has points over the tower, each chart solved by its own
    lex basis over the other m - 1 coordinates."""
    gb = buchberger(gens, GREVLEX)
    if not gb:
        raise InternalInconsistencyError(
            "unexpected positive-dimensional infinity")
    if is_groebner_unit(gb):
        return []
    base = tower.base
    m = gb[0].arity
    sliced = [g.homogenize().assign_value(m, base.zero) for g in gb]
    for k in range(m - 1, -1, -1):
        system = [g.assign_value(k, base.one) for g in sliced]
        try:
            sols = triangular_solve(system, m - 1, tower)
        except PositiveDimensionalError as exc:
            raise InternalInconsistencyError(
                "unexpected positive-dimensional infinity") from exc
        if sols:
            points = [ProjectivePoint(tower, list(sol[:k]) + [base.one]
                                      + list(sol[k:]) + [base.zero])
                      for sol in sols]
            return sorted(points, key=ProjectivePoint.sort_key)
    return []


# The Buchberger engine as it was before the reducer memo and the term
# kernel, kept verbatim as the reference that tests/test_groebner.py
# compares `groebner.buchberger` with: the same bases, and the same
# S-pairs reduced (the same smallest sufficient budget).

def _reduce_full(terms, basis, lms, tops, pk):
    """Remainder of packed terms modulo a monic basis, fully
    tail-reduced.  tops[i] is the largest degree of basis[i]."""
    guard = pk.guard
    work = dict(terms)
    rem = {}
    while work:
        e = max(work)
        for i, m in enumerate(lms):
            if not (e - m) & guard:
                break
        else:
            rem[e] = work.pop(e)
            continue
        shift = e - m
        _check(pk, pk.degree(shift) + tops[i])
        addmul(work, {shift: -work[e]}, basis[i])
    return rem


def _pseudo_reduce(terms, basis, lms, tops, pk):
    """A positive integer multiple of the remainder of packed integer
    terms modulo a basis of integer polynomials with positive leading
    coefficients, fully tail-reduced without fractions."""
    guard = pk.guard
    work = dict(terms)
    rem = {}
    while work:
        e = max(work)
        for i, m in enumerate(lms):
            if not (e - m) & guard:
                break
        else:
            rem[e] = work.pop(e)
            continue
        shift = e - m
        _check(pk, pk.degree(shift) + tops[i])
        c, lc = work[e], basis[i][m]
        g = gcd(c, lc)
        if g != lc:
            s = lc // g
            work = {k: s * v for k, v in work.items()}
            rem = {k: s * v for k, v in rem.items()}
        addmul(work, {shift: -(c // g)}, basis[i])
    return rem


def reference_buchberger(gens, order=GREVLEX, budget=DEFAULT_PAIR_BUDGET):
    """Reduced Groebner basis, monic, sorted ascending by leading monomial.

    A GroebnerBasis already reduced in `order` is returned as it is.
    `budget` bounds the S-pairs actually reduced; pairs that the
    Gebauer-Moeller criteria discard cost nothing.  Raises
    PairBudgetExceededError when one more reduction would exceed it, or
    when a monomial's degree would exceed the packed exponent bound.
    """
    if isinstance(gens, GroebnerBasis) and gens.order == order:
        return gens
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), order)
    # imported here, so that commands without Groebner work do not load it
    from heapq import heappop, heappush

    field, arity = gens[0].field, gens[0].arity
    pk = Packing(arity, _MAX_DEGREE, order)
    guard, degree = pk.guard, pk.degree
    qq = field.height == 0  # QQ is the only field of height 0
    if qq:
        # primitive integer polynomials with positive leading coefficients
        reduce, normalize = _pseudo_reduce, _primitive
        inputs = [dict(zip(g.terms, clear_denominators(g.terms.values())[0]))
                  for g in gens]
    else:
        # monic polynomials over the field
        reduce, inputs = _reduce_full, [g.terms for g in gens]

        def normalize(terms, e):
            c = terms[e]
            if c == field.one:
                return terms
            inv = field.one / c
            return {k: inv * v for k, v in terms.items()}
    basis, lms, raws, tops, sugars = [], [], [], [], []
    active = []  # indices that still take part in new pairs
    pairs = {}  # pending pair (i, j) -> lcm of its leading monomials
    queue = []  # heap of (sugar, deg lcm, lcm, i, j); an entry whose pair
    # has left `pairs` is skipped

    def add(terms, sugar):
        """Normalize `terms` and join it to the basis: the
        Gebauer-Moeller update of the pending pairs."""
        lh = max(terms)
        terms = normalize(terms, lh)
        h = len(basis)
        rh = pk.unpack(lh)
        dh = sum(rh)

        def lcm_h(g):
            lcm = tuple(map(max, raws[g], rh))
            _check(pk, sum(lcm))
            return pk.pack(lcm)

        # a pending pair whose lcm lm(h) divides, and which shares its lcm
        # with neither pair (i, h) nor (j, h), is redundant
        for (i, j), lcm in list(pairs.items()):
            if (not (lcm - lh) & guard and lcm_h(i) != lcm
                    and lcm_h(j) != lcm):
                del pairs[i, j]
        # one new pair per lcm; none for an lcm shared by a coprime pair
        new = {}
        for g in active:
            lcm = lcm_h(g)
            if lcm == lms[g] + lh:
                new[lcm] = None
            else:
                new.setdefault(lcm, g)
        for lcm, g in new.items():
            if g is None or any(m != lcm and not (lcm - m) & guard
                                for m in new):
                continue
            d = degree(lcm)
            s = max(sugars[g] + d - degree(lms[g]), sugar + d - dh)
            pairs[g, h] = lcm
            heappush(queue, (s, d, lcm, g, h))
        active[:] = [g for g in active if (lms[g] - lh) & guard]
        active.append(h)
        basis.append(terms)
        lms.append(lh)
        raws.append(rh)
        tops.append(max(map(degree, terms)))
        sugars.append(sugar)

    for g, terms in zip(gens, inputs):
        add(_packed(pk, terms), g.total_degree())
    count = 0
    while queue:
        sugar, _, _, i, j = heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        count += 1
        if count > budget:
            raise PairBudgetExceededError(
                f"S-pair budget of {budget} exceeded with {len(basis)} "
                f"polynomials in the basis")
        # (c_j / g) m_i f_i - (c_i / g) m_j f_j; over a field c_i = c_j = 1
        ci, cj = basis[i][lms[i]], basis[j][lms[j]]
        if qq:
            g = gcd(ci, cj)
            ci, cj = ci // g, cj // g
        d = degree(lcm)
        _check(pk, d - degree(lms[i]) + tops[i])
        _check(pk, d - degree(lms[j]) + tops[j])
        s = {}
        addmul(s, {lcm - lms[i]: cj}, basis[i])
        addmul(s, {lcm - lms[j]: -ci}, basis[j])
        rem = reduce(s, basis, lms, tops, pk)
        if rem:
            add(rem, sugar)
    reduced = _interreduce([basis[g] for g in active],
                           [lms[g] for g in active],
                           [tops[g] for g in active], pk, reduce)
    unpack = pk.unpack
    if qq:
        from fractions import Fraction
        reduced = [{unpack(e): Fraction(v, terms[lm])
                    for e, v in terms.items()} for terms, lm in reduced]
    else:
        reduced = [{unpack(e): v for e, v in terms.items()}
                   for terms, _ in reduced]
    return GroebnerBasis([MultiPoly(field, arity, terms, _clean=True)
                          for terms in reduced], order)


def _interreduce(polys, leads, tops, pk, reduce):
    """(terms, leading monomial) of the reduced basis of the ideal that a
    Groebner basis spans, ascending.  Tails are reduced with `reduce`,
    which leaves each element monic over a field and a positive integer
    multiple of monic over QQ."""
    guard = pk.guard
    # minimalize: drop polynomials whose lead is divisible by another lead
    keep, kept_leads, kept_tops = [], [], []
    for lm, p, top in sorted(zip(leads, polys, tops), key=itemgetter(0)):
        if any(not (lm - l) & guard for l in kept_leads):
            continue
        keep.append(p)
        kept_leads.append(lm)
        kept_tops.append(top)
    # tail-reduce each against the others; no lead divides another, so
    # every remainder keeps its leading monomial
    out = []
    for idx, (p, lm) in enumerate(zip(keep, kept_leads)):
        rem = reduce(p, keep[:idx] + keep[idx + 1:],
                     kept_leads[:idx] + kept_leads[idx + 1:],
                     kept_tops[:idx] + kept_tops[idx + 1:], pk)
        out.append((rem, lm))
    return out
