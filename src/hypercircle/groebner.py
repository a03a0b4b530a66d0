"""Buchberger engine and ideal operations over exact fields.

Deterministic throughout.  Pending S-pairs sit in a heap and are chosen
by sugar (Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC 1991), ties
broken by lcm; the Gebauer-Moeller update (JSC 6, 1988) prunes them as
each polynomial joins the basis.  Bases are monic, reduced and sorted
ascending by leading monomial.  A hard budget on the S-pairs actually
reduced turns runaway computations into an error instead of a wrong
answer.

Over QQ the computation is fraction-free: generators are cleared of
denominators, S-polynomials and reductions use integer cofactors
(pseudo-division), and each new basis element is made primitive with a
positive leading coefficient.  Only the returned basis is turned into
monic Fraction polynomials.  Scaling by a nonzero constant moves no
leading monomial, so this reduces the same S-pairs, in the same order,
as monic arithmetic would.  Over a FieldTower the basis stays monic over
its field.

Inside the engine each monomial is one packed int (mpoly.Packing, with
the order's fields), encoded once on entry and decoded when the
GroebnerBasis is built: the product of monomials is an int sum,
divisibility one subtract-and-mask, and the monomial order plain int
comparison.  The engine packs with the fixed bound _MAX_DEGREE and
checks every degree it reaches against it: past the bound it raises
PairBudgetExceededError, so no field wraps.

Every basis computed here is a GroebnerBasis, which records its order.
Reduced bases are unique, so `buchberger` returns a GroebnerBasis in the
requested order unchanged: each ideal's basis is computed once.
"""

from math import gcd
from operator import itemgetter

from .mpoly import GREVLEX, LEX, MultiPoly, Packing, addmul, block_order
from .upoly import UniPoly

DEFAULT_PAIR_BUDGET = 100000


class GroebnerBasis(list):
    """A reduced Groebner basis and the monomial order it is reduced in."""

    __slots__ = ("order",)

    def __init__(self, polys, order):
        super().__init__(polys)
        self.order = order


class PairBudgetExceededError(RuntimeError):
    """The S-pair budget ran out before the basis stabilized."""


class PositiveDimensionalError(ArithmeticError):
    """A system expected to be zero-dimensional is not: an internal
    failure, not bad input."""


# The degree bound of the engine's packing, which fixes its field width.
_MAX_DEGREE = (1 << 15) - 1


def _check(pk, degree):
    if degree > pk.bound:
        raise PairBudgetExceededError(
            f"monomial degree {degree} exceeds the packed exponent "
            f"bound of {pk.bound}")


def _packed(pk, terms):
    """A term dict with packed monomials, within the packed bound."""
    _check(pk, max(map(sum, terms), default=0))
    return pk.terms(terms)


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


def _integer_terms(terms):
    """Rational terms times the lcm of their denominators."""
    den = 1
    for c in terms.values():
        den = den // gcd(den, c.denominator) * c.denominator
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}


def _primitive(terms, e):
    """Integer terms divided by their content, positive at e."""
    g = gcd(*terms.values())
    if terms[e] < 0:
        g = -g
    if g == 1:
        return terms
    return {k: v // g for k, v in terms.items()}


def normal_form(f: MultiPoly, basis, order=GREVLEX):
    """Unique remainder of f modulo the given polynomials.

    The basis is made monic internally; pass a Groebner basis if you rely
    on canonicity of the remainder.
    """
    pk = Packing(f.arity, _MAX_DEGREE, order)
    bs = [g.monic(order) for g in basis if not g.is_zero()]
    bt = [_packed(pk, g.terms) for g in bs]
    rem = _reduce_full(_packed(pk, f.terms), bt, [max(t) for t in bt],
                       [g.total_degree() for g in bs], pk)
    return MultiPoly(f.field, f.arity,
                     {pk.unpack(e): c for e, c in rem.items()}, _clean=True)


def buchberger(gens, order=GREVLEX, budget=DEFAULT_PAIR_BUDGET):
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
        inputs = [_integer_terms(g.terms) for g in gens]
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


def is_groebner_unit(gb):
    return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()


def ideal_equal(gens1, gens2, order=GREVLEX, budget=DEFAULT_PAIR_BUDGET):
    """Two generator lists span the same ideal: their reduced bases agree."""
    return buchberger(gens1, order, budget) == buchberger(gens2, order, budget)


def eliminate(gens, k, budget=DEFAULT_PAIR_BUDGET):
    """Reduced grevlex basis of the elimination ideal without the first k
    variables: the k-free part of the reduced block-order basis."""
    gb = buchberger(gens, block_order(k), budget)
    out = []
    for g in gb:
        lm = g.leading(block_order(k))[0]
        if any(lm[:k]):
            continue
        out.append(g.drop_vars(range(k)))
    out.sort(key=lambda p: GREVLEX.key(p.leading(GREVLEX)[0]))
    return GroebnerBasis(out, GREVLEX)


def saturate(gens, f, budget=DEFAULT_PAIR_BUDGET):
    """Saturation I : f^infinity via the extra-variable trick.

    Adds z with 1 - z*f and eliminates it; the output lives back in the
    original variables.
    """
    if f.is_zero():
        raise ValueError("saturation by zero")
    field, arity = f.field, f.arity
    shifted = [g.insert_vars(0, 1) for g in gens]
    z = MultiPoly.var(field, arity + 1, 0)
    one = MultiPoly.const(field, arity + 1, field.one)
    shifted.append(one - z * f.insert_vars(0, 1))
    return eliminate(shifted, 1, budget)


def dimension(gens, budget=DEFAULT_PAIR_BUDGET):
    """Krull dimension of the affine variety of the ideal.

    Computed as the largest set of variables independent modulo the
    leading term ideal; the unit ideal gives -1, the zero ideal the full
    ambient dimension.
    """
    gb = buchberger(gens, GREVLEX, budget)
    if not gb:
        first = next(iter(gens), None)
        if first is None:
            raise ValueError("dimension of an ideal with no generators")
        return first.arity
    n = gb[0].arity
    lms = [g.leading(GREVLEX)[0] for g in gb]
    supports = [frozenset(i for i, v in enumerate(lm) if v) for lm in lms]
    if frozenset() in supports:
        return -1
    best = -1
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if len(s) <= best:
            continue
        if all(not sup <= s for sup in supports):
            best = len(s)
    return best


def linear_part(gens, budget=DEFAULT_PAIR_BUDGET):
    """RREF basis of the degree <= 1 polynomials inside the ideal.

    Exact linear algebra on normal forms of 1, t0, t1, ... against a
    grevlex basis; degree-compatible orders keep those normal forms
    inside the affine-linear span.
    """
    gb = buchberger(gens, GREVLEX, budget)
    if not gb:
        return []
    field = gb[0].field
    n = gb[0].arity
    basis_vecs = []
    zero_e = (0,) * n
    for idx in range(n + 1):
        if idx < n:
            probe = MultiPoly.var(field, n, idx)
        else:
            probe = MultiPoly.const(field, n, field.one)
        nf = normal_form(probe, gb, GREVLEX)
        if nf.total_degree() > 1:
            raise ArithmeticError("normal form left the linear span")
        vec = []
        for col in range(n + 1):
            if col < n:
                e = tuple(1 if i == col else 0 for i in range(n))
            else:
                e = zero_e
            vec.append(nf.terms.get(e, field.zero))
        basis_vecs.append(vec)
    from .linalg import nullspace, rref
    A = [[basis_vecs[r][c] for r in range(n + 1)] for c in range(n + 1)]
    combos = nullspace(A, n + 1, field)
    if not combos:
        return []
    reduced, _ = rref(combos, field)
    out = []
    for row in reduced:
        terms = {}
        for i in range(n):
            if row[i]:
                e = tuple(1 if j == i else 0 for j in range(n))
                terms[e] = row[i]
        if row[n]:
            terms[zero_e] = row[n]
        if terms:
            out.append(MultiPoly(field, n, terms, _clean=True))
    return out


def rational_solutions(eqs, nvars, budget=DEFAULT_PAIR_BUDGET):
    """All rational points of a zero-dimensional system over QQ, sorted."""
    from .fields import QQ
    return triangular_solve(eqs, nvars, QQ, budget)


def triangular_solve(gens, nvars, target, budget=DEFAULT_PAIR_BUDGET):
    """Points of a zero-dimensional ideal with coordinates in target.

    The generators' coefficients must coerce into target.  Lex
    triangularization then back substitution, each level solved by
    roots_in_field over target; solutions are tuples of target elements
    in variable order, canonically sorted.
    """
    from .fields import roots_in_field

    gb = buchberger(gens, LEX, budget)
    if not gb:
        if nvars == 0:
            return [()]
        raise PositiveDimensionalError("zero ideal has no isolated points")
    if nvars == 0 or is_groebner_unit(gb):
        return []
    # zero-dimensionality: every variable needs a pure power leading term
    lms = [g.leading(LEX)[0] for g in gb]
    for v in range(nvars):
        if not any(lm[v] and all(x == 0 for i, x in enumerate(lm) if i != v)
                   for lm in lms):
            raise PositiveDimensionalError(
                "system is not zero-dimensional")
    levels = [[] for _ in range(nvars)]
    for g in gb:
        lowest = min(g.variables())
        levels[lowest].append(g)
    partials = [()]  # values for variables lowest+1 .. nvars-1, reversed in
    # the sense that index 0 of the tuple is variable v+1
    for v in range(nvars - 1, -1, -1):
        new_partials = []
        for part in partials:
            values = {v + 1 + i: part[i] for i in range(len(part))}
            gpoly = None
            for g in levels[v]:
                coeffs = _eval_to_unipoly(g, v, values, target)
                poly = UniPoly(target, coeffs)
                if poly.is_zero():
                    continue
                gpoly = poly if gpoly is None else gpoly.gcd(poly)
                if gpoly.degree() == 0:
                    break
            if gpoly is None:
                raise PositiveDimensionalError(
                    "free variable in a supposedly zero-dimensional system")
            if gpoly.degree() == 0:
                continue
            for root in roots_in_field(gpoly, target):
                new_partials.append((root,) + part)
        partials = new_partials
        if not partials:
            return []
    sols = partials
    sols.sort(key=_solution_key)
    return sols


def _solution_key(sol):
    from .fields import canonical_key
    return tuple(canonical_key(c) for c in sol)


def _eval_to_unipoly(g: MultiPoly, v, values, target):
    """Coefficient list of g in variable v after substituting the known
    higher variables with target-field values."""
    deg = g.degree_in(v)
    coeffs = [target.zero] * (deg + 1)
    for e, c in g.terms.items():
        val = target.coerce(c)
        for j, k in enumerate(e):
            if j == v or not k:
                continue
            val = val * values[j] ** k
        if val:
            coeffs[e[v]] = coeffs[e[v]] + val
    return coeffs
