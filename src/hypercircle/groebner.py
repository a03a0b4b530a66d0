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

Every reduction step and both halves of each S-polynomial are one call
of the term kernel mpoly.add_multiple: work += c * x^shift * tail, where
the tail is a basis element without its leading term, whose product
cancels by construction.  One reducer, `_reduce`, serves `buchberger`,
the interreduction and `normal_form`; over QQ it adds a content step.  A
reduction step reduces the largest term of the work by the first basis
element whose leading monomial divides it.  One `buchberger` call keeps
one reducer memo for all its reductions: it maps a packed monomial to
the index of that first divisor, or to ~n when none of the first n
leading monomials divides it.  The basis of the call only grows by
appending, so a first divisor stays the first and a later lookup scans
only the elements added since: the memo picks the reducer the full scan
would pick, and it ends with the call.

Every basis computed here is a GroebnerBasis, which records its order.
Reduced bases are unique, so `buchberger` returns a GroebnerBasis in the
requested order unchanged: each ideal's basis is computed once.  The
questions asked of an ideal read that basis: `linear_part` takes its
elements of degree <= 1, `dimension` its leading monomials.
`normal_form` stays for callers with a polynomial to reduce.
"""

from math import gcd

from .mpoly import (GREVLEX, LEX, MultiPoly, Packing, add_multiple,
                    block_order)
from .numtheory import clear_denominators
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


def _tail(terms, lm):
    """The term list of a packed polynomial without its leading term."""
    return [(f, d) for f, d in terms.items() if f != lm]


def _reduce(terms, basis, lms, tails, spans, pk, memo, qq):
    """Remainder of packed terms modulo a basis, fully tail-reduced.
    Over a field the basis is monic.  With qq, terms and basis are
    integer polynomials, the basis with positive leading coefficients,
    and the result is a positive integer multiple of the remainder.
    tails[i] is _tail(basis[i], lms[i]); spans[i] is how far the largest
    degree of a term of basis[i] exceeds the degree of lms[i]; memo is
    the reducer memo of the module docstring."""
    guard, degree, bound = pk.guard, pk.degree, pk.bound
    work = dict(terms)
    rem = {}
    while work:
        e = max(work)
        i = memo.get(e)
        if i is None or i < 0:
            n = len(lms)
            for i in range(0 if i is None else ~i, n):
                if not (e - lms[i]) & guard:
                    break
            else:
                i = ~n
            memo[e] = i
            if i < 0:
                rem[e] = work.pop(e)
                continue
        m = lms[i]
        # x^shift basis[i] reaches degree deg e + spans[i]
        span = spans[i]
        if span and degree(e) + span > bound:
            _check(pk, degree(e) + span)
        c = work.pop(e)
        if qq:
            lc = basis[i][m]
            g = gcd(c, lc)
            if g != lc:
                s = lc // g
                work = {k: s * v for k, v in work.items()}
                rem = {k: s * v for k, v in rem.items()}
            c //= g
        add_multiple(work, -c, e - m, tails[i])
    return rem


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
    lms = [max(t) for t in bt]
    rem = _reduce(_packed(pk, f.terms), bt, lms,
                  [_tail(t, m) for t, m in zip(bt, lms)],
                  [g.total_degree() - pk.degree(m)
                   for g, m in zip(bs, lms)], pk, {}, False)
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
    guard, bound = pk.guard, pk.bound
    qq = field.height == 0  # QQ is the only field of height 0
    if qq:
        # primitive integer polynomials with positive leading coefficients
        normalize = _primitive
        inputs = [dict(zip(g.terms, clear_denominators(g.terms.values())[0]))
                  for g in gens]
    else:
        # monic polynomials over the field
        inputs = [g.terms for g in gens]

        def normalize(terms, e):
            c = terms[e]
            if c == field.one:
                return terms
            inv = field.one / c
            return {k: inv * v for k, v in terms.items()}
    # per basis element: terms, leading monomial packed and raw, its
    # degree, the tail, the span (see _reduce), the sugar
    basis, lms, raws, degs, tails, spans, sugars = [], [], [], [], [], [], []
    # the basis only grows, so every reduction of this call shares one
    # reducer memo (see the module docstring)
    memo = {}
    # a graded order puts a largest degree on the leading monomial
    graded = order.kind == "grevlex"
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
        lcms, lcm_degs = {}, {}  # g -> lcm(lm g, lm h) packed, its degree

        def lcm_h(g):
            lcm = lcms.get(g)
            if lcm is None:
                raw = [x if x > y else y for x, y in zip(raws[g], rh)]
                d = lcm_degs[g] = sum(raw)
                if d > bound:
                    _check(pk, d)
                lcm = lcms[g] = pk.pack(raw)
            return lcm

        # a pending pair whose lcm lm(h) divides, and which shares its lcm
        # with neither pair (i, h) nor (j, h), is redundant
        for (i, j), lcm in [item for item in pairs.items()
                            if not (item[1] - lh) & guard]:
            if lcm_h(i) != lcm and lcm_h(j) != lcm:
                del pairs[i, j]
        # one new pair per lcm; none for an lcm shared by a coprime pair
        new = {}
        for g in active:
            lcm = lcm_h(g)
            if lcm == lms[g] + lh:
                new[lcm] = None
            else:
                new.setdefault(lcm, g)
        # every divisor of lcm comes before it in the order, so the first
        # divisor in ascending order is lcm itself unless lcm has another
        ordered = sorted(new)
        for lcm, g in new.items():
            if g is None:
                continue
            for m in ordered:
                if not (lcm - m) & guard:
                    break
            if m != lcm:
                continue
            d = lcm_degs[g]
            s = max(sugars[g] + d - degs[g], sugar + d - dh)
            pairs[g, h] = lcm
            heappush(queue, (s, d, lcm, g, h))
        active[:] = [g for g in active if (lms[g] - lh) & guard]
        active.append(h)
        basis.append(terms)
        lms.append(lh)
        raws.append(rh)
        degs.append(dh)
        tails.append(_tail(terms, lh))
        spans.append(0 if graded else pk.max_degree(terms) - dh)
        sugars.append(sugar)

    for g, terms in zip(gens, inputs):
        add(_packed(pk, terms), g.total_degree())
    count = 0
    while queue:
        sugar, d, lcm, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        count += 1
        if count > budget:
            raise PairBudgetExceededError(
                f"S-pair budget of {budget} exceeded with {len(basis)} "
                f"polynomials in the basis")
        # (c_j / g) m_i f_i - (c_i / g) m_j f_j; over a field c_i = c_j = 1.
        # The leading terms cancel, so only the tails are multiplied.
        ci, cj = basis[i][lms[i]], basis[j][lms[j]]
        if qq:
            g = gcd(ci, cj)
            ci, cj = ci // g, cj // g
        _check(pk, d + spans[i])
        _check(pk, d + spans[j])
        s = {}
        add_multiple(s, cj, lcm - lms[i], tails[i])
        add_multiple(s, -ci, lcm - lms[j], tails[j])
        rem = _reduce(s, basis, lms, tails, spans, pk, memo, qq)
        if rem:
            add(rem, sugar)
    reduced = _interreduce(basis, lms, tails, spans, active, pk, qq)
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


def _interreduce(basis, lms, tails, spans, active, pk, qq):
    """(terms, leading monomial) of the reduced basis of the ideal
    generated by the Groebner basis basis[g], g in active, ascending.
    Tails are reduced with `_reduce`, which leaves each element monic
    over a field and a positive integer multiple of monic over QQ."""
    guard = pk.guard
    # minimalize: drop polynomials whose lead is divisible by another lead
    keep = []
    for g in sorted(active, key=lms.__getitem__):
        if any(not (lms[g] - lms[k]) & guard for k in keep):
            continue
        keep.append(g)
    # tail-reduce each against the others; no lead divides another, so
    # every remainder keeps its leading monomial.  A term below lm(g) is
    # not divisible by lm(g), so reducing g by all kept elements is
    # reducing it by the others once its own lead is marked irreducible,
    # and all of them share one reducer memo.
    kept = [[seq[g] for g in keep] for seq in (basis, lms, tails, spans)]
    memo = {}
    out = []
    for idx, g in enumerate(keep):
        memo[lms[g]] = ~len(keep)
        out.append((_reduce(basis[g], *kept, pk, memo, qq), lms[g]))
        memo[lms[g]] = idx
    return out


def is_groebner_unit(gb):
    return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()


def ideal_equal(gens1, gens2, order=GREVLEX, budget=DEFAULT_PAIR_BUDGET):
    """Two generator lists span the same ideal: their reduced bases agree."""
    return buchberger(gens1, order, budget) == buchberger(gens2, order, budget)


def eliminate(gens, k, budget=DEFAULT_PAIR_BUDGET):
    """Reduced grevlex basis of the elimination ideal without the first k
    variables: the k-free part of the reduced block-order basis.

    In the block order every monomial free of the first k variables lies
    below every other, and among those it is grevlex.  So the elements
    free of them are a prefix of the ascending block basis, already in
    ascending grevlex order."""
    gb = buchberger(gens, block_order(k), budget)
    out = []
    for g in gb:
        if any(any(e[:k]) for e in g.terms):
            break
        out.append(g.drop_vars(range(k)))
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

    Read off the reduced grevlex basis: under a graded order a member of
    degree <= 1 reduces to zero only by basis elements of degree <= 1,
    so those span the linear part, and being reduced and monic they are
    already in RREF over the columns t0 > t1 > ... > 1 (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 9).  The basis
    is ascending, so the rows come back reversed, in pivot order.  The
    unit ideal gives the rows t0, ..., t_{n-1}, 1.
    """
    gb = buchberger(gens, GREVLEX, budget)
    if is_groebner_unit(gb):
        field, n = gb[0].field, gb[0].arity
        return [MultiPoly.var(field, n, i) for i in range(n)] + [
            MultiPoly.const(field, n, field.one)]
    return [g for g in reversed(gb) if g.total_degree() <= 1]


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
