"""Dense polynomials over GF(p), and the one factor search over ZZ.

A polynomial is a list of ints in [0, p), ascending, with no trailing
zero; the zero polynomial is the empty list.  Only what the modular
certificates of `upoly` and `fields` use is here: products, remainders,
monic gcds, powers modulo a polynomial, square roots modulo p
(Tonelli-Shanks), and one factoring path for a squarefree polynomial
(von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 14):
`distinct_degree` splits it into the products of its irreducible
factors of each degree, and `equal_degree` splits each product through
the trace map into Berlekamp's split subalgebra, whose minimal
polynomials it solves by the quadratic formula or by quadratic-character
splits; a product of linear factors it solves that way directly.
`mul`, `add`, `sub` and `divrem` work modulo a power of p as they do
modulo p.

Over ZZ a polynomial is a primitive squarefree list of ints, ascending;
`clear_denominators` (from `numtheory`) gives it for a monic one over
QQ.  `degree_patterns` reads the degrees a factor may have off its
factorizations modulo a few primes, and `factor_zz` factors it modulo
the best of them, lifts that factorization to a power of p
(`hensel_lift`) and recombines the lifted factors (ch. 15).
Irreducibility over QQ, the Trager norm over QQ(a) and the rational
roots of `upoly` all come from this one search.
"""

import math
import random
from functools import lru_cache
from itertools import chain

from .numtheory import SearchCapExceededError, is_prime

# The 32 largest primes below 2^15.  Every certificate holds for any
# prime; a small one keeps residues and their products in one or two
# 30-bit digits of a Python int and needs few squarings for x^p, and a
# common factor or a vanishing leading coefficient that appears only
# modulo p, which sends a caller to its exact path, has odds near 1/p.
PRIMES = (
    32749, 32719, 32717, 32713, 32707, 32693, 32687, 32653, 32647, 32633,
    32621, 32611, 32609, 32603, 32587, 32579, 32573, 32569, 32563, 32561,
    32537, 32533, 32531, 32507, 32503, 32497, 32491, 32479, 32467, 32443,
    32441, 32429,
)


def primes():
    """PRIMES, then the primes above 2^15 in ascending order, without
    end: a search over them for a prime that keeps a squarefree
    polynomial over QQ squarefree ends, since only the finitely many
    primes that divide its discriminant or its leading coefficient
    fail."""
    yield from PRIMES
    p = 1 << 15
    while True:
        p += 1
        if is_prime(p):
            yield p


# Pseudo-random tries that `equal_degree` and `_roots` make before they
# give up.  A trace try gives two distinct factors distinct values with
# probability 1 - 1/p, and a quadratic-character try puts two distinct
# roots on different sides with probability about one half.
_SPLIT_TRIES = 40


def trim(f):
    """f without trailing zeros, in place; returns f."""
    while f and not f[-1]:
        f.pop()
    return f


def _product(f, g):
    """f * g for nonzero f, g, with unreduced coefficients."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def mul(f, g, p):
    if not f or not g:
        return []
    return trim([c % p for c in _product(f, g)])


def rem(f, g, p):
    """The remainder of f by the nonzero g."""
    r = list(f)
    d = len(g) - 1
    if len(r) <= d:
        return r
    inv = pow(g[-1], -1, p)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] * inv % p
        if c:
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * g[j]) % p
    return trim(r[:d])


def monic(f, p):
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gcd(f, g, p):
    """The monic greatest common divisor."""
    while g:
        f, g = g, rem(f, g, p)
    return monic(f, p)


def _mulmod(f, g, m, p):
    """f * g modulo the monic m, each coefficient reduced mod p once."""
    if not f or not g:
        return []
    d = len(m) - 1
    r = _product(f, g)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] % p
        if c:
            for j in range(d):
                r[i - d + j] -= c * m[j]
    return trim([c % p for c in r[:d]])


def powmod(f, e, m, p):
    """f^e modulo the monic nonconstant m."""
    out = [1]
    base = rem(f, m, p)
    while e:
        if e & 1:
            out = _mulmod(out, base, m, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, m, p)
    return out


def derivative(f, p):
    return trim([i * c % p for i, c in enumerate(f)][1:])


def _minus_x(f, p):
    """f - x."""
    out = f + [0] * (2 - len(f))
    out[1] = (out[1] - 1) % p
    return trim(out)


@lru_cache(maxsize=64)
def _two_adic(p):
    """(s, q, c) with p - 1 = 2^s * q, q odd, and c = z^q for the least
    quadratic non-residue z modulo p."""
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return s, q, pow(z, q, p)


def sqrt(a, p):
    """A square root of a modulo the odd prime p; None when a is not a
    square.

    Tonelli-Shanks with one power: with p - 1 = 2^s * q, x =
    a^((q-1)/2) gives r = a*x and t = r*x = a^q, so r^2 = a*t, and when
    a is a square t has order 2^i with i < m = s.  With c of order 2^m,
    multiplying r by b = c^(2^(m-i-1)) and t by b^2 keeps r^2 = a*t and
    leaves t of order below 2^i; then m = i and c = b^2, until t = 1."""
    a %= p
    if not a:
        return 0
    m, q, c = _two_adic(p)
    x = pow(a, (q - 1) // 2, p)
    r = a * x % p
    t = r * x % p
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
            if i == m:
                return None
        b = c
        for _ in range(m - i - 1):
            b = b * b % p
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _pseudo_random(i, n, p):
    """n residues modulo p, the same for the same try i in every run."""
    rng = random.Random(i)
    return [rng.randrange(p) for _ in range(n)]


def _roots(f, p):
    """The roots of the monic nonconstant f, a product of distinct
    linear factors over GF(p), p odd; None when the tries do not split
    it completely.

    A piece of degree 1 or 2 is solved by the quadratic formula
    (`sqrt`).  A larger one is split by gcd(g, (z + c)^((p-1)/2) - 1),
    which collects the roots r with r + c a nonzero square, for a
    pseudo-random c per try; every piece not yet solved takes each
    try."""
    out = []
    pieces = [f]
    half = (p + 1) // 2
    for i in range(_SPLIT_TRIES):
        todo = []
        for g in pieces:
            if len(g) == 2:
                out.append(-g[0] % p)
            elif len(g) == 3:
                b = g[1]
                s = sqrt(b * b - 4 * g[0], p)
                if s is None:
                    return None
                out += [(s - b) * half % p, (-s - b) * half % p]
            else:
                c = _pseudo_random(i, 1, p)[0]
                u = powmod([c, 1], (p - 1) // 2, g, p) or [0]
                w = gcd(g, trim([(u[0] - 1) % p] + u[1:]), p)
                if 1 < len(w) < len(g):
                    todo += [w, quo(g, w, p)]
                else:
                    todo.append(g)
        pieces = todo
        if not pieces:
            return out
    return None


def _frobenius_rows(f, p, xp=None):
    """Rows x^(i*p) mod f, i < deg f, from xp = x^p modulo f or a
    multiple of f.  Since the coefficients of h lie in GF(p), h^p mod f
    is sum_i h_i * row i (`_frobenius`)."""
    xp = powmod([0, 1], p, f, p) if xp is None else rem(xp, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_mulmod(rows[-1], xp, f, p))
    return rows


def _frobenius(h, rows, p):
    acc = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, v in enumerate(row):
                acc[j] += c * v
    return trim([v % p for v in acc])


def distinct_degree(f, p, xp=None, top=None):
    """[(d, g_d)] for monic squarefree nonconstant f, ascending in d:
    g_d is the product of the monic irreducible factors of f of degree d,
    and degrees with no factor are left out.  xp, when given, is x^p
    modulo f.  With top, the factors of degree above top stay in one
    last part, labelled with its degree.

    gcd(x^(p^d) - x, f) is the product of the factors whose degree
    divides d; once those of lower degree are divided out, of the
    factors of degree exactly d.  x^(p^d) mod f is the Frobenius image
    of x^(p^(d-1)).  What is left once 2d exceeds its degree is one
    factor.
    """
    h = xp = powmod([0, 1], p, f, p) if xp is None else xp
    rows = None
    out = []
    rest = f
    d = 0
    while 2 * (d + 1) <= len(rest) - 1 and d != top:
        d += 1
        if d > 1:
            rows = rows or _frobenius_rows(f, p, xp)
            h = _frobenius(h, rows, p)
        g = gcd(rest, _minus_x(h, p), p)
        if len(g) > 1:
            out.append((d, g))
            rest = quo(rest, g, p)
    if len(rest) > 1:
        out.append((len(rest) - 1, rest))
    return out


def equal_degree(f, d, p, xp=None):
    """The monic irreducible factors of f, a monic product of distinct
    irreducible factors of degree d over GF(p), p odd, in ascending
    order; None when the tries do not split it completely.  xp, when
    given, is x^p modulo a multiple of f.

    With k = deg f / d, GF(p)[x]/f is a product of k copies of GF(p^d),
    one per factor, and the elements that the Frobenius map fixes, whose
    coordinates all lie in GF(p), form its split subalgebra GF(p)^k
    (Berlekamp's algebra).  The trace T(v) = v + v^p + ... +
    v^(p^(d-1)) of any v lies there, so its minimal polynomial mu has
    distinct roots rho in GF(p), and the gcds of f with T(v) - rho split
    f by the value of T(v) on each factor (`_split`).  Each try takes
    one pseudo-random v of degree below deg f, traces it through the
    Frobenius rows (`_frobenius_rows`), and splits every piece not yet
    split; a v of degree 1 would not do, as x + c has the trace 2c
    modulo both x^2 - s and x^2 + s.  The roots of mu, and with d = 1
    those of f itself, come from `_roots`: for d > 1 no power is taken
    modulo f, and a piece of at most two factors takes none at all.
    """
    if d == 1:
        roots = _roots(f, p)
        return None if roots is None else sorted([-r % p, 1] for r in roots)
    done = []
    pieces = [f]
    rows = None
    for i in range(_SPLIT_TRIES):
        done += [g for g in pieces if len(g) - 1 == d]
        pieces = [g for g in pieces if len(g) - 1 > d]
        if not pieces:
            return sorted(done)
        rows = rows or _frobenius_rows(f, p, xp)
        t = v = trim(_pseudo_random(i, len(f) - 1, p))
        for _ in range(d - 1):
            v = _frobenius(v, rows, p)
            t = add(t, v, p)
        pieces = [w for g in pieces for w in _split(g, rem(t, g, p), p)]
    return None


def _split(g, t, p):
    """The pieces gcd(g, t - rho) of the monic g, rho the roots of the
    minimal polynomial of t, an element of the split subalgebra modulo
    g; [g] when t is constant there or its roots are not found."""
    mu = _min_poly(t, g, p)
    roots = _roots(mu, p) if len(mu) > 2 else None
    if roots is None:
        return [g]
    return [gcd(g, sub(t, [r], p), p) for r in roots]


def _min_poly(t, g, p):
    """The monic minimal polynomial of t modulo the monic g over GF(p):
    one elimination on the powers 1, t, t^2, ... stops at the first
    that the lower ones span, and its combination is the polynomial."""
    n = len(g) - 1
    rows = []
    power = [1]
    while True:
        vec = power + [0] * (n - len(power))
        comb = [0] * len(rows) + [1]
        for pivot, row, lower in rows:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                for j, b in enumerate(lower):
                    comb[j] = (comb[j] - c * b) % p
        pivot = next((j for j, a in enumerate(vec) if a), None)
        if pivot is None:
            return comb
        inv = pow(vec[pivot], -1, p)
        rows.append((pivot, [a * inv % p for a in vec],
                     [a * inv % p for a in comb]))
        power = _mulmod(power, t, g, p)


def irreducible_factors(parts, p, xp=None):
    """The monic irreducible factors of a squarefree polynomial from its
    distinct-degree factorization parts; None when a split is not found.
    xp, when given, is x^p modulo the polynomial."""
    out = []
    for d, g in parts:
        split = equal_degree(g, d, p, xp)
        if split is None:
            return None
        out += split
    return out


# ---------------------------------------------------------------------------
# factors over ZZ: Hensel lifting modulo powers of p, degree patterns and
# Zassenhaus recombination


def add(f, g, m):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return trim([c % m for c in out])


def sub(f, g, m):
    return add(f, [-c for c in g], m)


def divrem(f, g, m):
    """(q, r) with f = q*g + r modulo m, for g whose leading coefficient
    is a unit modulo m."""
    r = [c % m for c in f]
    d = len(g) - 1
    if len(r) <= d:
        return [], trim(r)
    inv = pow(g[-1], -1, m)
    q = [0] * (len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] * inv % m
        q[i - d] = c
        if c:
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * g[j]) % m
    return trim(q), trim(r[:d])


def quo(f, g, p):
    """The quotient of f by the nonzero g."""
    return divrem(f, g, p)[0]


def gcdex(f, g, p):
    """(s, t) with s*f + t*g = 1 for coprime nonzero f, g, with
    deg s < deg g and deg t < deg f."""
    r0, r1 = f, g
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = divrem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def hensel_lift(f, factors, p, bound):
    """(m, lifted): m = p^(2^k), the least such power above bound, and
    monic lifted[i] = factors[i] modulo p with f = lc(f) * prod(lifted)
    modulo m.

    f is an integer polynomial (ascending, its leading coefficient prime
    to p) that is squarefree modulo p, and factors are pairwise coprime
    monic factors modulo p whose product is f / lc(f) modulo p, such as
    its irreducible factors.  Quadratic lifting along a balanced factor
    tree (von zur Gathen and Gerhard, Algorithms 15.10, 15.17); when p
    is above bound, the factors are already lifted.
    """
    m = p
    while m <= bound:
        m *= m
    return m, list(factors) if m == p else _lift(f, factors, p, m)


def _lift(f, factors, p, m):
    """The lifted factors of f modulo m, f known modulo m."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, m)
        return [[c * inv % m for c in f]]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = mul(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = mul(h, u, p)
    s, t = gcdex(g, h, p)
    q = p
    while q < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, q * q)
        q *= q
    return _lift(g, factors[:half], p, m) + _lift(h, factors[half:], p, m)


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo the square root of m, h
    monic, the same identities modulo m (Algorithm 15.10)."""
    e = sub(f, mul(g, h, m), m)
    q, r = divrem(mul(s, e, m), h, m)
    g = add(g, add(mul(t, e, m), mul(q, g, m), m), m)
    h = add(h, r, m)
    b = sub(add(mul(s, g, m), mul(t, h, m), m), [1], m)
    c, d = divrem(mul(s, b, m), h, m)
    return g, h, sub(s, d, m), sub(t, add(mul(t, b, m), mul(c, g, m), m), m)

# Primes of PRIMES whose degree patterns `degree_patterns` intersects.
# Polynomials whose Galois group has no element of one cycle, such as
# the quartics with group V4, are never certified by the patterns and go
# on to the factor search.
_PATTERN_PRIMES = 16

# Subsets of modular factors `factor_zz` tries before it gives up.
_RECOMBINATION_CAP = 4096


def _reductions(ints, primes, top=None):
    """(distinct-degree factorization up to degree top, p, x^p) of the
    integer polynomial ints modulo each prime p of primes that divides
    neither its leading coefficient nor its discriminant."""
    for p in primes:
        if not ints[-1] % p:
            continue
        fp = monic([c % p for c in ints], p)
        if len(gcd(fp, derivative(fp, p), p)) > 1:
            continue
        xp = powmod([0, 1], p, fp, p)
        yield distinct_degree(fp, p, xp, top), p, xp


def degree_patterns(ints):
    """(degrees, modular) for the primitive integer polynomial ints of
    degree n.

    degrees are the degrees k <= n/2, ascending, that a factor over ZZ
    may have, and modular is (the distinct-degree factorization of ints
    modulo p, p, x^p modulo it) at the tried prime p with the fewest
    factors, or None when no tried prime keeps ints squarefree.  The
    primes stop at the first that leaves no degree; at the first that
    leaves degree 1 alone with one linear factor modulo it, which is
    then the prime returned, since `factor_zz` decides degree 1 there by
    lifting that factor and its cofactor; or at the first that leaves no
    degree 1 once the subsets of the best prime's factors are within
    `_RECOMBINATION_CAP`, since `factor_zz` then decides the degrees
    above 1 exactly.  Further patterns would only save it work.

    A factor over ZZ reduces modulo a prime p that does not divide the
    leading coefficient to a factor of the same degree; when ints stays
    squarefree modulo p, that degree is a sum of the degrees of some
    irreducible factors of ints modulo p.
    """
    degrees = list(range(1, (len(ints) - 1) // 2 + 1))
    best = None
    for parts, p, xp in _reductions(ints, PRIMES[:_PATTERN_PRIMES]):
        sums = {0}
        count = 0
        for k, g in parts:
            for _ in range((len(g) - 1) // k):
                sums |= {s + k for s in sums}
                count += 1
        degrees = [k for k in degrees if k in sums]
        lone = degrees == [1] and len(parts[0][1]) == 2
        if lone or best is None or count < best[0]:
            best = (count, parts, p, xp)
        if lone or not degrees:
            break
        if degrees[0] > 1 and 1 << best[0] <= _RECOMBINATION_CAP:
            break
    return degrees, best and best[1:]


def factor_zz(ints, degrees, modular=None, first=False):
    """The primitive irreducible factors over ZZ of the primitive
    squarefree integer polynomial ints whose degrees are in degrees,
    ascending and at most deg ints / 2, then their primitive cofactor;
    modular is `degree_patterns`' or None.

    ints is factored modulo the prime of modular, else modulo the first
    prime of `primes()` that keeps it squarefree.  With b the leading
    coefficient of ints, a factor G of degree k over ZZ is, modulo p, a
    unit times the product of a subset of the modular factors, whose
    degrees sum to k.  Parts of degree above max(degrees), which no
    subset holds, are not split but lifted as one cofactor, as Loos
    lifts the linear factors with theirs (R. Loos, SIAM J. Comput. 12,
    1983).  Mignotte bounds the i-th coefficient of G by C(k, i) M(G),
    and M(G) <= M(F) |lc(G)/b| <= ||F||_2 |lc(G)/b| (Landau), F = ints,
    so b/lc(G) * G has coefficients at most C(k, k/2) ||F||_2 in
    absolute value.  Once the factors are lifted modulo m above twice
    that bound, it is the symmetric residue of b times the subset's
    product.  Each candidate's primitive part is tried by division over
    ZZ and, when it divides, is divided out with its subset; the bound
    holds for the cofactor too (von zur Gathen and Gerhard, Algorithm
    15.19).  When degrees holds every degree a factor of ints may have,
    the cofactor is irreducible.  With first, the search stops after the
    least degree that yields a factor, and the cofactor, irreducible or
    not, holds the rest.  It gives up past `_RECOMBINATION_CAP` subsets.
    """
    top = max(degrees)
    for parts, p, xp in chain([modular] if modular else [],
                              _reductions(ints, primes(), top)):
        factors = irreducible_factors(
            [(d, g) for d, g in parts if d <= top], p, xp)
        if factors is not None:
            break
    if not factors:
        return [ints]
    rest = [1]
    for d, g in parts:
        if d > top:
            rest = mul(rest, g, p)
    if len(rest) > 1:
        factors.append(rest)
    bound = math.comb(top, top // 2) * (
        math.isqrt(sum(c * c for c in ints)) + 1)
    m, lifted = hensel_lift(ints, factors, p, 2 * bound)
    found = []
    tried = 0
    for k in degrees:
        if 2 * k > len(ints) - 1:
            break
        used = set()
        for subset in _subsets([len(u) - 1 for u in lifted], k, 0):
            if used.intersection(subset):
                continue
            tried += 1
            if tried > _RECOMBINATION_CAP:
                raise SearchCapExceededError(
                    f"factor recombination cap of {_RECOMBINATION_CAP} "
                    "subsets exceeded")
            g = [ints[-1]]
            for i in subset:
                g = mul(g, lifted[i], m)
            g = [c - m if 2 * c > m else c for c in g]
            # the constant term of a factor divides b * F(0)
            if ints[0] and (not g[0] or ints[-1] * ints[0] % g[0]):
                continue
            content = math.gcd(*g)
            g = [c // content for c in g]
            quotient = _quotient_zz(ints, g)
            if quotient is not None:
                found.append(g)
                ints = quotient
                used.update(subset)
        lifted = [u for i, u in enumerate(lifted) if i not in used]
        if first and found:
            break
    if len(ints) > 1:
        found.append(ints)
    return found


def _subsets(sizes, k, start):
    """Index tuples, increasing and from start on, of the entries of
    sizes that sum to k."""
    for i in range(start, len(sizes)):
        if sizes[i] == k:
            yield (i,)
        elif sizes[i] < k:
            for rest in _subsets(sizes, k - sizes[i], i + 1):
                yield (i,) + rest


def _quotient_zz(ints, g):
    """ints / g over ZZ for integer polynomials, or None when g does not
    divide ints."""
    r = list(ints)
    d = len(g) - 1
    q = [0] * (len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c, rest = divmod(r[i], g[-1])
        if rest:
            return None
        q[i - d] = c
        if c:
            for j in range(d + 1):
                r[i - d + j] -= c * g[j]
    return None if any(r[:d]) else q
