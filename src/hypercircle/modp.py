"""Dense polynomials over GF(p), for certificates proved modulo a prime.

A polynomial is a list of ints in [0, p), ascending, with no trailing
zero; the zero polynomial is the empty list.  Only what the modular
certificates of `upoly` and `fields` use is here: products, remainders,
monic gcds, powers modulo a polynomial, and one factoring path for a
squarefree polynomial (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 14): `linear_part` is the product of its linear factors,
`distinct_degree` splits it into the products of its irreducible
factors of each degree, and `equal_degree` splits each product by
Cantor-Zassenhaus; `root` (a root of a polynomial with distinct linear
factors) is a thin use of it.  `hensel_lift` lifts the factorization
of an integer polynomial modulo p to one modulo a power of p (ch. 15)
for the one factor search over QQ, `fields._recombine`, which also
gives the rational roots of `upoly`; `mul`, `add`, `sub` and `divrem`
work modulo that power as they do modulo p.
"""

from .numtheory import is_prime

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


# Shifts x + c, c < _SPLIT_TRIES, that equal_degree tries before it
# gives up; each one splits a product of two or more distinct factors
# with probability about one half.
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


def evaluate(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def derivative(f, p):
    return trim([i * c % p for i, c in enumerate(f)][1:])


def _minus_x(f, p):
    """f - x."""
    out = f + [0] * (2 - len(f))
    out[1] = (out[1] - 1) % p
    return trim(out)


def root(f, p):
    """A root of the monic nonconstant f, a product of distinct linear
    factors over GF(p), p odd; None when no split is found within the
    tries."""
    factors = equal_degree(f, 1, p)
    return None if factors is None else -factors[0][0] % p


def linear_part(f, p):
    """gcd(x^p - x, f) for monic nonconstant f: the product of the
    distinct linear factors of f."""
    return gcd(f, _minus_x(powmod([0, 1], p, f, p), p), p)


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
    irreducible factors of degree d over GF(p), p odd; None when the
    tries do not split it completely.  xp, when given, is x^p modulo a
    multiple of f.

    Cantor-Zassenhaus: gcd(b - 1, g) with b = (x + c)^((p^d-1)/2)
    collects the factors of g modulo which x + c is a nonzero square;
    each try, with its own shift c, is applied to every piece not yet
    split.  Since (p^d-1)/2 = (p-1)/2 * (1 + p + ... + p^(d-1)), b is the
    product of the Frobenius images of u = (x + c)^((p-1)/2).
    """
    e = (p - 1) // 2
    done = []
    pieces = [(f, None)]
    for i in range(_SPLIT_TRIES):
        todo = []
        for g, rows in pieces:
            if len(g) - 1 == d:
                done.append(g)
                continue
            b = u = powmod([i, 1], e, g, p)
            if d > 1:
                rows = rows or _frobenius_rows(g, p, xp)
                for _ in range(d - 1):
                    u = _frobenius(u, rows, p)
                    b = _mulmod(b, u, g, p)
            b = b or [0]
            w = gcd(g, trim([(b[0] - 1) % p] + b[1:]), p)
            if 1 < len(w) < len(g):
                todo += [(w, None), (quo(g, w, p), None)]
            else:
                todo.append((g, rows))
        pieces = todo
        if not pieces:
            return done
    return None


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
# Hensel lifting, modulo powers of p


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
