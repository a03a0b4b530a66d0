"""Dense polynomials over GF(p), for certificates proved modulo a prime.

A polynomial is a list of ints in [0, p), ascending, with no trailing
zero; the zero polynomial is the empty list.  Only what the modular
certificates of `upoly` and `fields` use is here: products, remainders,
monic gcds, powers modulo a polynomial, a root of a polynomial that
splits into distinct linear factors and the factor degrees of a
squarefree polynomial from its distinct-degree factorization (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 14).
"""

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

# Shifts tried by root before it gives up; each one splits a product of
# two or more distinct linear factors with probability about one half.
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
    tries (Cantor-Zassenhaus on the shifts x + delta)."""
    for delta in range(_SPLIT_TRIES):
        if len(f) == 2:
            break
        # gcd((x + delta)^((p - 1)/2) - 1, f): the roots r of f with
        # r + delta a nonzero square
        h = powmod([delta, 1], (p - 1) // 2, f, p) or [0]
        w = gcd(f, trim([(h[0] - 1) % p] + h[1:]), p)
        if 1 < len(w) < len(f):
            f = w
    if len(f) != 2:
        return None
    return -f[0] % p


def linear_part(f, p):
    """gcd(x^p - x, f) for monic nonconstant f: the product of the
    distinct linear factors of f."""
    return gcd(f, _minus_x(powmod([0, 1], p, f, p), p), p)


def degree_pattern(f, p):
    """Degrees of the irreducible factors of monic squarefree f.

    Distinct-degree factorization without division: gcd(x^(p^d) - x, f)
    is the product of the factors whose degree divides d, so the factors
    of degree exactly d number its degree, less those of the proper
    divisors of d, over d.  What is left above deg f / 2 is one factor.
    """
    n = len(f) - 1
    # row i is x^(i*p) mod f; since the coefficients of h lie in GF(p),
    # h^p = sum_i h_i * x^(i*p), one matrix-vector product
    xp = powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(_mulmod(rows[-1], xp, f, p))
    count = {}
    h = [0, 1]
    for d in range(1, n // 2 + 1):
        acc = [0] * n
        for c, row in zip(h, rows):
            if c:
                for j, v in enumerate(row):
                    acc[j] += c * v
        h = trim([v % p for v in acc])
        k = len(gcd(f, _minus_x(h, p), p)) - 1
        k -= sum(e * c for e, c in count.items() if d % e == 0)
        if k:
            count[d] = k // d
    degrees = [d for d, c in sorted(count.items()) for _ in range(c)]
    rest = n - sum(degrees)
    if rest:
        degrees.append(rest)
    return degrees
