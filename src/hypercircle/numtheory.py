"""Exact integer and rational helpers.

Primality, factorization, Chinese remaindering, quadratic residues and
squarefree parts.  Everything here works on plain ``int`` and
``fractions.Fraction`` and never rounds.
"""

from fractions import Fraction
from math import gcd, isqrt

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


class SearchCapExceededError(RuntimeError):
    """A bounded search ran out of candidates before finding a hit."""

# Pollard rho steps one factorize call may take in all.  The hcbench
# workloads need at most 166,401 (seeds 1, 3 and 21); a cofactor with two
# prime factors near 10^14 needs millions.
_RHO_STEP_CAP = 1 << 19

# Strong-pseudoprime witnesses; the set is exact for n below this bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Miller-Rabin with a witness set that is exact for every n below
    ``_MR_EXACT_BOUND``.  Above it a witness still proves n composite,
    but an n that passes every witness is not proved prime, and no exact
    test here is bounded there, so that raises SearchCapExceededError.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BOUND:
        raise SearchCapExceededError(
            f"a {n.bit_length()}-bit strong probable prime is beyond the "
            "exact Miller-Rabin bound")
    return True


def egcd(a: int, b: int):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return x % m


def crt_class(congruences):
    """Combine congruences x = r_i (mod m_i) into (x, M).

    Moduli must be pairwise coprime; x is the smallest nonnegative
    representative and M the product of the moduli.
    """
    if not congruences:
        raise ValueError("no congruences given")
    x, m = congruences[0]
    if m < 1:
        raise ValueError("modulus must be positive")
    x %= m
    for r, n in congruences[1:]:
        if n < 1:
            raise ValueError("modulus must be positive")
        if gcd(m, n) != 1:
            raise ValueError("moduli not coprime")
        # x + m*k = r (mod n)
        k = (r - x) * modinv(m % n, n) % n
        x = x + m * k
        m = m * n
        x %= m
    return x, m


def crt_solve(congruences) -> int:
    """Smallest nonnegative solution of pairwise coprime congruences."""
    return crt_class(congruences)[0]


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion.  Requires p an odd prime and a not divisible by p."""
    if p < 3 or p % 2 == 0:
        raise ValueError("modulus must be an odd prime")
    a %= p
    if a == 0:
        raise ValueError("argument divisible by the modulus")
    return pow(a, (p - 1) // 2, p) == 1


def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    f = _SMALL_PRIMES[-1] + 2
    while f * f <= n and f < 10000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n == 1:
        return out
    stack = [n]
    steps = _RHO_STEP_CAP
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _pollard_rho(m, steps)
        stack.append(d)
        stack.append(m // d)
    return out


def _pollard_rho(n: int, steps: int):
    """(a nontrivial factor of composite odd n, steps left).

    Deterministic seed sweep; raises SearchCapExceededError once it has
    taken the given number of steps without a factor.
    """
    if n % 2 == 0:
        return 2, steps
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            if not steps:
                raise SearchCapExceededError(
                    f"Pollard rho found no factor of a {n.bit_length()}-bit "
                    f"composite in {_RHO_STEP_CAP} steps")
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d, steps
        c += 1


def squarefree_part(q) -> int:
    """The unique squarefree integer d with q = d * s^2 for rational s.

    Accepts int or Fraction; preserves sign; 0 maps to 0.
    """
    q = Fraction(q)
    if q == 0:
        return 0
    sign = -1 if q < 0 else 1
    n = abs(q.numerator) * q.denominator
    d = 1
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return sign * d


def rational_is_square(q) -> bool:
    """True iff q is the square of a rational number (0 counts)."""
    q = Fraction(q)
    if q < 0:
        return False
    a, b = q.numerator, q.denominator
    ra = isqrt(a)
    rb = isqrt(b)
    return ra * ra == a and rb * rb == b


def next_prime_in_class(residue: int, modulus: int, avoid: int = 1,
                        cap: int = 10 ** 6, skip=None) -> int:
    """Smallest prime = residue (mod modulus) not dividing avoid.

    Dirichlet guarantees one exists when gcd(residue, modulus) = 1; cap
    bounds the number of candidates inspected.  `skip` rejects otherwise
    acceptable primes.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    x = residue % modulus
    if x == 0:
        x = modulus
    for _ in range(cap):
        if (x >= 2 and is_prime(x) and (avoid == 0 or avoid % x != 0)
                and not (skip is not None and skip(x))):
            return x
        x += modulus
    raise SearchCapExceededError("prime search cap exceeded")


def primes_one_mod_four():
    """Yield primes congruent to 1 modulo 4 in increasing order."""
    n = 5
    while True:
        if is_prime(n):
            yield n
        n += 4
