"""Exact integer and rational helpers.

Primality, factorization, Chinese remaindering, quadratic residues and
squarefree parts.  Everything here works on plain ``int`` and
``fractions.Fraction`` and never rounds.
"""

from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


class SearchCapExceededError(RuntimeError):
    """A bounded search ran out of candidates before finding a hit."""

# Trial division runs over the primes below this bound.
_TRIAL_BOUND = 10000

# Evaluations of x^2 + c that Pollard rho may spend in one factorize call,
# the 3 * 2^19 that Floyd's former cap of 2^19 steps spent.  A collision
# mod a prime that those steps could see at one seed (tail below 2^19 - 1,
# cycle up to 2^19) shows by Brent's round 2^18, within 2^20 + 126
# evaluations.  The hcbench workloads need at most 403,966 (seeds 1, 3
# and 21); a cofactor with two prime factors near 10^14 needs millions.
_RHO_STEP_CAP = 3 << 19

# Brent's rho takes one gcd per this many steps.
_RHO_BATCH = 128

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
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below _TRIAL_BOUND; then each composite
    cofactor is split as a perfect power or by Pollard rho.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in _trial_primes():
        if p * p > n:
            # no prime up to sqrt(n) divides n: it is 1 or a prime
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    # every prime factor of n exceeds the trial bound
    stack = [n]
    evals = _RHO_STEP_CAP
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _perfect_power_root(m)
        if d is None:
            d, evals = _pollard_rho(m, evals)
        stack.append(d)
        stack.append(m // d)
    return out


@cache
def _trial_primes():
    """The primes below _TRIAL_BOUND, sieved on first use."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_TRIAL_BOUND - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _TRIAL_BOUND, p)))
    return tuple(compress(range(_TRIAL_BOUND), sieve))


def _perfect_power_root(m: int):
    """r with m = r^k for a prime k, or None.

    Every prime factor of m exceeds the trial bound 10^4 > 2^13, so
    m > 2^(13 k) bounds the exponents to try.
    """
    k_max = (m.bit_length() - 1) // (_TRIAL_BOUND.bit_length() - 1)
    for k in _trial_primes():
        if k > k_max:
            return None
        r = _integer_root(m, k)
        if r ** k == m:
            return r
    return None


def _integer_root(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 1 (integer Newton from above)."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_rho(n: int, evals: int):
    """(a nontrivial factor of composite odd n, evaluations left).

    Brent's cycle search (BIT 20, 1980) on x -> x^2 + c, x0 = 2, with a
    deterministic sweep c = 1, 2, ...  The differences x - y of a batch
    of _RHO_BATCH steps are multiplied mod n and share one gcd; a batch
    whose gcd is n is replayed step by step.  Every evaluation of
    x^2 + c is charged to `evals`, and SearchCapExceededError is raised
    before they would run out.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            evals = _charge(evals, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                evals = _charge(evals, batch, n)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                evals = _charge(evals, 1, n)
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, evals
        c += 1


def _charge(evals: int, count: int, n: int) -> int:
    """Evaluations left after `count` more; raises when too few remain."""
    if count > evals:
        raise SearchCapExceededError(
            f"Pollard rho found no factor of a {n.bit_length()}-bit "
            f"composite in {_RHO_STEP_CAP} polynomial evaluations")
    return evals - count


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
