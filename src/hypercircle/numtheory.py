"""Exact integer and rational helpers.

Primality, factorization, Chinese remaindering, quadratic residues,
squarefree parts and common denominators.  Everything here works on
plain ``int`` and ``fractions.Fraction`` and never rounds.
"""

from fractions import Fraction
from functools import cache
from itertools import compress, count
from math import gcd, isqrt

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


class SearchCapExceededError(RuntimeError):
    """A bounded search ran out of candidates before finding a hit."""

# Trial division runs over the primes below this bound.
_TRIAL_BOUND = 10000

# Modular multiplications that Pollard rho and ECM may spend together in
# one factorize call: the 3 * 2^19 rho evaluations of the former cap at
# about 1.5 multiplications each, and about its wall time.  The hcbench
# workloads need at most 44,301 (seeds 1, 3 and 21); a cofactor with two
# prime factors near 10^20 needs more.
_FACTOR_MULMOD_CAP = 9 << 18

# Evaluations of x^2 + c that Pollard rho spends on one cofactor before
# ECM takes over.  Every cofactor of the conics workload but two splits
# within 15,998; those two need 204,030 and 403,966.
_RHO_EVALS = 1 << 14

# Brent's rho takes one gcd per this many steps.
_RHO_BATCH = 128

# ECM: (B1, number of curves) per level, the last level until the cap;
# B2 = _ECM_B2_RATIO * B1.  On 40 seeded semiprimes with 11-13 digit
# factors these levels took 137,000 modular multiplications per split on
# average.
_ECM_LEVELS = ((150, 4), (400, 12), (1000, None))
_ECM_B2_RATIO = 50
# Stage 2 writes each prime in (B1, B2] as m D +- j with 0 < j < D/2.
_ECM_D = 210

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
        k = (r - x) * pow(m, -1, n) % n
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
    cofactor is split as a perfect power, by a short Pollard rho phase or
    by ECM.  Rho and ECM share one budget of _FACTOR_MULMOD_CAP modular
    multiplications per call.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in _primes_below(_TRIAL_BOUND):
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
    budget = _MulmodBudget(_FACTOR_MULMOD_CAP)
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = (_perfect_power_root(m) or _pollard_rho(m, budget)
             or _ecm(m, budget))
        stack.append(d)
        stack.append(m // d)
    return out


class _MulmodBudget:
    """Modular multiplications that one factorize call may still spend."""

    __slots__ = ("cap", "left")

    def __init__(self, cap: int):
        self.cap = cap
        self.left = cap

    def spend(self, count: int, n: int):
        """Charge `count` more; raises before they would run out."""
        if count > self.left:
            raise SearchCapExceededError(
                f"Pollard rho and ECM found no factor of a {n.bit_length()}"
                f"-bit composite in {self.cap} modular multiplications")
        self.left -= count


@cache
def _primes_below(bound: int):
    """The primes below `bound`, sieved on first use."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return tuple(compress(range(bound), sieve))


def _perfect_power_root(m: int):
    """r with m = r^k for a prime k, or None.

    Every prime factor of m exceeds the trial bound 10^4 > 2^13, so
    m > 2^(13 k) bounds the exponents to try.
    """
    k_max = (m.bit_length() - 1) // (_TRIAL_BOUND.bit_length() - 1)
    for k in _primes_below(_TRIAL_BOUND):
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


def _pollard_rho(n: int, budget: _MulmodBudget):
    """A nontrivial factor of composite odd n, or None.

    Brent's cycle search (BIT 20, 1980) on x -> x^2 + c, x0 = 2, with a
    deterministic sweep c = 1, 2, ...  The differences x - y of a batch
    of _RHO_BATCH steps are multiplied mod n and share one gcd; a batch
    whose gcd is n is replayed step by step.  Gives up (None) before a
    round would take its evaluations of x^2 + c past _RHO_EVALS.  An
    evaluation costs one modular multiplication, two inside a batch,
    charged to `budget`.
    """
    evals = _RHO_EVALS
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > evals:
                return None
            evals -= 2 * r
            x = y
            budget.spend(r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                budget.spend(2 * batch, n)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                budget.spend(1, n)
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def _ecm(n: int, budget: _MulmodBudget) -> int:
    """A nontrivial factor of an odd composite n.

    Lenstra's elliptic curve method (Ann. of Math. 126, 1987) on
    Suyama's curves sigma = 6, 7, 8, ... in turn, with B1 rising through
    _ECM_LEVELS.  Only the cap ends the search.
    """
    sigma = 6
    for b1, curves in _ECM_LEVELS:
        for _ in (range(curves) if curves else count()):
            g = _ecm_curve(n, sigma, b1, budget)
            if g:
                return g
            sigma += 1


def _ecm_curve(n: int, sigma: int, b1: int, budget: _MulmodBudget):
    """A proper factor of n that one ECM curve finds, or None.

    The curve is Montgomery's B y^2 = x^3 + A x^2 + x (Math. Comp. 48,
    1987) in X:Z coordinates, with Suyama's parametrization of A and of
    the start point P by sigma.  Stage 1 computes Q = k P by the ladder,
    k the product of the prime powers up to B1 = b1; stage 2 multiplies
    together, mod n, one cross difference of x-coordinates per pair
    p = m D +- j of primes in (B1, B2], which vanishes mod a prime q
    when p Q = 0 mod q.  Each stage takes one gcd; a gcd of n gives
    None.  The curve's modular multiplications are charged to `budget`
    up front.
    """
    k, pairs, m_lo, mults = _ecm_plan(b1)
    budget.spend(mults, n)
    # A = 4 a24 - 2 and P = (u^3 : v^3), normalized with one inversion
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3 = u * u * u % n
    v3 = v * v * v % n
    den = 16 * u3 * v * v3 % n
    g = gcd(den, n)
    if g != 1:
        return g if g < n else None
    inv = pow(den, -1, n)
    x = 16 * u3 * u3 * v % n * inv % n
    a24 = (v - u) ** 3 * (3 * u + v) % n * v3 % n * inv % n
    x, z = _ladder(n, a24, x, 1, k)[:2]
    g = gcd(z, n)
    if g != 1:
        return g if g < n else None
    x = x * pow(z, -1, n) % n
    # baby steps j Q for odd j < D/2: (j + 2) Q = j Q + 2 Q, difference
    # (j - 2) Q, and -Q has the x-coordinate of Q
    bx, bz = [x], [1]
    tx, tz = _xdbl(n, a24, x, 1)
    for i in range(_ECM_D // 4 - 1):
        px, pz = (bx[i - 1], bz[i - 1]) if i else (x, 1)
        ax, az = _xadd(n, bx[i], bz[i], tx, tz, px, pz)
        bx.append(ax)
        bz.append(az)
    # giant steps m D Q from m = m_lo; (m + 1) D Q = m D Q + D Q,
    # difference (m - 1) D Q
    dx, dz = _ladder(n, a24, x, 1, _ECM_D)[:2]
    gx, gz, hx, hz = _ladder(n, a24, dx, dz, m_lo)
    acc = 1
    for js in pairs:
        for i in js:
            acc = acc * (gx * bz[i] - bx[i] * gz) % n
        gx, gz, (hx, hz) = hx, hz, _xadd(n, hx, hz, dx, dz, gx, gz)
    g = gcd(acc, n)
    return g if 1 < g < n else None


def _xdbl(n: int, a24: int, x: int, z: int):
    """2 (x : z); 5 modular multiplications."""
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * d % n, (d + a24 * t) % n * t % n


def _xadd(n: int, x1: int, z1: int, x2: int, z2: int, xd: int, zd: int):
    """(x1 : z1) + (x2 : z2), given their difference (xd : zd); 6
    modular multiplications."""
    u = (x1 - z1) * (x2 + z2) % n
    v = (x1 + z1) * (x2 - z2) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(n: int, a24: int, x: int, z: int, k: int):
    """(k P, (k + 1) P) as x1, z1, x2, z2 for P = (x : z) and k >= 1, by
    Montgomery's ladder; 11 modular multiplications per bit of k after
    the first, and 5 more.  The steps are _xadd and _xdbl written out,
    the hot loop of ECM."""
    x1, z1 = x, z
    x2, z2 = _xdbl(n, a24, x, z)
    swapped = False
    for bit in bin(k)[3:]:
        # a 0 bit doubles (x1 : z1) and adds it into (x2 : z2); a 1 bit
        # does the same with the two swapped
        if (bit == "1") != swapped:
            x1, z1, x2, z2 = x2, z2, x1, z1
            swapped = not swapped
        u = (x1 - z1) * (x2 + z2) % n
        v = (x1 + z1) * (x2 - z2) % n
        x2, z2 = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s = (x1 + z1) ** 2 % n
        d = (x1 - z1) ** 2 % n
        t = s - d
        x1, z1 = s * d % n, (d + a24 * t) % n * t % n
    if swapped:
        x1, z1, x2, z2 = x2, z2, x1, z1
    return x1, z1, x2, z2


@cache
def _ecm_plan(b1: int):
    """(k, pairs, m_lo, multiplications per curve) for B1 = b1.

    k is the product of the prime powers up to B1.  The primes p in
    (B1, B2] are written p = m D +- j with 0 < j < D/2; pairs[m - m_lo]
    lists the baby-step indices (j - 1) / 2 for giant step m.  Built on
    first use, with the primes up to B2.
    """
    b2 = _ECM_B2_RATIO * b1
    k = 1
    steps = {}
    for p in _primes_below(b2 + 1):
        if p <= b1:
            q = p
            while q * p <= b1:
                q *= p
            k *= q
        else:
            m = (p + _ECM_D // 2) // _ECM_D
            steps.setdefault(m, set()).add(abs(p - m * _ECM_D) // 2)
    m_lo, m_hi = min(steps), max(steps)
    pairs = tuple(tuple(sorted(steps.get(m, ()))) for m in range(m_lo, m_hi + 1))
    mults = (_ladder_mults(k) + 5 + 6 * (_ECM_D // 4 - 1)
             + _ladder_mults(_ECM_D) + _ladder_mults(m_lo)
             + 6 * len(pairs) + 3 * sum(map(len, pairs)))
    return k, pairs, m_lo, mults


def _ladder_mults(k: int) -> int:
    return 11 * k.bit_length() - 6


def clear_denominators(values):
    """(ints, lcm): lcm the least common denominator of the rationals
    values, a collection read twice, and ints the c * lcm, in order; for
    reduced fractions they have no common factor."""
    den = 1
    for c in values:
        q = c.denominator
        if den % q:
            den = den // gcd(den, q) * q
    return [c.numerator * (den // c.denominator) for c in values], den


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
