"""Quadratic parametrization fields for conics a*x^2 + b*y^2 + c = 0.

A conic without rational points still has parametrizations over
quadratic fields QQ(sqrt(-c/(a+b*n^2))), one per rational slope n.  Two
generators of infinite slope sets are provided; both make every choice
canonical ("smallest"), so the outputs are reproducible, and both
guarantee the resulting fields are pairwise distinct.
"""

from fractions import Fraction

from .numtheory import (crt_class, crt_solve, is_quadratic_residue,
                        next_prime_in_class, primes_one_mod_four,
                        rational_is_square, squarefree_part)


class ConicSpec:
    """Integer coefficients of a*x^2 + b*y^2 + c, all nonzero."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if a == 0 or b == 0 or c == 0:
            raise ValueError("conic coefficients must all be nonzero")
        self.a = int(a)
        self.b = int(b)
        self.c = int(c)

    def __repr__(self):
        return f"ConicSpec({self.a}, {self.b}, {self.c})"


class FieldDescriptor:
    """One quadratic field: slope n, exact radicand, squarefree core."""

    __slots__ = ("n", "radicand", "canonical")

    def __init__(self, n, radicand):
        self.n = n
        self.radicand = Fraction(radicand)
        self.canonical = squarefree_part(self.radicand)

    def __eq__(self, other):
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        return (self.n, self.radicand) == (other.n, other.radicand)

    def __repr__(self):
        return (f"FieldDescriptor(n={self.n}, radicand={self.radicand}, "
                f"canonical={self.canonical})")


def nonsquare_witness(e, p):
    """Smallest n >= 1 with 1 + e*n^2 a quadratic non-residue mod p.

    Requires p prime, p = 1 mod 4 and e nonzero mod p; such an n always
    exists then.  Values hitting 0 mod p do not count (0 is a square).
    """
    if p % 4 != 1:
        raise ValueError("modulus must be 1 mod 4")
    if e % p == 0:
        raise ValueError("e must be nonzero mod p")
    for n in range(1, p):
        v = (1 + e * n * n) % p
        if v == 0:
            continue
        if not is_quadratic_residue(v, p):
            return n
    raise ArithmeticError("no residual nonsquare found")


def _witness_residue(a, b, p, n):
    """The congruence class forced at p by the slope n already chosen."""
    e = b * pow(a + b * n * n, -1, p) % p
    return nonsquare_witness(e, p)


def prime_set(a, b, k, cap=10 ** 6):
    """First k primes of the distinct-field set for a*x^2 + b*y^2 + c.

    Every element is a prime p = 1 mod 4 with p not dividing a*b; each
    new prime is the smallest one in the congruence class that makes all
    ratios (a+b*p^2)/(a+b*q^2) non-squares.
    """
    if a == 0 or b == 0:
        raise ValueError("conic coefficients a, b must be nonzero")
    avoid = abs(a * b)

    def degenerate(p):
        return a + b * p * p == 0

    out = []
    congruences = [(1, 4)]
    while len(out) < k:
        residue, modulus = crt_class(congruences)
        p = next_prime_in_class(residue, modulus, avoid, cap, degenerate)
        out.append(p)
        congruences.append((_witness_residue(a, b, p, p), p))
    return out


def crt_set(a, b, k):
    """First k elements of the composite distinct-field set.

    Element i is divisible by the i-th prime = 1 mod 4 coprime to a*b;
    later elements are the smallest nonnegative solutions of the
    accumulated witness congruences.
    """
    if a == 0 or b == 0:
        raise ValueError("conic coefficients a, b must be nonzero")
    moduli = []
    source = primes_one_mod_four()
    while len(moduli) < k:
        p = next(source)
        if (a * b) % p == 0 or a + b * p * p == 0:
            continue
        moduli.append(p)
    out = []
    congruences = []
    for i in range(k):
        if i == 0:
            n = moduli[0]
        else:
            n = crt_solve(congruences + [(0, moduli[i])])
        out.append(n)
        congruences.append((_witness_residue(a, b, moduli[i], n),
                            moduli[i]))
    return out


def parametrization_fields(conic, slopes):
    """Field descriptors -c/(a+b*n^2) for each slope, exact."""
    out = []
    for n in slopes:
        q = conic.a + conic.b * n * n
        if q == 0:
            raise ValueError(f"degenerate slope {n}: a + b*n^2 = 0")
        out.append(FieldDescriptor(n, Fraction(-conic.c, q)))
    return out


def verify_pairwise_distinct(a, b, slopes):
    """No two slopes give the same field: all ratios are non-squares."""
    vals = [a + b * n * n for n in slopes]
    if any(v == 0 for v in vals):
        raise ValueError("a + b*n^2 vanishes on the list")
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if rational_is_square(Fraction(vals[i], vals[j])):
                return False
    return True
