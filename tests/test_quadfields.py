"""Infinite families of quadratic parametrization fields for conics."""

from fractions import Fraction
from itertools import islice

import pytest

from hypercircle.numtheory import (
    SearchCapExceededError,
    is_prime,
    is_quadratic_residue,
)
from hypercircle.quadfields import (
    ConicSpec,
    FieldDescriptor,
    crt_set,
    crt_slopes,
    nonsquare_witness,
    parametrization_fields,
    prime_set,
    prime_slopes,
    verify_pairwise_distinct,
)


def test_conic_spec_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        ConicSpec(0, 1, -6)
    with pytest.raises(ValueError):
        ConicSpec(1, 0, -6)
    with pytest.raises(ValueError):
        ConicSpec(1, 1, 0)


def test_field_descriptor_canonical_radicand():
    d = FieldDescriptor(5, Fraction(3, 13))
    assert d.canonical == 39
    assert d == FieldDescriptor(5, Fraction(3, 13))
    assert d != FieldDescriptor(7, Fraction(3, 13))


def _brute_witness(e, p):
    squares = {(x * x) % p for x in range(p)}
    for n in range(1, p):
        v = (1 + e * n * n) % p
        if v and v not in squares:
            return n
    return None


def test_nonsquare_witness_known_values():
    assert nonsquare_witness(1, 5) == 1
    assert nonsquare_witness(1, 41) == _brute_witness(1, 41)
    for p in (5, 13, 17, 29, 37, 41):
        n = nonsquare_witness(1, p)
        assert n == _brute_witness(1, p)
        assert not is_quadratic_residue((1 + n * n) % p, p)


def test_nonsquare_witness_rejects_bad_input():
    with pytest.raises(ValueError):
        nonsquare_witness(1, 7)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        nonsquare_witness(5, 5)  # e = 0 mod p


def test_prime_set_circle_conic():
    assert prime_set(1, 1, 4) == [5, 41, 701, 266381]


def test_prime_set_invariants_generic_conic():
    out = prime_set(2, 3, 3)
    assert out == sorted(set(out))
    for p in out:
        assert is_prime(p)
        assert p % 4 == 1
        assert 6 % p != 0
    assert verify_pairwise_distinct(2, 3, out)


def test_prime_set_rejects_zero_and_tiny_cap():
    with pytest.raises(ValueError):
        prime_set(0, 1, 1)
    with pytest.raises(SearchCapExceededError):
        prime_set(1, 1, 3, cap=2)


def test_crt_set_circle_conic():
    out = crt_set(1, 1, 6)
    assert out == [5, 26, 391, 4031, 175306, 9276086]
    moduli = [5, 13, 17, 29, 37, 41]
    for n, p in zip(out, moduli):
        assert n % p == 0
    assert verify_pairwise_distinct(1, 1, out)


def test_crt_set_skips_primes_dividing_ab():
    # ab = 5 knocks out p = 5, so the first modulus is 13
    out = crt_set(5, 1, 2)
    assert out[0] == 13
    assert verify_pairwise_distinct(5, 1, out)


@pytest.mark.parametrize("a, b, primes, crts", [
    (2, 3, [5, 17, 137], [5, 52, 782, 26912, 37962]),
    (5, 1, [13, 41, 821], [13, 119, 3538, 49506, 1414623]),
    (1, -2, [5, 17, 257], [5, 52, 782, 9947, 523772]),
])
def test_slopes_drawn_one_at_a_time_are_the_lists(a, b, primes, crts):
    # the lists as they were when every modulus was drawn up front
    assert list(islice(prime_slopes(a, b), 3)) == primes
    assert list(islice(crt_slopes(a, b), 5)) == crts
    assert [crt_set(a, b, k) for k in range(6)] == \
        [crts[:k] for k in range(6)]


def test_parametrization_fields_circle():
    conic = ConicSpec(1, 1, -6)
    fields = parametrization_fields(conic, prime_set(1, 1, 4))
    assert [d.radicand for d in fields] == [
        Fraction(3, 13),
        Fraction(3, 841),
        Fraction(3, 245701),
        Fraction(3, 35479418581),
    ]
    fields_crt = parametrization_fields(conic, crt_set(1, 1, 6))
    assert [d.canonical for d in fields_crt] == [
        39, 4062, 229323, 24373443, 184393161822, 516274628876382]
    assert [d.radicand for d in fields_crt] == [
        Fraction(3, 13),
        Fraction(6, 677),
        Fraction(3, 76441),
        Fraction(3, 8124481),
        Fraction(6, 30732193637),
        Fraction(6, 86045771479397),
    ]


def test_parametrization_fields_rejects_degenerate_slope():
    with pytest.raises(ValueError, match="degenerate slope"):
        parametrization_fields(ConicSpec(1, -1, 3), [1])


def test_verify_pairwise_distinct():
    assert verify_pairwise_distinct(1, 1, [5, 41])
    # (1 + 1)/(1 + 49) = 1/25 is a square, so 1 and 7 give the same field
    assert not verify_pairwise_distinct(1, 1, [1, 7])
    with pytest.raises(ValueError):
        verify_pairwise_distinct(1, -1, [1])
