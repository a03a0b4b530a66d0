"""Integer and rational helpers: primality, CRT, residues, square parts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_composite

from hypercircle import numtheory
from hypercircle.numtheory import (
    SearchCapExceededError,
    crt_class,
    crt_solve,
    factorize,
    is_prime,
    is_quadratic_residue,
    next_prime_in_class,
    primes_one_mod_four,
    rational_is_square,
    squarefree_part,
)


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_table():
    assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division_below_3000():
    for n in range(3000):
        assert is_prime(n) == _trial_division_prime(n), n


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(29341)
    assert is_prime(266381)
    assert is_prime(2**61 - 1)


def test_strong_pseudoprime_to_bases_up_to_37():
    # below the exact bound of the witnesses 2..41, but a strong
    # pseudoprime to every base up to 37
    n = 318665857834031151167461
    assert not is_prime(n)
    assert factorize(n) == {399165290221: 1, 798330580441: 1}


def test_is_prime_beyond_the_exact_bound():
    # a witness still proves compositeness there; a probable prime raises
    assert not is_prime(3 * 10**30)
    assert not is_prime((10**30 + 57) * 1000003)
    with pytest.raises(SearchCapExceededError):
        is_prime(10**30 + 57)


def test_crt_solve_and_class():
    assert crt_solve([(2, 3), (3, 5)]) == 8
    assert crt_class([(2, 3), (3, 5)]) == (8, 15)
    # single congruence is returned as given, normalized
    assert crt_class([(7, 5)]) == (2, 5)


def test_crt_solve_agrees_with_search():
    moduli = [(1, 4), (1, 5), (4, 41)]
    n = crt_solve(moduli)
    assert n == next(x for x in itertools.count(0) if all(x % m == r for r, m in moduli))


def _trial_division_factors(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# prime powers of primes on both sides of the trial bound 10^4, and
# cofactors with no prime factor below it on both sides of 10^8: below,
# such a cofactor is 1 or a prime; above, 10007^2 and 10007 * 10009 are
# composite
_ROUGH_PARTS = (
    1, 9973, 9973**2, 9973**3, 10007, 10007**2, 10007**3, 10009,
    99999989, 99999931, 10007 * 9967, 100000007, 100140049, 100160063,
)


@pytest.mark.parametrize("seed", range(4))
def test_factorize_matches_trial_division(seed):
    rng = random.Random(seed)
    for _ in range(100):
        smooth = 1
        for _ in range(rng.randrange(6)):
            smooth *= rng.choice((2, 3, 5, 7, 9967, 9973)) \
                ** rng.randrange(1, 4)
        n = smooth * rng.choice(_ROUGH_PARTS)
        assert factorize(n) == _trial_division_factors(n), n


def test_factorize_known():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(266381) == {266381: 1}


def test_pollard_rho_steps_are_capped_per_factorize_call(monkeypatch):
    # two primes above the trial-division bound of 10^4 leave rho a
    # composite cofactor; it splits this one in about a thousand
    # polynomial evaluations
    n = 1000003 * 1000033
    assert factorize(n) == {1000003: 1, 1000033: 1}
    monkeypatch.setattr(numtheory, "_FACTOR_MULMOD_CAP", 10)
    with pytest.raises(SearchCapExceededError):
        factorize(n)


@pytest.mark.parametrize("p, q", [
    (399165290221, 798330580441),  # psi_12, a strong pseudoprime to 2..37
    (55602998929, 14883624409),
    (223280062373, 11014434829),
])
def test_default_rho_cap_reaches_the_hardest_known_semiprimes(p, q):
    # the two workload semiprimes need 403,966 and 204,030 evaluations
    assert factorize(p * q) == {p: 1, q: 1}


def test_rho_replays_a_batch_whose_gcd_is_n(monkeypatch):
    # mod 10091 and mod 10093 the first seed's cycles close in one batch;
    # replaying it step by step splits n in 767 modular multiplications,
    # where moving on to the next seed would take about 2,300
    monkeypatch.setattr(numtheory, "_FACTOR_MULMOD_CAP", 1000)
    assert factorize(10091 * 10093) == {10091: 1, 10093: 1}


def _first_curves_mults(curves):
    """Modular multiplications of the first `curves` ECM curves."""
    total = 0
    for b1, level in numtheory._ECM_LEVELS:
        take = curves if level is None else min(curves, level)
        total += take * numtheory._ecm_plan(b1)[3]
        curves -= take
    return total


@pytest.mark.parametrize("n, curves", [
    (827574152073265257961, 4),  # 55602998929 * 14883624409
    (2459303695622463589217, 4),  # 223280062373 * 11014434829
    (318665857834031151167461, 7),  # psi_12
])
def test_ecm_splits_the_hardest_known_semiprimes_in_a_few_curves(n, curves):
    # rho alone spends 545,789, 276,989 and 638,973 modular
    # multiplications on these; the first curves at B1 = 150 cost 4,932
    budget = numtheory._MulmodBudget(_first_curves_mults(curves))
    d = numtheory._ecm(n, budget)
    assert 1 < d < n and n % d == 0


def test_ecm_curve_whose_stage_1_gcd_is_n_returns_none():
    # on sigma = 6 the group orders mod 10007 and mod 10037 are both
    # 150-smooth, so stage 1 reaches the identity mod n itself
    n = 10007 * 10037
    u, v = 6 * 6 - 5, 4 * 6
    den = 16 * u**3 * v**4
    x = 16 * u**6 * v * pow(den, -1, n) % n
    a24 = (v - u)**3 * (3 * u + v) * v**3 * pow(den, -1, n) % n
    k = numtheory._ecm_plan(150)[0]
    assert numtheory._ladder(n, a24, x, 1, k)[1] % n == 0
    budget = numtheory._MulmodBudget(10**6)
    assert numtheory._ecm_curve(n, 6, 150, budget) is None
    assert numtheory._ecm(n, budget) in (10007, 10037)


_P14 = 10**14 + 31  # prime


@pytest.mark.parametrize("n, expected", [
    (_P14**2, {_P14: 2}),
    (_P14**3, {_P14: 3}),
    (_P14**6, {_P14: 6}),
])
def test_prime_power_cofactors_split_without_rho(monkeypatch, n, expected):
    # rho would need about 10^7 steps to split p^2 itself
    monkeypatch.setattr(numtheory, "_FACTOR_MULMOD_CAP", 0)
    assert factorize(n) == expected


def test_prime_power_cofactor_left_by_rho():
    # rho splits off 10007 and leaves p^2, a perfect square
    assert factorize(_P14**2 * 10007) == {_P14: 2, 10007: 1}


@pytest.mark.parametrize("seed", range(30))
def test_factorize_splits_seeded_rho_composites(seed):
    n, expected = random_composite(random.Random(seed))
    fac = factorize(n)
    assert fac == expected
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**200),
       st.integers(min_value=2, max_value=40))
def test_integer_root_is_the_floor_root(m, k):
    r = numtheory._integer_root(m, k)
    assert r**k <= m < (r + 1)**k


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_squarefree_part_values():
    assert squarefree_part(12) == 3
    assert squarefree_part(-12) == -3
    assert squarefree_part(1) == 1
    assert squarefree_part(Fraction(3, 841)) == 3
    assert squarefree_part(Fraction(3, 13)) == 39


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(
        min_value=Fraction(-10**4),
        max_value=Fraction(10**4),
        max_denominator=10**4,
    ).filter(lambda q: q != 0)
)
def test_squarefree_part_is_square_multiplier(q):
    d = squarefree_part(q)
    assert isinstance(d, int)
    assert all(e == 1 for e in factorize(abs(d)).values()) or abs(d) == 1
    assert rational_is_square(q * d)


def test_rational_is_square():
    assert rational_is_square(0)
    assert rational_is_square(Fraction(49, 25))
    assert not rational_is_square(2)
    assert not rational_is_square(-4)
    assert rational_is_square(Fraction(2, 50))  # reduces to 1/25
    assert not rational_is_square(Fraction(2, 49))


def test_is_quadratic_residue_mod_13():
    # squares mod 13: 1, 3, 4, 9, 10, 12
    res = sorted(x for x in range(1, 13) if is_quadratic_residue(x, 13))
    assert res == [1, 3, 4, 9, 10, 12]


def test_primes_one_mod_four_prefix():
    assert list(itertools.islice(primes_one_mod_four(), 6)) == [5, 13, 17, 29, 37, 41]


def test_next_prime_in_class():
    assert next_prime_in_class(1, 4) == 5
    assert next_prime_in_class(1, 20) == 41
    assert next_prime_in_class(266381, 574820) == 266381


def test_next_prime_in_class_avoid_and_skip():
    # avoid excludes primes dividing the given integer
    assert next_prime_in_class(1, 4, avoid=5) == 13
    assert next_prime_in_class(1, 2, avoid=1, skip=lambda p: p < 100) == 101


def test_next_prime_in_class_cap():
    with pytest.raises(SearchCapExceededError):
        next_prime_in_class(1, 4, cap=4, skip=lambda p: True)
