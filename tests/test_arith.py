import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflekt.arith import (Congruence, PrimeSearchSpec, crt, divisors,
                           factorize, find_prime, gcd_ext, is_nonresidue,
                           is_prime, jacobi, nonresidue_prime,
                           odd_prime_factors, smallest_nonresidue)
from conftest import factorize_oracle
from reflekt.arith import DEFAULT_EFFORT_LIMIT
from reflekt.errors import EffortLimitExceeded, InvalidInputError

SMALL_ODD_PRIMES = [p for p in range(3, 201) if is_prime(p)]


class TestGcdExt:
    def test_degenerate(self):
        assert gcd_ext(0, 0) == (0, 0, 0)

    def test_examples(self):
        assert gcd_ext(12, 8) == (4, 1, -1)
        assert gcd_ext(7, 0) == (7, 1, 0)

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout(self, a, b):
        g, x, y = gcd_ext(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if g == 0:
            assert a == b == 0
        else:
            assert a % g == 0 and b % g == 0


class TestJacobi:
    def test_examples(self):
        assert jacobi(-1, 7) == -1
        assert jacobi(2, 7) == 1
        assert jacobi(0, 3) == 0

    def test_rejects_even_or_nonpositive(self):
        with pytest.raises(InvalidInputError):
            jacobi(3, 4)
        with pytest.raises(InvalidInputError):
            jacobi(3, -5)

    def test_matches_residue_oracle_for_all_small_primes(self):
        # exhaustive: (a/p) = 1 iff a is a nonzero square mod p
        for p in SMALL_ODD_PRIMES:
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert jacobi(a, p) == expected, (a, p)

    def test_multiplicative_for_all_small_primes(self):
        for p in SMALL_ODD_PRIMES[:20]:
            for a in range(-6, 7):
                for b in range(-6, 7):
                    assert jacobi(a, p) * jacobi(b, p) == jacobi(a * b, p)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.sampled_from(SMALL_ODD_PRIMES))
    @settings(max_examples=200)
    def test_multiplicative_property(self, a, b, p):
        assert jacobi(a, p) * jacobi(b, p) == jacobi(a * b, p)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(1) is False
        assert is_prime(23) is True
        assert is_prime(161) is False

    def test_against_sieve(self):
        limit = 2000
        sieve = [True] * (limit + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, limit + 1):
            if sieve[i]:
                for j in range(i * i, limit + 1, i):
                    sieve[j] = False
        for n in range(1, limit + 1):
            assert is_prime(n) == sieve[n], n

    def test_large_known(self):
        assert is_prime(2**61 - 1) is True
        assert is_prime(2**62 - 1) is False

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            is_prime(2**64)
        with pytest.raises(InvalidInputError):
            is_prime(0)


class TestCongruence:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Congruence(3, 2)
        with pytest.raises(InvalidInputError):
            Congruence(0, 0)
        Congruence(0, 1)


class TestCrt:
    def test_examples(self):
        assert crt([Congruence(7, 8), Congruence(2, 3)]) == Congruence(23, 24)
        assert crt([Congruence(0, 1)]) == Congruence(0, 1)
        assert crt([Congruence(1, 2), Congruence(1, 3)]) == Congruence(1, 6)

    def test_empty(self):
        assert crt([]) == Congruence(0, 1)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            crt([Congruence(1, 4), Congruence(3, 6)])

    @given(st.lists(st.sampled_from([(1, 2), (2, 3), (3, 5), (5, 7), (7, 11)]),
                    unique_by=lambda t: t[1], max_size=5))
    def test_output_satisfies_inputs(self, pairs):
        congruences = [Congruence(r, m) for r, m in pairs]
        out = crt(congruences)
        prod = 1
        for _, m in pairs:
            prod *= m
        assert out.modulus == prod
        for c in congruences:
            assert c.holds_for(out.residue)


class TestFindPrime:
    def test_examples(self):
        assert find_prime(PrimeSearchSpec((Congruence(7, 8),))) == 7
        assert find_prime(PrimeSearchSpec((Congruence(7, 8),),
                                          exclude=frozenset({7}))) == 23
        assert find_prime(PrimeSearchSpec((Congruence(7, 8), Congruence(2, 3)))) == 23

    def test_deterministic(self):
        spec = PrimeSearchSpec((Congruence(3, 4), Congruence(2, 5)), minimum=10)
        assert find_prime(spec) == find_prime(spec)

    def test_minimum_respected(self):
        assert find_prime(PrimeSearchSpec((Congruence(7, 8),), minimum=8)) == 23

    def test_rejects_bad_progression(self):
        with pytest.raises(InvalidInputError):
            find_prime(PrimeSearchSpec((Congruence(2, 4),)))

    def test_effort_limit_is_explicit(self):
        spec = PrimeSearchSpec((Congruence(7, 8),), minimum=2)
        with pytest.raises(EffortLimitExceeded):
            find_prime(spec, effort_limit=0)


@pytest.mark.parametrize("p", [2] + SMALL_ODD_PRIMES)
def test_is_nonresidue_matches_the_squares(p):
    squares = {x * x % p for x in range(p)}
    for a in range(-2 * p, 2 * p):
        assert is_nonresidue(a, p) == (a % p not in squares)


class TestNonresiduePrime:
    def test_examples(self):
        assert nonresidue_prime(1) == 7
        assert nonresidue_prime(2, exclude={7}) == 23
        assert nonresidue_prime(3) == 23

    def test_direct_residue_check_holds(self):
        for k in range(1, 25):
            p = nonresidue_prime(k)
            assert p % 8 == 7
            assert all((x * x + k) % p != 0 for x in range(p))

    def test_exclusion_and_minimum(self):
        p1 = nonresidue_prime(5)
        p2 = nonresidue_prime(5, exclude={p1})
        assert p2 > p1
        assert nonresidue_prime(5, minimum=p1 + 1) == p2


def test_divisors():
    assert divisors(16) == (1, 2, 4, 8, 16)
    assert divisors(-12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    with pytest.raises(InvalidInputError):
        divisors(0)


@given(st.integers(-10**9, 10**9).filter(bool))
@settings(max_examples=300, deadline=None)
def test_factorize_is_the_prime_factorisation(n):
    fs = factorize(n)
    assert [p for p, _ in fs] == sorted({p for p, _ in fs})
    assert all(is_prime(p) and e >= 1 for p, e in fs)
    prod = 1
    for p, e in fs:
        prod *= p**e
    assert prod == abs(n)
    assert odd_prime_factors(n) == tuple(p for p, _ in fs if p != 2)


@given(st.integers(-20_000, 20_000).filter(bool))
@settings(max_examples=300, deadline=None)
def test_divisors_match_a_direct_scan(n):
    assert divisors(n) == tuple(d for d in range(1, abs(n) + 1) if n % d == 0)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(-360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(10**12) == ((2, 12), (5, 12))
    assert factorize(10**9 + 7) == ((10**9 + 7, 1),)
    with pytest.raises(InvalidInputError):
        factorize(0)


def _seeded_factorize_inputs():
    """n < 10^9 from a fixed seed: plain draws, primes and prime squares."""
    rng = random.Random(20261018)
    plain = [rng.randrange(2, 10**9) for _ in range(120)]
    primes, squares = [], []
    while len(primes) < 15:
        n = rng.randrange(10**8, 10**9)
        if factorize_oracle(n) == ((n, 1),):
            primes.append(n)
    while len(squares) < 15:
        p = rng.randrange(2, 31_622)
        if factorize_oracle(p) == ((p, 1),):
            squares.append(p * p)
    return plain + primes + squares


def test_factorize_matches_plain_trial_division():
    for n in _seeded_factorize_inputs():
        assert factorize(n) == factorize_oracle(n), n
        assert factorize(-n) == factorize_oracle(n), n


class TestFactorizeBudget:
    """Trial division stops after DEFAULT_EFFORT_LIMIT candidates: 2, 3, 5, ...,
    the last of them 2 * DEFAULT_EFFORT_LIMIT - 1."""

    LAST = 2 * DEFAULT_EFFORT_LIMIT - 1

    def test_prime_cofactor_below_2_64_is_accepted(self):
        big = 2**61 - 1  # a Mersenne prime, beyond LAST^2
        assert big > self.LAST**2
        assert factorize(big) == ((big, 1),)
        assert factorize(-12 * big) == ((2, 2), (3, 1), (big, 1))

    def test_small_factor_found_before_the_budget(self):
        p = 1_999_993  # the largest prime below LAST
        assert is_prime(p) and p <= self.LAST
        assert factorize(p * (2**61 - 1)) == ((p, 1), (2**61 - 1, 1))
        assert factorize(p * p) == ((p, 2),)

    def test_composite_cofactor_is_refused(self):
        p, q = 10**7 + 19, 10**7 + 79
        assert is_prime(p) and is_prime(q)
        with pytest.raises(EffortLimitExceeded):
            factorize(p * q)

    def test_cofactor_at_or_above_2_64_is_refused(self):
        with pytest.raises(EffortLimitExceeded):
            factorize(2**89 - 1)  # prime, but beyond is_prime's range
        with pytest.raises(EffortLimitExceeded):
            factorize(2 * (2**89 - 1))


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(7) == 3
    for q in SMALL_ODD_PRIMES[:15]:
        r = smallest_nonresidue(q)
        assert jacobi(r, q) == -1
        assert all(jacobi(s, q) != -1 for s in range(2, r))
