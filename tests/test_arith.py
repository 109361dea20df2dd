import random
import re
import signal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflekt.arith import (crt, divisors, factorize, find_prime, gcd_ext,
                           is_nonresidue, is_prime, jacobi, nonresidue_prime,
                           smallest_nonresidue)
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

    @pytest.mark.parametrize("a, n", [(2, 7.0), (2.0, 7), (Fraction(2), 7), ("2", 7)])
    def test_rejects_non_integers(self, a, n):
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            jacobi(a, n)

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


class TestPairValidation:
    """crt and find_prime reject a bad (residue, modulus) pair or minimum."""

    @pytest.mark.parametrize("pairs, text", [
        ([(0, 0)], "modulus must be >= 1, got 0"),
        ([(3, 2)], "residue must satisfy 0 <= r < 2, got 3"),
        ([(-1, 5)], "residue must satisfy 0 <= r < 5, got -1"),
    ])
    def test_bad_pair(self, pairs, text):
        with pytest.raises(InvalidInputError, match=text):
            crt(pairs)
        with pytest.raises(InvalidInputError, match=text):
            find_prime(pairs)

    @pytest.mark.parametrize("pairs", [
        [(1, 3.0)], [(1.0, 3)], [(7, 8), (Fraction(1), 3)], [("1", 3)],
    ])
    def test_non_integer_pair(self, pairs):
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            crt(pairs)
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            find_prime(pairs)

    @pytest.mark.parametrize("congruences", [
        5, None, [(1, 2, 3)], [(1,)], [(7, 8), ()],
    ], ids=["int", "None", "triple", "single", "empty_pair"])
    def test_not_pairs(self, congruences):
        text = re.escape(f"expected (residue, modulus) pairs, got {congruences!r}")
        with pytest.raises(InvalidInputError, match=text):
            crt(congruences)
        with pytest.raises(InvalidInputError, match=text):
            find_prime(congruences)

    def test_bad_minimum(self):
        with pytest.raises(InvalidInputError, match="minimum must be >= 1, got 0"):
            find_prime([(7, 8)], minimum=0)


class TestCrt:
    def test_examples(self):
        assert crt([(7, 8), (2, 3)]) == (23, 24)
        assert crt([(0, 1)]) == (0, 1)
        assert crt([(1, 2), (1, 3)]) == (1, 6)

    def test_empty(self):
        assert crt([]) == (0, 1)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError,
                           match=r"moduli 4 and 6 are not coprime \(gcd 2\)"):
            crt([(1, 4), (3, 6)])

    @given(st.lists(st.sampled_from([(1, 2), (2, 3), (3, 5), (5, 7), (7, 11)]),
                    unique_by=lambda t: t[1], max_size=5))
    def test_output_satisfies_inputs(self, pairs):
        r, m = crt(pairs)
        prod = 1
        for _, m_i in pairs:
            prod *= m_i
        assert m == prod
        assert 0 <= r < m
        for r_i, m_i in pairs:
            assert r % m_i == r_i


class TestFindPrime:
    def test_examples(self):
        assert find_prime([(7, 8)]) == 7
        assert find_prime([(7, 8)], exclude=frozenset({7})) == 23
        assert find_prime([(7, 8), (2, 3)]) == 23

    def test_deterministic(self):
        pairs = [(3, 4), (2, 5)]
        assert find_prime(pairs, minimum=10) == find_prime(pairs, minimum=10)

    def test_minimum_respected(self):
        assert find_prime([(7, 8)], minimum=8) == 23

    def test_rejects_bad_progression(self):
        with pytest.raises(InvalidInputError,
                           match="progression 2 mod 4 has residue not coprime"):
            find_prime([(2, 4)])

    def test_effort_limit_is_explicit(self):
        with pytest.raises(EffortLimitExceeded,
                           match=r"no prime found in 7 mod 8 within 0 candidates "
                                 r"\(minimum 2\)"):
            find_prime([(7, 8)], minimum=2, effort_limit=0)


@pytest.mark.parametrize("p", [2] + SMALL_ODD_PRIMES)
def test_is_nonresidue_matches_the_squares(p):
    squares = {x * x % p for x in range(p)}
    for a in range(-2 * p, 2 * p):
        assert is_nonresidue(a, p) == (a % p not in squares)


@pytest.mark.parametrize("a,p,message", [
    (2.0, 7, "expected integer entries"),
    (2, 7.0, "expected integer entries"),
    (Fraction(2), 7, "expected integer entries"),
    (2, 0, "requires a prime p >= 2, got 0"),
    (5, 1, "requires a prime p >= 2, got 1"),
    (3, -7, "requires a prime p >= 2, got -7")])
def test_is_nonresidue_rejects_bad_input(a, p, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        is_nonresidue(a, p)


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

    # (k, minimum, prime): several odd prime factors, a repeated factor
    # (117 = 3^2 * 13), a power of 2, and a large floor
    PINNED = [(15, 2, 71), (105, 2, 311), (117, 2, 599), (15015, 31, 117911),
              (8, 100, 103), (997, 300000, 317047)]

    @pytest.mark.parametrize("k, minimum, expected", PINNED)
    def test_multi_congruence_primes_are_pinned(self, k, minimum, expected):
        assert nonresidue_prime(k, minimum=minimum) == expected
        assert _recipe_scan(k, minimum) == expected


def _recipe_scan(k, minimum):
    """Smallest prime p >= minimum with p = 7 (mod 8) and, for each odd prime
    q | k, p = 1 (mod q) if q = 1 (mod 4), else p = the least nonresidue of q."""
    wanted = {}
    for q, _ in factorize_oracle(k):
        if q % 4 == 1:
            wanted[q] = 1
        elif q % 4 == 3:
            squares = {x * x % q for x in range(q)}
            wanted[q] = next(r for r in range(2, q) if r not in squares)
    p = minimum
    while not (p % 8 == 7 and all(p % q == r for q, r in wanted.items())
               and factorize_oracle(p) == ((p, 1),)):
        p += 1
    return p


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


@pytest.mark.parametrize("call", [
    lambda: factorize(12.0),
    lambda: divisors(12.0),
    lambda: nonresidue_prime(7.0),
    lambda: nonresidue_prime("3"),
    lambda: is_prime(7.0),
    lambda: find_prime([(7, 8)], minimum=2.5),
    lambda: find_prime([(7, 8)], effort_limit=100.0),
    # not sequences: a scalar exclude, a scalar for a (residue, modulus) pair
    lambda: nonresidue_prime(3, exclude=5),
    lambda: find_prime([(7, 8)], exclude=None),
    lambda: find_prime([(7, 8)], exclude={7.0}),
    lambda: find_prime([7, 8]),
    lambda: crt([5]),
], ids=["factorize", "divisors", "nonresidue_prime", "nonresidue_prime_str",
        "is_prime", "find_prime_minimum", "find_prime_effort_limit",
        "nonresidue_prime_exclude", "find_prime_exclude_none",
        "find_prime_exclude_float", "find_prime_pair", "crt_pair"])
def test_scalars_reject_non_integers(call):
    with pytest.raises(InvalidInputError, match="expected integer entries"):
        call()


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(7) == 3
    for q in SMALL_ODD_PRIMES[:15]:
        r = smallest_nonresidue(q)
        assert jacobi(r, q) == -1
        assert all(jacobi(s, q) != -1 for s in range(2, r))
    # the bound q is never reached when q is not a square
    for q in range(3, 2000, 2):
        if isqrt(q) ** 2 != q:
            assert jacobi(smallest_nonresidue(q), q) == -1


@pytest.fixture
def one_second_alarm():
    """Fail a call that runs past one second instead of hanging the suite."""
    def expire(signum, frame):
        raise AssertionError("the call did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("q", [1, 9, 25, 3**6, (11 * 13)**2])
def test_smallest_nonresidue_of_a_square_is_refused(one_second_alarm, q):
    # every symbol (r/q) of a square q is 0 or 1: the search stops at q
    with pytest.raises(InvalidInputError, match=f"{q} is a square"):
        smallest_nonresidue(q)
