"""Exact number theory: the integer input check, symbols, primality, CRT,
and prime search in arithmetic progressions.

Everything is deterministic.  Searches that are guaranteed to terminate by
Dirichlet's theorem still take an explicit effort cap; hitting the cap
raises EffortLimitExceeded rather than silently truncating.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import index

from .errors import EffortLimitExceeded, InternalCheckError, InvalidInputError

#: is_prime is unconditionally correct strictly below this bound.
DETERMINISTIC_PRIMALITY_BOUND = 2**64

# Witness set making Miller-Rabin deterministic for all n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

DEFAULT_EFFORT_LIMIT = 1_000_000


def int_vector(v) -> tuple[int, ...]:
    """v as a tuple of exact integers; anything else is InvalidInputError.

    operator.index accepts int (and bool) only, so 2.5, Fraction(1, 2) and
    "1" are rejected instead of being truncated or parsed, and so is a v
    that is not iterable, such as 5 or None.
    """
    try:
        return tuple(map(index, v))
    except TypeError:
        shown = list(v) if hasattr(v, "__iter__") else v
        raise InvalidInputError(f"expected integer entries, got {shown!r}") from None


def gcd_ext(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0.

    gcd_ext(0, 0) = (0, 0, 0).
    """
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for integers a and odd n > 0; the Legendre symbol
    when n is prime."""
    a, n = int_vector((a, n))
    if n <= 0 or n % 2 == 0:
        raise InvalidInputError(f"jacobi requires odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_nonresidue(a: int, p: int) -> bool:
    """True iff a is a quadratic nonresidue mod the prime p (Euler's criterion).

    Every residue is a square mod 2, and so is a = 0 mod p.  a and p must
    be integers with p >= 2.
    """
    a, p = int_vector((a, p))
    if p < 2:
        raise InvalidInputError(f"is_nonresidue requires a prime p >= 2, got {p}")
    return p != 2 and pow(a, (p - 1) // 2, p) == p - 1


def is_prime(n: int) -> bool:
    """Deterministic primality for 1 <= n < 2**64 (Miller-Rabin, fixed witnesses).

    Inputs at or above 2**64 are rejected: the witness set is only proven
    complete below that bound and this toolkit never needs larger primes.
    """
    (n,) = int_vector((n,))
    if n < 1:
        raise InvalidInputError(f"is_prime requires n >= 1, got {n}")
    if n >= DETERMINISTIC_PRIMALITY_BOUND:
        raise InvalidInputError(
            f"is_prime is only guaranteed below 2**64, got {n}")
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 0 or x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def crt(congruences) -> tuple[int, int]:
    """Combine (residue, modulus) pairs with pairwise coprime moduli into the
    single pair (r, m), 0 <= r < m, with m the product of the moduli.

    congruences must be an iterable of pairs; each modulus must be an
    integer >= 1 and each residue an integer in [0, modulus).  No pairs
    give (0, 1).
    """
    try:
        pairs = [(residue, modulus) for residue, modulus in map(int_vector, congruences)]
    except (TypeError, ValueError):  # not iterable, or a pair of the wrong length
        raise InvalidInputError(
            f"expected (residue, modulus) pairs, got {congruences!r}") from None
    r, m = 0, 1
    for residue, modulus in pairs:
        if modulus < 1:
            raise InvalidInputError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= residue < modulus:
            raise InvalidInputError(
                f"residue must satisfy 0 <= r < {modulus}, got {residue}")
        g, x, _ = gcd_ext(m, modulus)
        if g != 1:
            raise InvalidInputError(
                f"moduli {m} and {modulus} are not coprime (gcd {g})")
        # r' = r (mod m), r' = residue (mod modulus), and 0 <= r' < m * modulus
        r += m * ((residue - r) * x % modulus)
        m *= modulus
    return r, m


def find_prime(congruences, minimum: int = 2, exclude=frozenset(),
               effort_limit: int = DEFAULT_EFFORT_LIMIT) -> int:
    """Smallest prime >= minimum, not in exclude (an iterable of integers),
    satisfying every (residue, modulus) pair of congruences (combined by crt).

    Requires the combined residue to be coprime to the combined modulus
    (otherwise the progression contains at most one prime and Dirichlet
    does not apply).
    """
    minimum, effort_limit = int_vector((minimum, effort_limit))
    exclude = frozenset(int_vector(exclude))
    if minimum < 1:
        raise InvalidInputError(f"minimum must be >= 1, got {minimum}")
    r, m = crt(congruences)
    if m > 1 and gcd(r, m) != 1:
        raise InvalidInputError(
            f"progression {r} mod {m} has residue not coprime to modulus")
    start = max(minimum, 2)
    n = start + (r - start) % m
    for _ in range(effort_limit):
        if n not in exclude and is_prime(n):
            return n
        n += m
    raise EffortLimitExceeded(
        f"no prime found in {r} mod {m} within {effort_limit} candidates "
        f"(minimum {minimum})")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation ((p, e), ...) of |n| in increasing p (trial division).

    Trial division stops after DEFAULT_EFFORT_LIMIT candidate divisors
    (2, 3, 5, 7, ...).  A cofactor left over at that point is accepted as
    prime only below 2**64 and by is_prime; otherwise EffortLimitExceeded.
    """
    (n,) = int_vector((n,))
    n = abs(n)
    if n == 0:
        raise InvalidInputError("zero has no prime factorisation")
    out = []
    e = (n & -n).bit_length() - 1
    if e:
        n >>= e
        out.append((2, e))
    last = 2 * DEFAULT_EFFORT_LIMIT - 1
    bound = isqrt(n)
    if bound > last:  # min() costs more than the loop on small n
        bound = last
    p = 3
    while p <= bound:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
            bound = isqrt(n)
            if bound > last:
                bound = last
        p += 2
    if n > 1:
        if p * p <= n and not (n < DETERMINISTIC_PRIMALITY_BOUND and is_prime(n)):
            raise EffortLimitExceeded(
                f"trial division stopped after {DEFAULT_EFFORT_LIMIT} candidate "
                f"divisors with the cofactor {n} not proven prime")
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of |n| in increasing order."""
    if n == 0:
        raise InvalidInputError("divisors of zero are not enumerable")
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def smallest_nonresidue(q: int) -> int:
    """Least r >= 2 with (r/q) = -1, for an odd prime q.

    Such an r < q exists for every odd q > 1 that is not a square; for a
    square q every symbol is 0 or 1, so the search stops at q with
    InvalidInputError, as jacobi does for an even or non-positive q.
    """
    r = 2
    while jacobi(r, q) != -1:
        r += 1
        if r >= q:
            raise InvalidInputError(
                f"{q} is a square, so no r has (r/{q}) = -1")
    return r


def nonresidue_prime(k: int, exclude=frozenset(), minimum: int = 2,
                     effort_limit: int = DEFAULT_EFFORT_LIMIT) -> int:
    """Smallest admissible prime p such that -k is a quadratic nonresidue mod p.

    The congruence recipe: p = -1 (mod 8) makes (-1/p) = -1 and (2/p) = 1;
    for each odd prime q | k the residue of p mod q is chosen so that by
    quadratic reciprocity (q/p) = +1.  The product of symbols is then -1
    regardless of the multiplicities in k.  find_prime searches the
    (residue, modulus) pairs (7, 8), then (1, q) for q = 1 (mod 4) and
    (least nonresidue of q, q) for q = 3 (mod 4).  The recipe is
    sufficient, but the returned prime is always confirmed directly by
    Euler's criterion.
    """
    (k,) = int_vector((k,))
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    # q = 1 (mod 4): p = 1 (mod q) gives (p/q) = +1; q = 3 (mod 4): a
    # nonresidue gives (p/q) = -1, which reciprocity flips to (q/p) = +1
    congruences = [(7, 8)] + [(1 if q % 4 == 1 else smallest_nonresidue(q), q)
                              for q, _ in factorize(k) if q != 2]
    p = find_prime(congruences, minimum, exclude, effort_limit)
    if k % p == 0:
        raise InternalCheckError(
            f"p={p} divides k={k}; the congruences should forbid this")
    # the contract is the direct check, not the recipe
    if not is_nonresidue(-k, p):
        raise InternalCheckError(
            f"recipe produced p={p} but -{k} is a residue mod p")
    return p
