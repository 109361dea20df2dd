"""Exact number theory: symbols, primality, CRT, and prime search in
arithmetic progressions.

Everything is deterministic.  Searches that are guaranteed to terminate by
Dirichlet's theorem still take an explicit effort cap; hitting the cap
raises EffortLimitExceeded rather than silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import EffortLimitExceeded, InternalCheckError, InvalidInputError

#: is_prime is unconditionally correct strictly below this bound.
DETERMINISTIC_PRIMALITY_BOUND = 2**64

# Witness set making Miller-Rabin deterministic for all n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

DEFAULT_EFFORT_LIMIT = 1_000_000


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
    """Jacobi symbol (a/n) for odd positive n; the Legendre symbol when n is prime."""
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

    Every residue is a square mod 2, and so is a = 0 mod p.
    """
    return p != 2 and pow(a, (p - 1) // 2, p) == p - 1


def is_prime(n: int) -> bool:
    """Deterministic primality for 1 <= n < 2**64 (Miller-Rabin, fixed witnesses).

    Inputs at or above 2**64 are rejected: the witness set is only proven
    complete below that bound and this toolkit never needs larger primes.
    """
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


@dataclass(frozen=True)
class Congruence:
    """The condition value = residue (mod modulus)."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise InvalidInputError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise InvalidInputError(
                f"residue must satisfy 0 <= r < {self.modulus}, got {self.residue}")

    def holds_for(self, n: int) -> bool:
        return n % self.modulus == self.residue


def crt(congruences) -> Congruence:
    """Combine congruences with pairwise coprime moduli into a single one."""
    r, m = 0, 1
    for c in congruences:
        g, x, _ = gcd_ext(m, c.modulus)
        if g != 1:
            raise InvalidInputError(
                f"moduli {m} and {c.modulus} are not coprime (gcd {g})")
        # r' = r (mod m), r' = c.residue (mod c.modulus)
        lift = (c.residue - r) * x % c.modulus
        r = r + m * lift
        m = m * c.modulus
        r %= m
    return Congruence(residue=r, modulus=m)


@dataclass(frozen=True)
class PrimeSearchSpec:
    """A prime search target: congruences to satisfy, primes to avoid, a floor."""

    congruences: tuple[Congruence, ...]
    exclude: frozenset[int] = frozenset()
    minimum: int = 2

    def __post_init__(self):
        if self.minimum < 1:
            raise InvalidInputError(f"minimum must be >= 1, got {self.minimum}")
        object.__setattr__(self, "congruences", tuple(self.congruences))
        object.__setattr__(self, "exclude", frozenset(self.exclude))


def find_prime(spec: PrimeSearchSpec, effort_limit: int = DEFAULT_EFFORT_LIMIT) -> int:
    """Smallest prime satisfying the spec.

    Requires the combined residue to be coprime to the combined modulus
    (otherwise the progression contains at most one prime and Dirichlet
    does not apply).
    """
    combined = crt(spec.congruences)
    r, m = combined.residue, combined.modulus
    if m > 1 and gcd(r, m) != 1:
        raise InvalidInputError(
            f"progression {r} mod {m} has residue not coprime to modulus")
    start = max(spec.minimum, 2)
    n = start + (r - start) % m
    for _ in range(effort_limit):
        if n not in spec.exclude and is_prime(n):
            return n
        n += m
    raise EffortLimitExceeded(
        f"no prime found in {r} mod {m} within {effort_limit} candidates "
        f"(minimum {spec.minimum})")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation ((p, e), ...) of |n| in increasing p (trial division).

    Trial division stops after DEFAULT_EFFORT_LIMIT candidate divisors
    (2, 3, 5, 7, ...).  A cofactor left over at that point is accepted as
    prime only below 2**64 and by is_prime; otherwise EffortLimitExceeded.
    """
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
    """Least r >= 2 with (r/q) = -1, for an odd prime q."""
    r = 2
    while jacobi(r, q) != -1:
        r += 1
    return r


def odd_prime_factors(k: int) -> tuple[int, ...]:
    """Distinct odd prime factors of k, in increasing order."""
    return tuple(p for p, _ in factorize(k) if p != 2)


def nonresidue_prime(k: int, exclude=frozenset(), minimum: int = 2,
                     effort_limit: int = DEFAULT_EFFORT_LIMIT) -> int:
    """Smallest admissible prime p such that -k is a quadratic nonresidue mod p.

    The congruence recipe: p = -1 (mod 8) makes (-1/p) = -1 and (2/p) = 1;
    for each odd prime q | k the residue of p mod q is chosen so that by
    quadratic reciprocity (q/p) = +1.  The product of symbols is then -1
    regardless of the multiplicities in k.  The recipe is sufficient, but
    the returned prime is always confirmed directly by Euler's criterion.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    congruences = [Congruence(7, 8)]
    for q in odd_prime_factors(k):
        if q % 4 == 1:
            # want (p/q) = +1; p = 1 (mod q) works
            congruences.append(Congruence(1, q))
        else:
            # want (p/q) = -1 so that reciprocity flips it back to (q/p) = +1
            congruences.append(Congruence(smallest_nonresidue(q), q))
    spec = PrimeSearchSpec(congruences=tuple(congruences),
                           exclude=frozenset(exclude), minimum=minimum)
    p = find_prime(spec, effort_limit=effort_limit)
    if k % p == 0:
        raise InternalCheckError(
            f"p={p} divides k={k}; the congruences should forbid this")
    # the contract is the direct check, not the recipe
    if not is_nonresidue(-k, p):
        raise InternalCheckError(
            f"recipe produced p={p} but -{k} is a residue mod p")
    return p
