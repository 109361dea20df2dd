"""Independent output checks for the benchmark.

Nothing here calls reflekt: every check recomputes what it needs with
slow, obviously-correct code (fraction-free elimination, brute force over small
boxes, gcds of minors), so a fast path in the library cannot vouch for
itself.  Each check raises OracleFailure with a reason.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, isqrt
from operator import mul


class OracleFailure(Exception):
    """An output disagrees with an independent check."""


def require(cond, reason):
    if not cond:
        raise OracleFailure(reason)


# -- integer linear algebra ---------------------------------------------------

def det(m) -> int:
    """Determinant by fraction-free (Bareiss) elimination: every division
    is exact, so the arithmetic stays in the integers."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def minors_gcd(m, k) -> int:
    """gcd of all k x k minors of m (the k-th determinantal divisor)."""
    g = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            g = gcd(g, det([[m[i][j] for j in cols] for i in rows]))
    return g


def rank(m) -> int:
    r = 0
    for k in range(1, min(len(m), len(m[0])) + 1):
        if minors_gcd(m, k) == 0:
            break
        r = k
    return r


def smith_diagonal(m) -> list[int]:
    """Invariant factors as ratios of consecutive determinantal divisors."""
    out, prev = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        d = minors_gcd(m, k)  # once a divisor is 0, all later ones are
        out.append(d // prev if d else 0)
        prev = d or prev
    return out


def in_rational_span(rows, v) -> bool:
    """True iff v lies in the Q-span of the independent rows."""
    k = len(rows) + 1
    return all(det([[r[j] for j in cols] for r in list(rows) + [v]]) == 0
               for cols in combinations(range(len(v)), k))


def echelon_reduce(basis, v):
    """Integer remainder of v against an echelon basis (positive pivots)."""
    v = list(v)
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        if v[p] % row[p]:
            return v
        q = v[p] // row[p]
        v = [x - q * y for x, y in zip(v, row)]
    return v


def sylvester_definite(gram) -> int:
    """+1 positive definite, -1 negative definite, 0 otherwise."""
    minors = [det([row[:k] for row in gram[:k]]) for k in range(1, len(gram) + 1)]
    if all(d > 0 for d in minors):
        return 1
    if all((d < 0) if k % 2 == 0 else (d > 0) for k, d in enumerate(minors)):
        return -1
    return 0


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


# -- quadratic forms ----------------------------------------------------------

def gram_times(gram, v):
    return [sum(map(mul, row, v)) for row in gram]


def pair(gram, u, v) -> int:
    return sum(map(mul, u, gram_times(gram, v)))


def root_norm(gram, v) -> int:
    """q(v) if v is a root, else 0.  A root is primitive, non-isotropic, and
    q(v) divides 2(u, v) for every basis vector u."""
    row = gram_times(gram, v)
    q = sum(map(mul, v, row))
    if q and content(v) == 1 and all((2 * p) % q == 0 for p in row):
        return q
    return 0


def is_root(gram, v) -> bool:
    return root_norm(gram, v) != 0


def box(rank_, b):
    """Nonzero vectors of [-b, b]^rank, one per sign class: those whose
    first nonzero entry is positive."""
    full = range(-b, b + 1)
    for k in range(rank_):
        for lead in range(1, b + 1):
            for rest in product(full, repeat=rank_ - k - 1):
                yield (0,) * k + (lead,) + rest


def box_roots(gram, b):
    return {v for v in box(len(gram), b) if root_norm(gram, v) < 0}


def binary_values(a, b, c, bound) -> dict[int, tuple[int, int]]:
    """{value: (x, y)} of a x^2 + b xy + c y^2 on nonzero (x, y) in
    [-bound, bound]^2."""
    return {a * x * x + b * x * y + c * y * y: (x, y)
            for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
            if x or y}


def values_mod(a, b, c, m) -> set[int]:
    """Values of a x^2 + b xy + c y^2 modulo m.  An n outside this set is
    not a value of the form over the integers."""
    return {(a * x * x + b * x * y + c * y * y) % m for x in range(m) for y in range(m)}


def local_moduli(disc):
    """Moduli at which a form of discriminant disc can miss residues: 16,
    and the odd primes below 100 that divide disc (a form nondegenerate
    modulo p takes every value modulo p)."""
    return [16] + [p for p in range(3, 100, 2) if is_prime(p) and disc % p == 0]


# -- primes -------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def is_nonresidue(a: int, p: int) -> bool:
    """Euler's criterion for an odd prime p not dividing a."""
    return pow(a % p, (p - 1) // 2, p) == p - 1
