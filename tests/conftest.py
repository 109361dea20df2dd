"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the shipped code paths: brute-force
enumeration, characteristic polynomials with Descartes' rule, and direct
divisor scans.  Where a test compares shipped output against an oracle,
the oracle is the ground truth.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from reflekt.lattice import Lattice

U = Lattice.hyperbolic_plane()


def diag(*entries):
    return Lattice.diagonal(*entries)


def dsum(*lats):
    out = lats[0]
    for l in lats[1:]:
        out = out.direct_sum(l)
    return out


@pytest.fixture(scope="session")
def battery12():
    """Fixed battery of 12 test lattices, ranks 2 through 4."""
    return (
        U,
        diag(1, -8),
        diag(1, -7),
        diag(2, -2),
        U.rescale(2),
        Lattice(((-2, 1), (1, -2))),
        diag(1, -1, -1),
        dsum(U, diag(-2)),
        diag(1, -2, -3),
        diag(2, -4, 6),
        dsum(U, U),
        dsum(U, diag(-2, -2)),
    )


def brute_values(a, b, c, box):
    """All nonzero-vector values of a binary form within a coordinate box."""
    vals = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if x or y:
                vals.add(a * x * x + b * x * y + c * y * y)
    return vals


def brute_roots(lat, box):
    """Negative-norm roots by direct scan, canonical sign, no shipped helpers."""
    import itertools
    r = lat.rank
    out = set()
    for coords in itertools.product(range(-box, box + 1), repeat=r):
        if all(x == 0 for x in coords):
            continue
        first = next(x for x in coords if x != 0)
        if first < 0:
            continue
        g = 0
        for x in coords:
            g = gcd(g, x)
        if g != 1:
            continue
        q = sum(lat.gram[i][j] * coords[i] * coords[j]
                for i in range(r) for j in range(r))
        if q >= 0:
            continue
        pair = [sum(lat.gram[i][j] * coords[j] for j in range(r)) for i in range(r)]
        if all((2 * p) % q == 0 for p in pair):
            out.add(coords)
    return out


def box_vectors_oracle(gram, box):
    """(v, q(v)) for each nonzero v in [-box, box]^rank whose first nonzero
    coordinate is positive, in itertools.product (lexicographic) order."""
    import itertools
    r = len(gram)
    out = []
    for v in itertools.product(range(-box, box + 1), repeat=r):
        first = next((x for x in v if x != 0), 0)
        if first <= 0:
            continue
        q = sum(gram[i][j] * v[i] * v[j] for i in range(r) for j in range(r))
        out.append((v, q))
    return out


def charpoly_signature(gram):
    """Signature via characteristic polynomial signs (Descartes' rule).

    Exact for symmetric matrices since all eigenvalues are real: the number
    of positive roots equals the sign variations of p(x), negatives those
    of p(-x).
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    m = [row[:] for row in ident]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            m[i][i] += ck

    def variations(cs):
        signs = [c for c in cs if c != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if (s > 0) != (t > 0))

    pos = variations(coeffs)
    neg = variations([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, neg


def representation_oracle_values(d, bound):
    """Exact set of values of x^2 - d y^2 in [-bound, bound], d non-square.

    Uses the classical class bound: every solution class of the equation
    x^2 - d y^2 = N contains a member with y at most
    y1 * sqrt(|N|) / sqrt(2 (x1 -+ 1)) for a unit solution (x1, y1), so
    scanning y that far is conclusive.  Any valid unit gives a sound bound
    (a non-minimal one only widens the scan), so for speed the unit comes
    from the library while the scan itself stays independent.
    """
    from reflekt.binary import pell_fundamental

    s = pell_fundamental(d)
    x1, y1 = s.x, s.y
    assert x1 * x1 - d * y1 * y1 == 1
    ymax = isqrt((y1 * y1 * bound) // (2 * (x1 - 1))) + 2
    vals = set()
    for y in range(0, ymax + 1):
        x = isqrt(max(0, d * y * y - bound))
        while x * x - d * y * y <= bound:
            v = x * x - d * y * y
            if abs(v) <= bound and (x or y):
                vals.add(v)
            x += 1
    return vals
