"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the shipped code paths: brute-force
enumeration, characteristic polynomials with Descartes' rule, and direct
divisor scans.  Where a test compares shipped output against an oracle,
the oracle is the ground truth.
"""

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from reflekt.lattice import Lattice

U = Lattice.hyperbolic_plane()


def binary_memos():
    """Every memo of reflekt.binary: each object in the module that has a
    cache_clear."""
    from reflekt import binary

    return [obj for obj in vars(binary).values() if hasattr(obj, "cache_clear")]


@pytest.fixture(autouse=True)
def fresh_cycle_memos():
    """Every test walks its own cycles: no cycle record, mu value, root
    class, Pell unit or divisor list that an earlier test left is read, so a
    cap a test sets is met.  This is the one place tests reset the memos
    between tests."""
    for memo in binary_memos():
        memo.cache_clear()


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


def factorize_oracle(n):
    """((p, e), ...) of |n| > 0 by trial division with every d >= 2."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def box_vectors_oracle(gram, box):
    """(v, q(v)) for each nonzero v in [-box, box]^rank whose first nonzero
    coordinate is positive, in itertools.product (lexicographic) order."""
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


def _rational_rank(rows):
    """Rank by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    top = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(top, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        for i in range(top + 1, len(a)):
            f = a[i][col] / a[top][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        top += 1
    return top


def solve_left_oracle(basis, targets):
    """X with X * basis = targets over Q, or None if some target row is
    outside the span, by Gauss-Jordan elimination over Fraction on basis^T
    with every target^T as a right-hand side.  basis rows must be linearly
    independent and nonempty."""
    k, n = len(basis), len(basis[0])
    aug = [[Fraction(basis[i][r]) for i in range(k)] + [Fraction(t[r]) for t in targets]
           for r in range(n)]
    for col in range(k):
        sel = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if sel is None:
            raise ValueError("basis rows are linearly dependent")
        aug[col], aug[sel] = aug[sel], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    # consistent iff the rows below the pivots have zero right-hand sides
    if any(x != 0 for row in aug[k:] for x in row[k:]):
        return None
    return tuple(tuple(aug[r][k + j] for r in range(k)) for j in range(len(targets)))


def _minor_det(rows):
    """Determinant by fraction-free (Bareiss) elimination, exact in integers."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            a[i] = [(a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev for j in range(n)]
        prev = a[k][k]
    return sign * prev


def determinantal_divisor_oracle(m):
    """Nonzero invariant factors of an integer matrix, d_k = D_k / D_(k-1),
    where D_k is the gcd of all k x k minors (D_0 = 1).

    k runs up to the rank from elimination over Q, since D_k = 0 beyond it;
    the scan of the k x k minors stops once their gcd is 1.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    divisors = [1]
    for k in range(1, _rational_rank(m) + 1):
        g = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                g = gcd(g, _minor_det([[m[i][j] for j in c] for i in r]))
                if g == 1:
                    break
            if g == 1:
                break
        divisors.append(g)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


# A dense 6x6 Gram matrix with discriminant group Z/67431652404 (perfbench's
# probe of the same name).  A Smith form that never size-reduces its
# transforms ran for minutes on it.
ITEM2_GRAM = ((-33, 22, 47, -42, -18, -35), (22, 13, 47, 7, 10, 33),
              (47, 47, -2, 50, -24, -38), (-42, 7, 50, 12, -47, -1),
              (-18, 10, -24, -47, 5, 27), (-35, 33, -38, -1, 27, 47))


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


def isotropic_partner_oracle(gram, comp, e, m, box=2):
    """Isotropic f~ with (e/m, f~) = 1 by the Fraction box search that
    construct used before its parity argument, with coefficient boxes 1..box.

    The overlattice basis is the Hermite basis of m*comp + Ze, divided by
    m.  x solves the unit pairing by an extended-gcd chain; an odd q(x) is
    fixed by the lexicographically first kernel combination of odd norm
    in the smallest box that has one.  Raises ConstructionError when no
    box up to `box` has one.
    """
    from reflekt import intlinalg
    from reflekt.arith import gcd_ext
    from reflekt.errors import ConstructionError, InternalCheckError

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j]
                   for i in range(len(u)) for j in range(len(v)))

    scaled = tuple(tuple(m * x for x in row) for row in comp.basis) + (tuple(e),)
    basis = [tuple(Fraction(x, m) for x in row)
             for row in intlinalg.hermite_row_basis(scaled)]
    e_tilde = tuple(Fraction(x, m) for x in e)
    pairings = []
    for row in basis:
        p = pair(e_tilde, row)
        if p.denominator != 1:
            raise InternalCheckError("pairing with e~ is not integral")
        pairings.append(int(p))
    g, coeffs = 0, [0] * len(pairings)
    for i, p in enumerate(pairings):
        g, s, t = gcd_ext(g, p)
        coeffs = [c * s for c in coeffs]
        coeffs[i] = t
    if g != 1:
        raise InternalCheckError(f"pairing ideal of e~ is {g}Z, expected Z")

    def combine(cs, rows):
        return tuple(sum((c * row[i] for c, row in zip(cs, rows)), Fraction(0))
                     for i in range(len(rows[0])))

    x = combine(coeffs, basis)
    if pair(x, x) % 2:
        kern = intlinalg.kernel((tuple(pairings),))
        kern_vectors = [combine(k, basis) for k in kern]
        shift = None
        for b in range(1, box + 1):
            for cs in itertools.product(range(-b, b + 1), repeat=len(kern)):
                w = combine(cs, kern_vectors) if kern else (Fraction(0),) * len(x)
                if pair(w, w) % 2 == 1:
                    shift = w
                    break
            if shift is not None:
                break
        if shift is None:
            raise ConstructionError("no odd-norm kernel vector in the box")
        x = tuple(a + b for a, b in zip(x, shift))
    half = int(pair(x, x)) // 2
    return tuple(a - half * b for a, b in zip(x, e_tilde))


def pair_frac_oracle(gram, u, v):
    """The pairing (u, v) of vectors with Fraction entries, summed in
    Fractions: construct's pairing before it paired only integer vectors."""
    total = Fraction(0)
    for i, row in enumerate(gram):
        if u[i]:
            total += u[i] * sum(row[j] * v[j] for j in range(len(v)))
    return total


def mj_entry_oracle(gram, e, m, f_tilde, d, a):
    """(u, m_factor, v, q(u)) of the mj entry for a, by the Fraction
    arithmetic of construct's build before it worked on m u: u = e~ - d a f~
    with e~ = e/m, m_factor the lcm of u's denominators, v = m_factor u."""
    u = tuple(Fraction(x, m) - d * a * ft for x, ft in zip(e, f_tilde))
    m_factor = lcm(*(x.denominator for x in u))
    v = tuple(int(x * m_factor) for x in u)
    return u, m_factor, v, pair_frac_oracle(gram, u, u)


# -- slow oracles for the binary-form fast paths ------------------------------

def sqrt_classes_oracle(disc, m):
    """All b in [0, 2|m|) with b^2 = disc (mod 4|m|), by scanning every b."""
    mod = 4 * abs(m)
    return [b for b in range(2 * abs(m)) if (b * b - disc) % mod == 0]


def square_parts_oracle(n):
    """(t, n / t^2) for every t >= 1 with t^2 | n, stepping t up to sqrt(|n|)."""
    out, t = [], 1
    while t * t <= abs(n):
        if n % (t * t) == 0:
            out.append((t, n // (t * t)))
        t += 1
    return out


def pell_oracle(d):
    """(x, y) of the first convergent of sqrt(d) with x^2 - d y^2 = 1, running
    the continued-fraction recurrence and testing each convergent's norm."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    p_prev, p, y_prev, y = 1, a0, 0, 1
    while p * p - d * y * y != 1:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        p, p_prev = a * p + p_prev, p
        y, y_prev = a * y + y_prev, y
    return p, y


def cf_oracle(d):
    """The continued fraction of sqrt(d), d a positive non-square, by the
    standard (P, Q) recurrence over one period, the loop `cf_sqrt` ran
    before it read the principal cycle of reduced forms."""
    from reflekt.binary import CFExpansion

    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    period, qs = [], []
    while not (a == 2 * a0 and q == 1):
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period.append(a)
        qs.append(q)
    return CFExpansion(d=d, a0=a0, period=tuple(period), q_sequence=tuple(qs))


def pell_sequential_oracle(d):
    """(x, y) of the fundamental unit by the convergent loop that ran before
    pell_fundamental multiplied in a product tree: from (a0, 1), one
    recurrence step per term of `cf_oracle` up to the end of the (second)
    period."""
    cf = cf_oracle(d)
    k = len(cf.period)
    steps = k - 1 if k % 2 == 0 else 2 * k - 1
    p_prev, p = 1, cf.a0
    q_prev, q = 0, 1
    for a in (cf.period * 2)[:steps]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q


def _is_reduced(a: int, b: int, c: int, sq: int) -> bool:
    # |sqrt(D) - 2|a|| < b < sqrt(D), in integer-exact terms
    return 0 < b <= sq and sq + 1 - b <= 2 * abs(a) <= sq + b


def _rho(a, b, c, disc, sq):
    """One reduction/cycle step: the neighbor form and the t of its SL2
    matrix ((0, -1), (1, t))."""
    ac = abs(c)
    if ac > sq:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = sq - ((sq + b) % (2 * ac))
    return (c, r, (r * r - disc) // (4 * c)), (b + r) // (2 * c)


def cycle_oracle(f):
    """The cycle of reduced forms through f's reduced form, in rho order.

    Reduction is the library's, and the rho step the oracles' own `_rho`;
    what this checks is the use made of the cycle (the order the cycle
    record's positions follow).
    """
    from reflekt import binary as b

    disc, sq = f.disc, isqrt(f.disc)
    start, _ = b._reduce_form((f.a, f.b, f.c), disc, sq)
    out = [start]
    cur, _ = _rho(*start, disc, sq)
    while cur != start:
        out.append(cur)
        cur, _ = _rho(*cur, disc, sq)
    return out


def primitive_oracle(f, m, cycle=None):
    """Primitive representation of m != 0 by f (non-square discriminant): a
    scan of the cycle's leading coefficients when 4m^2 < D, else the class
    search over the linearly scanned square roots."""
    from reflekt import binary as b

    cycle = cycle_oracle(f) if cycle is None else cycle
    if 4 * m * m < f.disc:
        return any(g[0] == m for g in cycle)
    disc, sq = f.disc, isqrt(f.disc)
    for r in sqrt_classes_oracle(disc, m):
        reduced, _ = b._reduce_form((m, r, (r * r - disc) // (4 * m)), disc, sq)
        if reduced in cycle:
            return True
    return False


def mu_oracle(f):
    """mu by the downward loop: the first of -1, -2, ... that primitive_oracle
    accepts, which is never below the largest negative cycle coefficient."""
    cycle = cycle_oracle(f)
    floor_val = max(g[0] for g in cycle if g[0] < 0)
    m = -1
    while not primitive_oracle(f, m, cycle):
        m -= 1
        assert m >= floor_val, (f, m, floor_val)
    return m


def _mat2_mul_oracle(m1, m2):
    return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _reduce_oracle(form, disc, sq):
    """(reduced, M) with form∘M = reduced, multiplying the full rho step
    matrices ((0, -1), (1, t)) one by one."""
    m = ((1, 0), (0, 1))
    while not _is_reduced(*form, sq):
        form, t = _rho(*form, disc, sq)
        m = _mat2_mul_oracle(m, ((0, -1), (1, t)))
    return form, m


def class_walk_oracle(f, m):
    """(b, v) for each class of primitive solutions of f = m != 0 (non-square
    D): b runs over the linearly scanned square roots whose form (m, b, c)
    reduces into f's cycle, and v is found by the walk the library made
    before its cycle record stored the rho steps: step from f's reduced form
    to that class's with `_rho`, multiplying the step matrices, and map
    (1, 0) back through the reducing matrices."""
    disc, sq = f.disc, isqrt(f.disc)
    f_red, p = _reduce_oracle((f.a, f.b, f.c), disc, sq)
    cycle = cycle_oracle(f)
    out = []
    for r0 in sqrt_classes_oracle(disc, m):
        g_red, q = _reduce_oracle((m, r0, (r0 * r0 - disc) // (4 * m)), disc, sq)
        if g_red not in cycle:
            continue
        r, cur = ((1, 0), (0, 1)), f_red
        while cur != g_red:
            cur, t = _rho(*cur, disc, sq)
            r = _mat2_mul_oracle(r, ((0, -1), (1, t)))
        det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
        q_inv = ((det * q[1][1], -det * q[0][1]), (-det * q[1][0], det * q[0][0]))
        tot = _mat2_mul_oracle(_mat2_mul_oracle(p, r), q_inv)
        out.append((r0, (tot[0][0], tot[1][0])))
    return out


def witness_walk_oracle(f, m):
    """One primitive solution of f = m != 0 per class (non-square D), in the
    order of `class_walk_oracle`."""
    return [v for _, v in class_walk_oracle(f, m)]


def gram_divisibility_oracle(a, h, c, v):
    """gcd of the pairings of v with the basis, for the Gram ((a, h), (h, c))."""
    return gcd(a * v[0] + h * v[1], h * v[0] + c * v[1])


def canonical_witness_oracle(auto, v):
    """`_canonical_witness` by the walk it made before it applied the
    automorph inline: step by auto, then by its inverse, while the key
    (|x| + |y|, |x|, |y|) falls, and take the largest of the vectors up to
    two steps either way that share the least key, and their negatives."""
    if auto is None:
        return max(v, (-v[0], -v[1]))
    (p, q), (r, s) = auto
    det = p * s - q * r
    assert abs(det) == 1, auto
    inverse = ((det * s, -det * q), (-det * r, det * p))

    def key(w):
        return (abs(w[0]) + abs(w[1]), abs(w[0]), abs(w[1]))

    def apply(m, w):
        return tuple(m[i][0] * w[0] + m[i][1] * w[1] for i in range(2))

    cur = v
    for step in (auto, inverse):
        while key(apply(step, cur)) < key(cur):
            cur = apply(step, cur)
    cands = {cur}
    for step in (auto, inverse):
        w = cur
        for _ in range(2):
            w = apply(step, w)
            if key(w) == key(cur):
                cands.add(w)
    return max(cands | {(-x, -y) for x, y in cands})


def automorph_oracle(f):
    """fundamental_automorph from the test-side Pell unit, with no library
    call: ((t - b u)/2, -c u; a u, (t + b u)/2) with
    (t, u) = (2x, y) for the `pell_oracle` unit (x, y) of D/4 when b is
    even, and (2x, 2y) for that of D when b is odd."""
    a, b, c = f.a, f.b, f.c
    even = b % 2 == 0
    x, y = pell_oracle(f.disc // 4 if even else f.disc)
    t, u = 2 * x, (y if even else 2 * y)
    return (((t - b * u) // 2, -c * u), (a * u, (t + b * u) // 2))


def binary_roots_oracle(f):
    """binary_roots by the algorithm the library used before it tested only
    the classes b = 0 mod |m|: for every divisor d of 2e (by a scan), the
    witness of every class from `witness_walk_oracle` over all square roots
    (the sorted primitive solutions for a square D), the divisibility test on
    each, and the first class that passes, made canonical by
    `canonical_witness_oracle` with `automorph_oracle`.  e comes from the
    Hermite route, Lattice.discriminant."""
    from reflekt import binary as b

    a, h, c = f.a, f.b // 2, f.c
    two_e = 2 * f.gram_lattice().discriminant().exponent
    square = b.is_square(f.disc)
    auto = None if square else automorph_oracle(f)
    out = []
    for d in range(1, two_e + 1):
        if two_e % d:
            continue
        if square:
            cands = sorted(v for v in b._square_disc_solutions(f, -d)
                           if gcd(v[0], v[1]) == 1)
        else:
            cands = witness_walk_oracle(f, -d)
        for v in cands:
            if 2 * gram_divisibility_oracle(a, h, c, v) % d == 0:
                out.append((-d, canonical_witness_oracle(auto, v)))
                break
    return tuple(out)
