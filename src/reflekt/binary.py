"""Indefinite binary quadratic forms: continued fractions, Pell units, and
complete decision procedures for representation, mu, and root norms.

The representation decision follows classical reduction theory.  For a
non-square discriminant D and a target m with 4m^2 < D, m is primitively
represented iff it occurs as a leading coefficient in the cycle of reduced
forms.  For larger |m| one class search answers every question: each
square root b of D modulo 4|m| gives a form (m, b, c), and m is primitively
represented iff one of them reduces into the cycle of f; the reducing
matrices turn those classes into witnesses.

Each public call reduces f once.  Each cycle is walked once and kept as a
record: the position of every form in rho order, the set of leading
coefficients, and the t of every rho step, whose matrix is
((0, -1), (1, t)).  Both cycle tests are then lookups, and a witness
multiplies the stored steps from f's reduced form to its class's instead
of walking the cycle again.  mu is the largest negative leading coefficient
of the cycle, read off the record (the proof is in `mu`).

The square roots come from the factorisation of 4|m|: Tonelli-Shanks
modulo each odd prime, a Hensel lift to each prime power, and CRT.  That
costs trial division up to sqrt(4|m|) plus work in proportion to the
number of roots, where a scan of all residues would cost |m|.

Square discriminants are handled by factoring the product of the two
linear forms.  Imprimitive representations of n are primitive ones of
n/t^2, taken over the square parts of n, which the factorisation of n
lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from . import lattice as lattice_mod
from .arith import divisors, factorize, is_nonresidue
from .errors import (EffortLimitExceeded, InternalCheckError,
                     InvalidInputError, IsotropicFormError)

_REDUCE_CAP = 100_000
_CYCLE_CAP = 10_000_000


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True)
class BinaryForm:
    """f(x, y) = a x^2 + b xy + c y^2 with positive discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.disc <= 0:
            raise InvalidInputError(
                f"form ({self.a},{self.b},{self.c}) has discriminant "
                f"{self.disc}; an indefinite form is required")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    @staticmethod
    def from_d(d: int) -> "BinaryForm":
        """The diagonal form x^2 - d y^2."""
        return BinaryForm(1, 0, -d)

    @staticmethod
    def from_gram(lat: lattice_mod.Lattice) -> "BinaryForm":
        if lat.rank != 2:
            raise InvalidInputError("binary form needs a rank-2 lattice")
        g = lat.gram
        return BinaryForm(g[0][0], 2 * g[0][1], g[1][1])

    def gram_lattice(self) -> lattice_mod.Lattice:
        """The corresponding integral lattice; requires an even middle coefficient."""
        if self.b % 2 != 0:
            raise InvalidInputError(
                f"middle coefficient {self.b} is odd; the form is not the "
                "quadratic form of an integral lattice")
        h = self.b // 2
        return lattice_mod.Lattice(((self.a, h), (h, self.c)))


def is_anisotropic(f: BinaryForm) -> bool:
    """True iff f does not represent zero nontrivially (disc not a square)."""
    return not is_square(f.disc)


# -- continued fractions and Pell ------------------------------------------

@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(d): [a0; period repeated].

    q_sequence[i] is the denominator Q_{i+1} of the standard
    (P, Q)-recurrence over one period; Q at the end of the period is 1.
    """

    d: int
    a0: int
    period: tuple[int, ...]
    q_sequence: tuple[int, ...]


def cf_sqrt(d: int) -> CFExpansion:
    """Canonical periodic continued fraction expansion of sqrt(d)."""
    if d <= 0 or is_square(d):
        raise InvalidInputError(f"d must be a positive non-square, got {d}")
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    period, qs = [], []
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period.append(a)
        qs.append(q)
        if a == 2 * a0 and q == 1:
            break
    return CFExpansion(d=d, a0=a0, period=tuple(period), q_sequence=tuple(qs))


@dataclass(frozen=True)
class PellSolution:
    """Fundamental solution of x^2 - d y^2 = 1 (minimal positive y)."""

    x: int
    y: int
    d: int

    def __post_init__(self):
        if self.x * self.x - self.d * self.y * self.y != 1:
            raise InternalCheckError(
                f"({self.x},{self.y}) does not solve the unit equation for d={self.d}")


def pell_fundamental(d: int) -> PellSolution:
    """Fundamental unit solution from the convergents of sqrt(d).

    With period length k, p_(k-1)^2 - d q_(k-1)^2 = (-1)^k, so the unit is
    the convergent that ends the period when k is even and the one that
    ends the second period when k is odd.
    """
    cf = cf_sqrt(d)
    k = len(cf.period)
    steps = k - 1 if k % 2 == 0 else 2 * k - 1
    p_prev, p = 1, cf.a0
    q_prev, q = 0, 1
    for a in (cf.period * 2)[:steps]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return PellSolution(x=p, y=q, d=d)


# -- reduction of indefinite forms (non-square discriminant) ----------------

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


def _mat2_mul(m1, m2):
    return ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
             m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
            (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
             m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]))


def _reduce_form(form, disc, sq):
    """Reduce to a reduced form, returning (reduced, M) with form∘M = reduced.

    M is the product of the rho step matrices, accumulated by columns:
    right-multiplying by ((0, -1), (1, t)) maps (c0, c1) to (c1, t c1 - c0).
    """
    m00, m01, m10, m11 = 1, 0, 0, 1
    a, b, c = form
    for _ in range(_REDUCE_CAP):
        if _is_reduced(a, b, c, sq):
            return (a, b, c), ((m00, m01), (m10, m11))
        (a, b, c), t = _rho(a, b, c, disc, sq)
        m00, m01 = m01, t * m01 - m00
        m10, m11 = m11, t * m11 - m10
    raise EffortLimitExceeded(
        f"reduction of {form} took more than {_REDUCE_CAP} steps")


# Sized for repeated queries on a few forms at a time: every entry can hold
# a long cycle, so a larger cache mostly costs memory.
@lru_cache(maxsize=64)
def _cycle(start):
    """The rho-cycle through a reduced form, as (positions, leads, steps):
    a read-only dict from each form to its index in rho order from start,
    the frozenset of the forms' leading coefficients, and the t of each rho
    step, steps[i] leading from the form at index i to the next."""
    disc = start[1] ** 2 - 4 * start[0] * start[2]
    sq = isqrt(disc)
    pos = {start: 0}
    cur, t = _rho(*start, disc, sq)
    steps = [t]
    while cur != start:
        if len(pos) >= _CYCLE_CAP:
            raise EffortLimitExceeded(
                f"cycle through {start} is longer than {_CYCLE_CAP} forms")
        pos[cur] = len(pos)
        cur, t = _rho(*cur, disc, sq)
        steps.append(t)
    return pos, frozenset(g[0] for g in pos), tuple(steps)


class _Reduction(NamedTuple):
    """A form f of non-square discriminant, reduced once per public call:
    f∘p is the reduced form at index 0 of the cycle record."""

    disc: int
    sq: int
    p: tuple
    cycle: tuple


def _reduction(f: BinaryForm) -> _Reduction:
    disc = f.disc
    sq = isqrt(disc)
    f_red, p = _reduce_form((f.a, f.b, f.c), disc, sq)
    return _Reduction(disc, sq, p, _cycle(f_red))


def _sqrt_mod_prime(a, p):
    """A square root of the nonzero residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while not is_nonresidue(z, p):
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod_prime_power(disc, p, e):
    """All r in [0, p^e) with r^2 = disc (mod p^e), for a prime p and e >= 1."""
    if p == 2 or disc % p == 0:
        roots = [disc % p]
    elif is_nonresidue(disc, p):
        return []
    else:
        r = _sqrt_mod_prime(disc % p, p)
        roots = [r, p - r]
    pk = p
    for _ in range(e - 1):
        lifted = []
        for r in roots:
            if 2 * r % p:
                # f(r + t p^k) = f(r) + 2 r t p^k (mod p^(k+1)): one t works
                t = -((r * r - disc) // pk) * pow(2 * r, -1, p) % p
                lifted.append(r + t * pk)
            elif (r * r - disc) % (pk * p) == 0:
                # f(r + t p^k) = f(r) (mod p^(k+1)) for every t
                lifted.extend(r + t * pk for t in range(p))
        roots, pk = lifted, pk * p
    return roots


def _sqrt_classes_mod(disc, m):
    """All b in [0, 2|m|) with b^2 = disc (mod 4|m|), in increasing order.

    The roots modulo each prime power q of 4|m| are combined by CRT, through
    the residue that is 1 mod q and 0 mod 4|m|/q.
    """
    mod = 4 * abs(m)
    roots = [0]
    for p, e in factorize(mod):
        q = p**e
        rest = mod // q
        unit = rest * pow(rest, -1, q) % mod
        roots = [(x + r * unit) % mod
                 for x in roots for r in _sqrt_mod_prime_power(disc, p, e)]
    return sorted(b for b in roots if b < 2 * abs(m))


# -- representation decision -------------------------------------------------

def _square_parts(n: int):
    """(t, n / t^2) for every t >= 1 with t^2 | n, in increasing t."""
    ts = [1]
    for p, e in factorize(n):
        ts = [t * p**k for t in ts for k in range(e // 2 + 1)]
    return [(t, n // (t * t)) for t in sorted(ts)]


def represents(f: BinaryForm, n: int) -> bool:
    """Complete decision: does f(x, y) = n have a nonzero integer solution?"""
    disc = f.disc
    if n == 0:
        return is_square(disc)
    if is_square(disc):
        return bool(_square_disc_solutions(f, n))
    red = _reduction(f)
    return any(_represents_primitively(red, m) for _, m in _square_parts(n))


def _classes(red: _Reduction, m: int):
    """The class search: (reduced, M) with (m, b, c)∘M = reduced for each square
    root b of D mod 4|m| whose form reduces into f's cycle (m != 0)."""
    disc, sq = red.disc, red.sq
    pos = red.cycle[0]
    for b in _sqrt_classes_mod(disc, m):
        c = (b * b - disc) // (4 * m)
        reduced, q = _reduce_form((m, b, c), disc, sq)
        if reduced in pos:
            yield reduced, q


def _represents_primitively(red: _Reduction, m: int) -> bool:
    """Primitive representation decision for m != 0."""
    if 4 * m * m < red.disc:
        return m in red.cycle[1]
    return next(_classes(red, m), None) is not None


def _square_disc_solutions(f: BinaryForm, n: int):
    """All integer solutions of f = n for square disc and n != 0 (finite)."""
    a, b, c = f.a, f.b, f.c
    k = isqrt(f.disc)
    out = set()
    if a == 0:
        # f = y (b x + c y)
        for y in (s * d for d in divisors(n) for s in (1, -1)):
            rem = n // y - c * y
            if rem % b == 0:
                out.add((rem // b, y))
        return out
    # 4 a n = (2ax + (b-k) y)(2ax + (b+k) y)
    target = 4 * a * n
    for u in (s * d for d in divisors(target) for s in (1, -1)):
        v = target // u
        if (v - u) % (2 * k) != 0:
            continue
        y = (v - u) // (2 * k)
        num = u - (b - k) * y
        if num % (2 * a) != 0:
            continue
        out.add((num // (2 * a), y))
    return out


def representation_witness(f: BinaryForm, n: int):
    """A vector (x, y) with f(x, y) = n, or None.

    Slower than `represents` (it always runs the class-transform route,
    never the cycle shortcut) but returns checkable evidence; the two
    routes agreeing is itself a useful invariant.
    """
    disc = f.disc
    if n == 0:
        if not is_square(disc):
            return None
        if f.a == 0:
            return (1, 0)
        k = isqrt(disc)
        # 2a x + (b - k) y = 0 has the nonzero solution below
        g = gcd(2 * f.a, abs(f.b - k))
        v = ((k - f.b) // g, 2 * f.a // g)
        if f.value(*v) != 0:
            raise InternalCheckError(f"isotropic witness {v} failed")
        return v
    if is_square(disc):
        sols = _square_disc_solutions(f, n)
        return min(sols) if sols else None
    red = _reduction(f)
    for t, m in _square_parts(n):
        for v in _primitive_representation_witnesses(f, red, m):
            return (t * v[0], t * v[1])
    return None


def mu(f: BinaryForm) -> int:
    """Largest negative integer represented by f: c*, the largest negative
    leading coefficient of f's cycle of reduced forms.

    Defined for anisotropic indefinite forms only; for isotropic binary
    forms the maximum need not exist, so those are rejected.

    Proof that mu = c*.  f takes the value c* at the first column of the
    matrix carrying f to the cycle form (c*, b, c), so mu >= c*.  For the
    converse let v be a lattice point with f(v) < 0.

    1. D is not a square, so f's two asymptotes have irrational slopes:
       they cut the plane into four open cones on which f has constant
       sign, and hold no lattice point but 0.  On a cone C where f < 0,
       -f = L1 L2 with real linear forms L1, L2 > 0 on C, so g = sqrt(-f)
       is concave and positively homogeneous of degree 1 there.  Let K be
       the convex hull of the lattice points of C.  Its boundary, the Klein
       sail of C, is a broken line with lattice vertices and no infinite
       edge (no lattice direction lies on an asymptote), and 0 is not in K,
       since L1 + L2 >= 2 sqrt(-f) >= 2 at every lattice point of C.  So
       the segment from 0 to v meets the sail at s v with 0 < s <= 1, on an
       edge [w, w'], and g(v) = g(s v) / s >= g(s v) >= min(g(w), g(w')).
       Hence |f| takes its minimum over the lattice points of C at a vertex.
    2. The vertices of the sails of the two cones where f < 0 are, up to
       sign, the first columns of the matrices carrying f to the forms of
       its cycle with negative leading coefficient, and f takes those
       coefficients there: Klein's geometric interpretation of continued
       fractions (O. Karpenkov, Geometry of Continued Fractions, Springer
       2013), applied to the cycle of rho steps (J. Buchmann and
       U. Vollmer, Binary Quadratic Forms, Springer 2007).  So f(v) <= f(w)
       <= c* for the vertex w of step 1.
    3. The minimum is attained primitively.  A vertex w = t u with t >= 2
       would lie strictly between the lattice points u and (t + 1) u of C,
       and f(t u) = t^2 f(u) is farther from 0 than f(u) in any case.  So
       mu is the value at a primitive vector, the first column above, and
       the cycle record alone decides it: no square root, factorisation or
       class search is needed.
    """
    if not is_anisotropic(f):
        raise IsotropicFormError(
            "mu is undefined for isotropic forms in this toolkit")
    return max(a for a in _reduction(f).cycle[1] if a < 0)


# -- automorphs and root norms ----------------------------------------------

def fundamental_automorph(f: BinaryForm):
    """A proper automorph of f with trace > 2 (anisotropic forms only).

    Acts on column vectors: M^T G M = G for the Gram matrix G of f.
    """
    if not is_anisotropic(f):
        raise IsotropicFormError("isotropic forms have no hyperbolic automorph")
    a, b, c = f.a, f.b, f.c
    if b % 2 == 0:
        d0 = (b // 2) ** 2 - a * c
        s = pell_fundamental(d0)
        x, y = s.x, s.y
        return ((x - (b // 2) * y, -c * y), (a * y, x + (b // 2) * y))
    s = pell_fundamental(f.disc)
    x, y = s.x, s.y
    return ((x - b * y, -2 * c * y), (2 * a * y, x + b * y))


def _mat2_inv_unimodular(m):
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if abs(d) != 1:
        raise InternalCheckError("matrix is not unimodular")
    return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _canonical_witness(f: BinaryForm, v):
    """Deterministic representative of the automorph orbit of v (up to sign).

    Walks the orbit to minimal coordinate size, then takes the
    lexicographically largest among the minimal vectors and their
    negatives.
    """
    if is_square(f.disc):
        return max(v, (-v[0], -v[1]))
    m = fundamental_automorph(f)
    minv = _mat2_inv_unimodular(m)

    def key(w):
        return (abs(w[0]) + abs(w[1]), abs(w[0]), abs(w[1]))

    cur = v
    for step in (m, minv):
        while True:
            nxt = _apply(step, cur)
            if key(nxt) < key(cur):
                cur = nxt
            else:
                break
    cands = {cur}
    for step in (m, minv):
        w = cur
        for _ in range(2):
            w = _apply(step, w)
            if key(w) == key(cur):
                cands.add(w)
    cands |= {(-x, -y) for x, y in cands}
    best = max(w for w in cands if key(w) == key(cur))
    return best


def _primitive_representation_witnesses(f: BinaryForm, red, m: int):
    """One primitive solution of f = m per proper-automorphism class.

    red is f's `_Reduction`, or None for a square discriminant, where the
    solution set itself is finite and is returned whole.
    """
    out = []
    if red is None:
        for v in sorted(_square_disc_solutions(f, m)):
            if gcd(v[0], v[1]) == 1:
                out.append(v)
        return out
    pos, _, steps = red.cycle
    for g_red, q in _classes(red, m):
        # the product r of the step matrices from f_red (index 0) to g_red,
        # accumulated by columns as in _reduce_form
        r00, r01, r10, r11 = 1, 0, 0, 1
        for i in range(pos[g_red]):
            t = steps[i]
            r00, r01 = r01, t * r01 - r00
            r10, r11 = r11, t * r11 - r10
        r = ((r00, r01), (r10, r11))
        tot = _mat2_mul(_mat2_mul(red.p, r), _mat2_inv_unimodular(q))
        v = (tot[0][0], tot[1][0])
        if f.value(*v) != m or gcd(v[0], v[1]) != 1:
            raise InternalCheckError(
                f"transform produced a bad witness {v} for {m}")
        out.append(v)
    return out


def binary_roots(f: BinaryForm):
    """Complete list of achievable negative root norms with one witness each.

    Root norms divide twice the exponent of the discriminant group, which
    makes the candidate set finite; within a norm, the divisibility
    condition is invariant under the orthogonal group, so one test per
    representation class decides it.
    """
    lat = f.gram_lattice()
    exponent = lat.discriminant().exponent
    red = None if is_square(f.disc) else _reduction(f)
    out = []
    for d in divisors(2 * exponent):
        m = -d
        for v in _primitive_representation_witnesses(f, red, m):
            if 2 * lat.divisibility(v) % m == 0:
                out.append((m, _canonical_witness(f, v)))
                break
    return tuple(out)
