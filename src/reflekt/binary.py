"""Indefinite binary quadratic forms: continued fractions, Pell units, and
complete decision procedures for representation, mu, and root norms.

The representation decision follows classical reduction theory.  For a
non-square discriminant D and a target m with 4m^2 < D, m is primitively
represented iff it occurs as a leading coefficient in the cycle of reduced
forms.  One class search, `_first_class`, answers every question: it says
"no" to a small m that is not a leading coefficient at once, and otherwise
each square root b of D modulo 4|m| gives a form (m, b, c), and m is
primitively represented iff one of them reduces into the cycle of f; the
reducing matrices turn the first such class into a witness.

One walk, `_walk`, steps every cycle of reduced forms.  The continued
fraction of sqrt(d) and the Pell unit are read off half the cycle of the
principal form (1, 2 a0, a0^2 - d), which is its own mirror image
(`_principal_half`).  Every product of rho steps, a Pell unit's or a
witness's, is taken by `_step_product`, in chunks and a balanced tree.

Each public call reduces f once, by `_reduce`, to its reduced start form,
and each question has one memo, a `functools.lru_cache` of the 64 most
recently used keys, each a reduced start form or a checked int: `_cycle`,
`_mu_walk` and `_root_classes` are keyed by the start form alone, since it
fixes D and isqrt(D), `_pell_unit` by d and `_twice_e_divisors` by e.
`represents`, `representation_witness` and `binary_roots` walk each cycle
once and keep it as a record, by `_cycle`: D and isqrt(D), the position of
every form in rho order, the set of leading coefficients, and the t of
every rho step, whose matrix is ((0, -1), (1, t)).  Both cycle tests are
then lookups, and a witness multiplies the stored steps from f's reduced
form to its class's instead of walking the cycle again.  `binary_roots`
reads even those products from `_root_classes`, once per start form, and
the divisors of 2e from `_twice_e_divisors`; each call still checks its
own witnesses.  The Pell unit of d is computed once while `_pell_unit`
holds it, and each `pell_fundamental` call checks d and its PellSolution.
mu is the largest negative leading coefficient of the cycle (the proof is
in `mu`).
`_mu_walk` streams the cycle in O(1) memory and keeps the answer; it stops
at a lead of -1, and on the mirror-symmetric cycle of an ambiguous class
after half of it.  mu never builds or reads a record, and a certificate
validated after it is built walks once.

The square roots come from the factorisation of 4|m|: Tonelli-Shanks
modulo each odd prime, a Hensel lift to each prime power, and CRT.  That
costs trial division up to sqrt(4|m|), one root computation and lift per
prime power (a least nonresidue is found only when Tonelli-Shanks has to
loop, never for p = 3 mod 4), and CRT work in proportion to the number of
roots, where a scan of all residues would cost |m|.
`binary_roots` needs none of them: only the classes with b = 0 mod |m|
hold roots (the lemma is in its docstring), b = 0 and b = |m|, one
congruence test each.

Square discriminants are handled by factoring the product of the two
linear forms.  Imprimitive representations of n are primitive ones of
n/t^2, taken over the square parts of n, which the factorisation of n
lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from . import lattice as lattice_mod
from .arith import (divisors, factorize, int_vector, is_nonresidue,
                    smallest_nonresidue)
from .errors import (EffortLimitExceeded, InternalCheckError,
                     InvalidInputError, IsotropicFormError)

_REDUCE_CAP = 100_000
_CYCLE_CAP = 10_000_000
# rho steps multiplied sequentially at the leaves of `_step_product`'s tree
_STEP_CHUNK = 64
# Every memo (see the module docstring) keeps the values of the 64 most
# recently used keys.  Sized for repeated queries on a few forms at a time:
# every record can hold a long cycle, so a larger cache mostly costs memory.
# A certificate validated right after it is built asks for the mu of the
# same form twice, and the second call walks nothing.
_RECORD_SLOTS = 64


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True)
class BinaryForm:
    """f(x, y) = a x^2 + b xy + c y^2 with positive discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name, x in zip("abc", int_vector((self.a, self.b, self.c))):
            object.__setattr__(self, name, x)
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
        (d,) = int_vector((d,))
        return BinaryForm(1, 0, -d)

    @staticmethod
    def from_gram(lat: lattice_mod.Lattice) -> "BinaryForm":
        if lat.rank != 2:
            raise InvalidInputError("binary form needs a rank-2 lattice")
        g = lat.gram
        return BinaryForm(g[0][0], 2 * g[0][1], g[1][1])

    def gram_lattice(self) -> lattice_mod.Lattice:
        """The corresponding integral lattice; requires an even middle coefficient."""
        h = self._half_b()
        return lattice_mod.Lattice(((self.a, h), (h, self.c)))

    def _half_b(self) -> int:
        """The off-diagonal Gram entry b/2; an odd b is InvalidInputError."""
        if self.b % 2 != 0:
            raise InvalidInputError(
                f"middle coefficient {self.b} is odd; the form is not the "
                "quadratic form of an integral lattice")
        return self.b // 2


def is_anisotropic(f: BinaryForm) -> bool:
    """True iff f does not represent zero nontrivially (disc not a square)."""
    return not is_square(f.disc)


# -- continued fractions and Pell ------------------------------------------

@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(d): [a0; period repeated].

    q_sequence[i] is the denominator Q_{i+1} of the standard
    (P, Q)-recurrence over one period; Q at the end of the period is 1.
    The period is the |t| of the rho steps of the principal cycle, from
    (1, 2 a0, a0^2 - d), and the Q's are the |c| of its forms.
    """

    d: int
    a0: int
    period: tuple[int, ...]
    q_sequence: tuple[int, ...]


def _principal_half(d: int):
    """(a0, ts, cs) for the principal form (1, 2 a0, a0^2 - d) of
    discriminant 4d: the t of each rho step of its cycle and the c of the
    form it leaves, from the start up to the second edge centre (a step that
    keeps b), the step into the start being the first.

    The cycle has length L = k for an even period k of sqrt(d) and 2k for an
    odd one, and its steps are a palindrome ending in 2 a0: t_(L-2-j) = t_j,
    t_(L-1) = 2 a0, with centres at L/2 - 1 and L - 1 (the lemma in `mu`).
    So the L/2 steps returned determine the cycle.  A half longer than
    _CYCLE_CAP forms raises `_walk`'s EffortLimitExceeded."""
    (d,) = int_vector((d,))
    if d <= 0 or is_square(d):
        raise InvalidInputError(f"d must be a positive non-square, got {d}")
    a0 = isqrt(d)
    ts, cs = [], []
    for (_, b, c), t in _walk((1, 2 * a0, a0 * a0 - d)):
        ts.append(t)
        cs.append(c)
        if t * c == b:
            return a0, ts, cs


def cf_sqrt(d: int) -> CFExpansion:
    """Canonical periodic continued fraction expansion of sqrt(d), read off
    half the principal cycle: the period and the Q's are the |t| and |c| of
    `_principal_half`.  The half is the whole period when its last Q is 1
    (an odd period); otherwise the period is the half, its mirror image
    without the last term, and 2 a0 with Q = 1.  A half cycle longer than
    _CYCLE_CAP forms raises EffortLimitExceeded."""
    a0, ts, cs = _principal_half(d)
    period, qs = [abs(t) for t in ts], [abs(c) for c in cs]
    if qs[-1] != 1:
        period += period[-2::-1] + [2 * a0]
        qs += qs[-2::-1] + [1]
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
    """Fundamental unit solution from half the principal cycle.

    The product A of the rho steps S_t = ((0, -1), (1, t)) over the cycle
    of (1, 2 a0, a0^2 - d) is, up to sign, its automorph
    ((x - a0 y, .), (y, .)) for the unit x + y sqrt(d).  The steps are a
    palindrome ending in 2 a0 (`_principal_half`), and J S_t J = S_t^-1 for
    J = ((0, 1), (1, 0)).  So if H = ((p, q), (r, s)) is the product of the
    steps before the centre t, the steps after it, H's in reverse, multiply
    to J H^-1 J = ((p, -r), (-q, s)), and A = H S_t ((p, -r), (-q, s))
    S_(2 a0).  A's first column (u, v) is the second column of the product
    before S_(2 a0), and x = |u + a0 v|, y = |v|: only the first half of the
    cycle is multiplied, by `_step_product`.

    d is checked to be an int first; `_pell_unit` then keeps (x, y) for the
    64 most recently used d, and each call builds and checks its own
    PellSolution.
    """
    (d,) = int_vector((d,))
    x, y = _pell_unit(d)
    return PellSolution(x=x, y=y, d=d)


@lru_cache(maxsize=_RECORD_SLOTS)
def _pell_unit(d):
    """(x, y) of `pell_fundamental` for the int d."""
    a0, ts, _ = _principal_half(d)
    (p, q), (r, s) = h = _step_product(ts[:-1])
    (_, u), (_, v) = _mat2_mul(_mat2_mul(h, ((0, -1), (1, ts[-1]))),
                               ((p, -r), (-q, s)))
    return abs(u + a0 * v), abs(v)


# -- reduction of indefinite forms (non-square discriminant) ----------------

def _mat2_mul(m1, m2):
    return ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
             m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
            (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
             m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]))


def _step_product(ts):
    """The product of the rho step matrices ((0, -1), (1, t)) over ts, in
    order.  Chunks of _STEP_CHUNK steps are accumulated by columns, as in
    `_reduce_form`, and the chunk products are multiplied in a balanced tree,
    so the large factors meet only near the root and the cost is not
    quadratic in len(ts)."""
    mats = []
    for i in range(0, len(ts), _STEP_CHUNK):
        m00, m01, m10, m11 = 1, 0, 0, 1
        for t in ts[i:i + _STEP_CHUNK]:
            m00, m01 = m01, t * m01 - m00
            m10, m11 = m11, t * m11 - m10
        mats.append(((m00, m01), (m10, m11)))
    while len(mats) > 1:
        mats = [_mat2_mul(*mats[i:i + 2]) if i + 1 < len(mats) else mats[i]
                for i in range(0, len(mats), 2)]
    return mats[0] if mats else ((1, 0), (0, 1))


def _reduce_form(form, disc, sq):
    """Reduce to a reduced form, returning (reduced, M) with form∘M = reduced.

    M is the product of the rho step matrices, accumulated by columns:
    right-multiplying by ((0, -1), (1, t)) maps (c0, c1) to (c1, t c1 - c0).
    The rho step leads from (a, b, c) to its neighbour (c, r, (r^2 - D)/4c)
    with r = -b mod 2|c|, taken in (-|c|, |c|] while |c| > isqrt(D) and in
    (isqrt(D) - 2|c|, isqrt(D)] after, and t = (b + r)/2c.
    """
    m00, m01, m10, m11 = 1, 0, 0, 1
    a, b, c = form
    for _ in range(_REDUCE_CAP):
        # |sqrt(D) - 2|a|| < b < sqrt(D), in integer-exact terms
        if 0 < b <= sq and sq + 1 - b <= 2 * abs(a) <= sq + b:
            return (a, b, c), ((m00, m01), (m10, m11))
        ac = abs(c)
        if ac > sq:
            r = (-b) % (2 * ac)
            if r > ac:
                r -= 2 * ac
        else:
            r = sq - (sq + b) % (2 * ac)
        t = (b + r) // (2 * c)
        a, b, c = c, r, (r * r - disc) // (4 * c)
        m00, m01 = m01, t * m01 - m00
        m10, m11 = m11, t * m11 - m10
    raise EffortLimitExceeded(
        f"reduction of {form} took more than {_REDUCE_CAP} steps")


def _walk(start):
    """The rho-cycle through the reduced form start, streamed: each form in
    rho order from start, with the t of the step that leaves it.  D and
    isqrt(D) are computed once, from start.  A cycle longer than _CYCLE_CAP
    forms raises EffortLimitExceeded.

    The step is `_reduce_form`'s rho step in its branch for |c| <= isqrt(D):
    every form of the cycle is reduced, and a reduced form has
    |c| <= isqrt(D), since 4|ac| = D - b^2 < (sq + 1 - b)(sq + 1 + b) and
    2|a| >= sq + 1 - b give 2|c| < sq + 1 + b <= 2 sq + 1."""
    cur = a, b, c = start
    disc = b * b - 4 * a * c
    sq = isqrt(disc)
    for _ in range(_CYCLE_CAP):
        r = sq - (sq + b) % (2 * abs(c))
        yield cur, (b + r) // (2 * c)
        cur = _, b, c = c, r, (r * r - disc) // (4 * c)
        if cur == start:
            return
    raise EffortLimitExceeded(
        f"cycle through {start} is longer than {_CYCLE_CAP} forms")


@lru_cache(maxsize=_RECORD_SLOTS)
def _mu_walk(start):
    """The largest negative leading coefficient of the cycle through the
    reduced form start, by `_walk`'s step inlined, in O(1) memory.  It
    stops at a c of -1, at its second edge centre, counting the step into
    the start as one when rho(c0, b0, a0) is the start, and otherwise at
    the start again (the proof is in `mu`).  A walk longer than
    _CYCLE_CAP forms raises `_walk`'s EffortLimitExceeded."""
    a0, b0, c0 = start
    disc = b0 * b0 - 4 * a0 * c0
    sq = isqrt(disc)
    # rho(c0, b0, a0) = start iff the step into the start is a centre
    past_centre = sq - (sq + b0) % (2 * abs(a0)) == b0
    # a reduced form has ac < 0, and c leads the next form of the cycle
    best, b, c = min(a0, c0), b0, c0
    for _ in range(_CYCLE_CAP):
        if best < c < 0:
            best = c
        if best == -1:
            return best
        r = sq - (sq + b) % (2 * abs(c))
        if r == b:
            if past_centre:
                return best
            past_centre = True
        if c == a0 and r == b0:
            return best
        b, c = r, (r * r - disc) // (4 * c)
    raise EffortLimitExceeded(
        f"cycle through {start} is longer than {_CYCLE_CAP} forms")


@lru_cache(maxsize=_RECORD_SLOTS)
def _cycle(start):
    """The rho-cycle through a reduced form, as (disc, sq, positions, leads,
    steps): its discriminant D and isqrt(D), a read-only dict from each form
    to its index in rho order from start, the frozenset of the forms'
    leading coefficients, and the t of each rho step, steps[i] leading from
    the form at index i to the next."""
    pos, steps = {}, []
    for g, t in _walk(start):
        pos[g] = len(steps)
        steps.append(t)
    disc = start[1] ** 2 - 4 * start[0] * start[2]
    return disc, isqrt(disc), pos, frozenset(g[0] for g in pos), tuple(steps)


def _reduce(f: BinaryForm):
    """(start, p): the reduced form f∘p = start of f, for a non-square D.
    Each public call reduces f once, here."""
    disc = f.disc
    return _reduce_form((f.a, f.b, f.c), disc, isqrt(disc))


def _sqrt_mod_prime(a, p):
    """A square root of the nonzero residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    if t != 1:
        # r^2 = a t, so r is a root when t = 1; else a nonresidue is needed
        c = pow(smallest_nonresidue(p), q, p)
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

    The roots modulo each prime power q of 4|m| are computed once, by
    `_sqrt_mod_prime_power`, and combined with every root found so far by
    CRT, through the residue that is 1 mod q and 0 mod 4|m|/q.
    """
    mod = 4 * abs(m)
    roots = [0]
    for p, e in factorize(mod):
        q = p**e
        rest = mod // q
        unit = rest * pow(rest, -1, q) % mod
        rs = _sqrt_mod_prime_power(disc, p, e)
        roots = [(x + r * unit) % mod for x in roots for r in rs]
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
    (n,) = int_vector((n,))
    if n == 0 or is_square(f.disc):
        return representation_witness(f, n) is not None
    rec = _cycle(_reduce(f)[0])
    _, _, _, leads, _ = rec
    return any(m in leads or _first_class(rec, m) is not None
               for _, m in _square_parts(n))


def _first_class(rec, m: int, bs=None):
    """The class search for m != 0: (reduced, M) with (m, b, c)∘M = reduced
    for the first b in bs whose form reduces into f's cycle, or None.  bs
    holds square roots of D mod 4|m| and defaults to all of them in
    [0, 2|m|), in increasing order.  rec is the cycle record of f's reduced
    form.  When 4m^2 < D, m has a class iff it is a leading coefficient of
    the cycle, so a non-lead is answered at once."""
    disc, sq, pos, leads, _ = rec
    if 4 * m * m < disc and m not in leads:
        return None
    for b in _sqrt_classes_mod(disc, m) if bs is None else bs:
        reduced, q = _reduce_form((m, b, (b * b - disc) // (4 * m)), disc, sq)
        if reduced in pos:
            return reduced, q
    return None


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

    Slower than `represents`, which answers a leading coefficient of the
    cycle with a lookup: here every represented square part needs its first
    class and that class's witness.  In return the answer is checkable
    evidence.  For a non-square D and n != 0 the two routes are independent
    and agreeing is a useful invariant; for n = 0 or a square D `represents`
    answers through this function, so the oracles of the tests check it.
    """
    (n,) = int_vector((n,))
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
    start, p = _reduce(f)
    rec = _cycle(start)
    for t, m in _square_parts(n):
        cls = _first_class(rec, m)
        if cls is not None:
            x, y = _class_witness(f, p, m, _class_matrix(rec, *cls))
            return (t * x, t * y)
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
       the leads of the cycle alone decide it: no square root,
       factorisation or class search is needed.

    Half the cycle holds every lead when the class is ambiguous.  Let
    sigma(a, b, c) = (c, b, a), and call the step from g_i to g_(i+1) an
    edge centre when g_(i+1) = sigma(g_i), that is, when the step keeps b.

    4. sigma maps reduced forms to reduced forms.  With sq = isqrt(D), a
       reduced (a, b, c) has 0 < b <= sq and sq + 1 - b <= 2|a| <= sq + b.
       As D is not a square, sq^2 - b^2 < D - b^2 = 4|ac| < (sq + 1)^2 -
       b^2, so 2|c| = (D - b^2) / 2|a| lies strictly between sq - b and
       sq + 1 + b: the same bounds hold for c.
    5. If g = (a, b, c) and rho(g) = (c, r, c') are reduced, then
       rho(c', r, c) = (c, b, a).  rho(c', r, c) leads with c, and its
       middle coefficient is the r' = -r (mod 2|c|) with sq - 2|c| < r'
       <= sq.  Since r = -b (mod 2|c|), r' = b (mod 2|c|), and b lies in
       that window by 4, so r' = b and the last coefficient is
       (b^2 - D) / 4c = a.
    6. rho is one-to-one on the reduced forms of discriminant D
       (Buchmann and Vollmer, as above), and by 4 and 5 it carries the
       reduced form sigma(rho(g)) to sigma(g).  So if the step from g_i is
       an edge centre, induction from sigma(g_(i+1)) = g_i gives
       sigma(g_(i+1+k)) = g_(i-k) for every k: the cycle is its own mirror
       image, and the lead of g_(i+1+k), the c of g_(i-k), is the lead of
       g_(i+1-k).  The leads alternate in sign, so the cycle has even
       length L, and the step from g_j is a centre iff g_j =
       sigma(g_(j+1)) = g_(2i-j), iff j = i (mod L/2): there are two
       centres, L/2 steps apart.  The leads of g_(i+1), ..., g_(i+L/2) and
       the c of g_(i+L/2), which leads g_(i+1+L/2), are all the leads.
       Only ambiguous classes, those equal to their inverse, have such
       cycles, since (c, b, a) is properly equivalent to (a, -b, c); every
       (a, b, c) with a | b, diagonal forms among them, is ambiguous.

    mu reduces f once and asks `_mu_walk` about the reduced form; its
    `lru_cache` keeps the answers for the 64 most recently used.  mu never
    reads a cycle record, even one that `represents`,
    `representation_witness` or `binary_roots` has left.  `_mu_walk`
    streams the cycle in O(1) memory, keeping the running maximum of the
    negative leads.  It stops at a c of -1, since no negative value is
    larger; at its second edge centre, counting the step into the start as
    one when rho(sigma(start)) = start, by 6; and at the start again on a
    cycle with no centre.  An ambiguous cycle whose first centre in walk
    order is step i >= -1 is read in i + L/2 + 1 forms: L/2 when the start
    follows a centre, as the start of every diagonal form tried does, and
    at most L - 1, since one of the two centres lies in -1..L/2 - 2.  It
    never builds a record.
    """
    if not is_anisotropic(f):
        raise IsotropicFormError(
            "mu is undefined for isotropic forms in this toolkit")
    return _mu_walk(_reduce(f)[0])


# -- automorphs and root norms ----------------------------------------------

def fundamental_automorph(f: BinaryForm):
    """A proper automorph of f with trace > 2 (anisotropic forms only).

    Acts on column vectors: M^T G M = G for the Gram matrix G of f.  M is
    ((t - b u)/2, -c u; a u, (t + b u)/2) for a solution of t^2 - D u^2 = 4:
    (2x, y) from the unit of x^2 - (D/4) y^2 = 1 when b is even, else
    (2x, 2y) from that of x^2 - D y^2 = 1.
    """
    if not is_anisotropic(f):
        raise IsotropicFormError("isotropic forms have no hyperbolic automorph")
    a, b, c = f.a, f.b, f.c
    even = b % 2 == 0
    s = pell_fundamental(f.disc // 4 if even else f.disc)
    t, u = 2 * s.x, (s.y if even else 2 * s.y)
    return (((t - b * u) // 2, -c * u), (a * u, (t + b * u) // 2))


def _mat2_inv_unimodular(m):
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if abs(d) != 1:
        raise InternalCheckError("matrix is not unimodular")
    return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _canonical_witness(auto, v):
    """Deterministic representative of the orbit of v (up to sign) under the
    fundamental automorph auto, or of v alone when auto is None (square
    discriminant).

    Walks the orbit to minimal coordinate size, then takes the
    lexicographically largest among the minimal vectors and their
    negatives.
    """
    if auto is None:
        return max(v, (-v[0], -v[1]))
    steps = (auto, _mat2_inv_unimodular(auto))
    x, y = v
    key = (abs(x) + abs(y), abs(x), abs(y))
    for (p, q), (r, s) in steps:
        while True:
            nx, ny = p * x + q * y, r * x + s * y
            nkey = (abs(nx) + abs(ny), abs(nx), abs(ny))
            if nkey >= key:
                break
            x, y, key = nx, ny, nkey
    cands = [(x, y)]
    for (p, q), (r, s) in steps:
        wx, wy = x, y
        for _ in range(2):
            wx, wy = p * wx + q * wy, r * wx + s * wy
            if (abs(wx) + abs(wy), abs(wx), abs(wy)) == key:
                cands.append((wx, wy))
    return max(max(cands), max((-wx, -wy) for wx, wy in cands))


def _class_matrix(rec, g_red, q):
    """r q^-1 for the class (m, b, c) with (m, b, c)∘q = g_red in the cycle
    record rec: r is the product of the stored steps from the start (index
    0) to g_red, by `_step_product`.  For f∘p = start, the first column of
    p r q^-1 is the class's primitive solution of f = m."""
    _, _, pos, _, steps = rec
    return _mat2_mul(_step_product(steps[:pos[g_red]]), _mat2_inv_unimodular(q))


def _class_witness(f: BinaryForm, p, m: int, w):
    """The first column of p w, for f∘p = start and a `_class_matrix` w of
    start's cycle, checked to be a primitive solution of f = m."""
    v = _apply(p, (w[0][0], w[1][0]))
    if f.value(*v) != m or gcd(v[0], v[1]) != 1:
        raise InternalCheckError(
            f"transform produced a bad witness {v} for {m}")
    return v


def _gram_exponent(a: int, h: int, c: int) -> int:
    """Exponent of the discriminant group of the nondegenerate Gram matrix
    ((a, h), (h, c)): its invariant factors are g = gcd(a, h, c), the gcd
    of the 1x1 minors, and |ac - h^2| / g."""
    return abs(a * c - h * h) // gcd(a, h, c)


@lru_cache(maxsize=_RECORD_SLOTS)
def _twice_e_divisors(e: int):
    """divisors(2 e): the candidate root norms, up to sign, of a lattice
    whose discriminant group has exponent e."""
    return divisors(2 * e)


@lru_cache(maxsize=_RECORD_SLOTS)
def _root_classes(start):
    """The root classes of the forms of even b whose reduced form is start:
    (m, w) for each norm m that has one, in decreasing m, where w is the
    `_class_matrix` of the first class that `_first_class` finds among
    b in {0, |m|}.  The norms tried are -d for d in `_twice_e_divisors(e)`,
    and e = (D/4) / content is fixed by start."""
    a, b, c = start
    rec = _cycle(start)
    disc, *_ = rec
    out = []
    for d in _twice_e_divisors(_gram_exponent(a, b // 2, c)):
        cls = _first_class(rec, -d, (r for r in (0, d)
                                     if (r * r - disc) % (4 * d) == 0))
        if cls is not None:
            out.append((-d, _class_matrix(rec, *cls)))
    return tuple(out)


def binary_roots(f: BinaryForm):
    """Complete list of achievable negative root norms with one witness each.

    Root norms divide twice the exponent of the discriminant group, which
    makes the candidate set finite; within a norm, the root condition
    m | 2 div(v) is invariant under the orthogonal group, so one test per
    representation class decides it.

    Lemma: only the classes with b = 0 mod |m| hold roots.  Let M be
    unimodular with first column v and f∘M = (m, b, c).  The pairings of v
    with the basis M are (m, b/2), so div(v) = gcd(m, b/2), and v is a root
    iff m | 2 gcd(m, b/2), that is, iff m | b.  The class fixes b modulo
    2|m|, so of the square roots b in [0, 2|m|) of D mod 4|m| only 0 and |m|
    can carry a root; each takes one congruence test, with no
    factorisation.  `_first_class` returns the first of them, in increasing
    b, whose form reduces into f's cycle, which is the first class that
    passes the root test.

    The class search depends on f's cycle alone, so `_root_classes` keeps,
    for the 64 most recently used reduced start forms, the matrix of each
    root class from the start, and the divisors of 2e come from
    `_twice_e_divisors`.  Each call reduces f once, to start by p, and for
    each root class checks that the first column v of p w solves f = m
    primitively, re-checks the root test on the pairings of v, and makes v
    canonical with the automorph, computed once, at the first root.
    """
    a, h, c, disc = f.a, f._half_b(), f.c, f.disc

    def is_root(v, m):
        return not 2 * gcd(a * v[0] + h * v[1], h * v[0] + c * v[1]) % m

    out = []
    if is_square(disc):
        for d in _twice_e_divisors(_gram_exponent(a, h, c)):
            v = next((v for v in sorted(_square_disc_solutions(f, -d))
                      if gcd(*v) == 1 and is_root(v, d)), None)
            if v is not None:
                out.append((-d, _canonical_witness(None, v)))
        return tuple(out)
    start, p = _reduce(f)
    auto = None
    for m, w in _root_classes(start):
        v = _class_witness(f, p, m, w)
        if not is_root(v, m):
            raise InternalCheckError(
                f"the witness {v} of a root class of norm {m} is not a root")
        if auto is None:
            auto = fundamental_automorph(f)
        out.append((m, _canonical_witness(auto, v)))
    return tuple(out)
