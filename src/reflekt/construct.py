"""Explicit constructions of binary anisotropic lattices avoiding prescribed
negative values, with machine-checkable certificates.

Three builders live here:

* avoid_roots(n, b): a product of primes p_1..p_n, each chosen so that -k
  is a quadratic nonresidue mod p_k, making x^2 - ab y^2 miss 0, -1, .., -n.
  Since x^2 - ab y^2 = x^2 (mod p_k), validation is n residue checks and a
  fixed brute-force box, with no cycle walk.
* pell_family(a): the discriminant a^2 - 1 family, whose largest negative
  represented value is exactly 2 - 2a.
* mj_family(...): binary sublattices of an ambient lattice that contain a
  given positive vector h, are anisotropic, meet the h-complement in a
  primitive vector of strictly decreasing norm, and represent nothing in
  [-d*N, -1].

Each certificate re-validates from scratch; `verify` in the CLI runs the
same checks on saved JSON.  The mj arithmetic is in integers, every pairing
through `Lattice.evaluate`/`norm`: every denominator divides m, so m f~ and
m u_a are integer vectors, and Fractions are made only for the certificate's
f~ and u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from . import binary, intlinalg
from .arith import (DEFAULT_EFFORT_LIMIT, DETERMINISTIC_PRIMALITY_BOUND, gcd_ext,
                    int_vector, is_nonresidue, is_prime, jacobi, nonresidue_prime)
from .errors import (ConstructionError, DependentBasisError, EffortLimitExceeded,
                     InternalCheckError, InvalidInputError, SpanMismatchError)
from .lattice import Lattice, Sublattice

DEFAULT_SEARCH_BOX = 10
DEFAULT_CANDIDATE_CAP = 10_000

STRATEGY_PELL = "pell"
STRATEGY_PRIMES = "primes"


def _validated(validate, cert):
    """cert, once validate(cert) reports no failure; a failure is a bug."""
    failures = validate(cert)
    if failures:
        raise InternalCheckError(
            "freshly built certificate failed validation: " + "; ".join(failures))
    return cert


def _brute_force_failures(a, b, c, bound):
    """The k in 0..bound with a x^2 + b xy + c y^2 = -k for some nonzero
    (x, y) with |x|, |y| <= 50, as at most one failure line giving their
    count and the smallest: an oracle independent of `binary`.  Since
    f(-v) = f(v), the half box x > 0, or x = 0 < y, has the same values."""
    vals = {c * y * y for y in range(1, 51)}
    for x in range(1, 51):
        ax, bx = a * x * x, b * x
        vals.update(ax + (bx + c * y) * y for y in range(-50, 51))
    hits = [-v for v in vals if -bound <= v <= 0]
    if not hits:
        return []
    return [f"brute force found -k represented for {len(hits)} k in "
            f"0..{bound}, the smallest k = {min(hits)}"]


# -- avoid-roots construction -------------------------------------------------

@dataclass(frozen=True)
class AvoidRootsCertificate:
    """Primes p_k with (-k/p_k) = -1, their product a, and the form x^2 - ab y^2."""

    n: int
    b: int
    primes: tuple[tuple[int, int], ...]  # (k, p_k)
    a: int
    form: binary.BinaryForm


def _nonresidue_primes(n, b, used, effort_limit):
    """((k, p_k) for k = 1..n): p_k is the smallest prime above b, not in
    `used`, with -k a nonresidue mod p_k.  Each p_k joins `used`, so repeated
    calls sharing one set give distinct primes.  Each k costs at least one
    candidate, so n > effort_limit is refused before any search."""
    if n > effort_limit:
        raise EffortLimitExceeded(
            f"{n} nonresidue primes need at least {n} candidates, more than "
            f"the effort limit {effort_limit}")
    primes = []
    for k in range(1, n + 1):
        p = nonresidue_prime(k, exclude=frozenset(used), minimum=b + 1,
                             effort_limit=effort_limit)
        used.add(p)
        primes.append((k, p))
    return tuple(primes)


def avoid_roots(n: int, b: int,
                effort_limit: int = DEFAULT_EFFORT_LIMIT) -> AvoidRootsCertificate:
    """Smallest-prime certificate that x^2 - ab y^2 represents none of 0..-n;
    its primes are distinct, greater than b, and chosen greedily for k = 1..n.

    effort_limit caps the candidates of each prime search and, as each k
    costs at least one, n itself: n > effort_limit raises
    EffortLimitExceeded before any search."""
    n, b, effort_limit = int_vector((n, b, effort_limit))
    if n < 1 or b < 1:
        raise InvalidInputError("avoid_roots needs n >= 1 and b >= 1")
    if effort_limit < 1:
        raise InvalidInputError("effort limit must be positive")
    primes = _nonresidue_primes(n, b, set(), effort_limit)
    a = prod(p for _, p in primes)
    return _validated(validate_avoid_roots, AvoidRootsCertificate(
        n=n, b=b, primes=primes, a=a, form=binary.BinaryForm.from_d(a * b)))


def validate_avoid_roots(cert: AvoidRootsCertificate) -> list[str]:
    """Re-run every invariant from scratch; returns a list of failures.

    The Euler checks decide the whole range, and no cycle is walked.
    Lemma: if the prime list covers k = 1..n, each p_k is an odd prime with
    -k a nonresidue mod p_k by Euler's criterion, a is their product and
    the form is (1, 0, -ab), then no k in 1..n is represented, and 0 is
    represented iff ab is a square.  Proof: p_k divides a, so
    x^2 - ab y^2 = -k would give x^2 = -k (mod p_k), a square (Cox, *Primes
    of the Form x^2 + ny^2*, 2nd ed., section 3).  Euler's criterion fails
    for p_k = 2 and for p_k | k, where every residue, or -k = 0, is a
    square.  So the work is n residue checks plus the fixed brute-force
    box, never a walk whose length grows with a stored integer.
    """
    out = []
    if cert.n < 1 or cert.b < 1:
        out.append("n and b must be positive")
    ks = [k for k, _ in cert.primes]
    ps = [p for _, p in cert.primes]
    if len(ks) != cert.n or ks != list(range(1, cert.n + 1)):
        out.append(f"prime list must cover k = 1..{cert.n}")
    if len(set(ps)) != len(ps):
        out.append("primes are not distinct")
    prod = 1
    for k, p in cert.primes:
        prod *= p
        in_range = 0 < p < DETERMINISTIC_PRIMALITY_BOUND
        prime = in_range and is_prime(p)
        if not prime:
            out.append(f"{p} is not prime" if in_range
                       else f"{p} is not a prime below 2^64")
        if p <= cert.b:
            out.append(f"prime {p} is not greater than b = {cert.b}")
        if not prime:
            continue
        if p != 2 and jacobi(-k, p) != -1:
            out.append(f"-{k} is a quadratic residue mod {p}")
        # the direct contract, independent of the symbol machinery
        if not is_nonresidue(-k, p):
            out.append(f"direct check found x with x^2 = -{k} mod {p}")
    if prod != cert.a:
        out.append(f"a = {cert.a} is not the product of the primes")
    ab = cert.a * cert.b
    if binary.is_square(ab):
        out.append(f"ab = {ab} is a square; the form is isotropic")
    if (cert.form.a, cert.form.b, cert.form.c) != (1, 0, -ab):
        out.append("certificate form does not match (1, 0, -ab)")
    out += _brute_force_failures(1, 0, -ab, cert.n)
    return out


# -- Pell (a^2 - 1) family ----------------------------------------------------

@dataclass(frozen=True)
class PellFamilyCertificate:
    a: int
    d: int                       # a^2 - 1
    mu: int                      # 2 - 2a
    witness: tuple[int, int]     # (a - 1, 1)


def pell_family(a: int) -> PellFamilyCertificate:
    """The discriminant a^2 - 1 and its extreme value 2 - 2a with witness.

    The value is recomputed by the complete decision; a mismatch would be a
    genuine falsification and is raised loudly rather than returned.
    """
    (a,) = int_vector((a,))
    if a < 2:
        raise InvalidInputError(f"pell_family needs a >= 2, got {a}")
    return _validated(validate_pell_family, PellFamilyCertificate(
        a=a, d=a * a - 1, mu=2 - 2 * a, witness=(a - 1, 1)))


def validate_pell_family(cert: PellFamilyCertificate) -> list[str]:
    out = []
    if cert.a < 2:
        out.append("a must be >= 2")
        return out
    if cert.d != cert.a ** 2 - 1:
        out.append(f"d = {cert.d} is not a^2 - 1")
        return out
    if cert.mu != 2 - 2 * cert.a:
        out.append(f"mu = {cert.mu} is not 2 - 2a")
    form = binary.BinaryForm.from_d(cert.d)
    if form.value(*cert.witness) != cert.mu:
        out.append("witness does not attain mu")
    if gcd(cert.witness[0], cert.witness[1]) != 1:
        out.append("witness is imprimitive")
    if binary.mu(form) != cert.mu:
        out.append("complete decision disagrees with the stored mu")
    return out


def select_pell_a(n: int) -> int:
    """Smallest a >= 2 with a > 1 + n/2, so that 2 - 2a < -n."""
    (n,) = int_vector((n,))
    if n < 1:
        raise InvalidInputError(f"select_pell_a needs n >= 1, got {n}")
    return max(2, n // 2 + 2)


# -- the ambient M_j construction ---------------------------------------------

@dataclass(frozen=True)
class MjEntry:
    a: int
    u: tuple[Fraction, ...]          # ambient rational coordinates
    m_factor: int                    # minimal multiple with m_factor*u integral
    v: tuple[int, ...]               # m_factor * u, primitive in h-complement
    basis: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    mu: int
    index: int                       # [M_j : Zv + Zh], divides T


@dataclass(frozen=True)
class MjCertificate:
    ambient: Lattice
    h: tuple[int, ...]
    d: int
    big_n: int
    strategy: str
    threshold: int                   # N * T^2
    e: tuple[int, ...]               # primitive isotropic vector of the h-complement
    m: int                           # divisibility of e inside the h-complement
    f_tilde: tuple[Fraction, ...]
    t_index: int
    entries: tuple[MjEntry, ...]


def _h_complement(ambient: Lattice, h):
    """(h, d = q(h), the h-complement, T = [ambient : complement + Zh]).

    The complement is a kernel, so it is saturated and equals
    {v in Z^n : (v, h) = 0}: an integer vector lies in it iff it pairs to 0
    with h, and is primitive there iff its entries have gcd 1.
    """
    h = ambient._check_vector(h)
    g = gcd(*h)
    if g != 1:
        raise InvalidInputError(f"h = {h} must be primitive (content {g})")
    d = ambient.norm(h)
    if d <= 0:
        raise InvalidInputError(f"h must have positive norm, got q(h) = {d}")
    comp = Sublattice(ambient, (h,)).orthogonal_complement()
    # the rows are independent (h is off h^perp, as q(h) > 0), so |det| is
    # the index of their span in Z^n
    return h, d, comp, abs(intlinalg.det(comp.basis + (h,)))


def _find_isotropic(comp: Sublattice, search_box: int):
    """Smallest-box primitive isotropic vector of the restriction.

    Growing the box by one means the first nonempty search holds exactly
    the vectors of minimal coordinate size; ties break lexicographically.
    Returns the vector in ambient coordinates.
    """
    restricted = comp.as_lattice()
    for box in range(1, search_box + 1):
        vs = restricted.enumerate_norm_vectors(0, box)
        if vs:
            return intlinalg.mat_vec(intlinalg.transpose(comp.basis), vs[0])
    raise ConstructionError(
        f"no isotropic vector found with coefficients up to {search_box}; "
        "raise the search box")


def _isotropic_partner(comp: Sublattice, e, m: int):
    """The integer vector f = m f~, for the isotropic f~ with (e~, f~) = 1 in
    the overlattice spanned by the complement and e~ = e/m.

    The search runs in the overlattice's integer coordinates: the rows of
    span / m form its basis, so its Gram matrix is span G span^T / m^2.  An
    extended-gcd chain gives x with (e~, x) = 1, and f~ = x - (q(x)/2) e~
    once q(x) is even.  On an integral lattice q(x + y) = q(x) + q(y) +
    2(x, y), so the norm mod 2 is additive: a vector orthogonal to e~ of
    odd norm exists iff some basis row of that kernel has odd norm, and
    then a sum of rows with coefficients in {-1, 0, 1} has it.  If none
    does, every x with (e~, x) = 1 has odd norm and no partner exists.
    In ambient coordinates f = span^T x - (q(x)/2) e, and the two defining
    properties read q(f) = 0 and (e, f) = m^2.
    """
    ambient = comp.ambient
    span = intlinalg.hermite_row_basis(
        tuple(tuple(m * x for x in row) for row in comp.basis) + (tuple(e),))
    sg = intlinalg.mat_mul(span, ambient.gram)
    over = intlinalg.mat_mul(sg, intlinalg.transpose(span))
    pairings = intlinalg.mat_vec(sg, e)
    mm = m * m
    if any(x % mm for x in pairings) or any(x % mm for row in over for x in row):
        raise InternalCheckError("overlattice is not integral")
    norm = Lattice(tuple(tuple(x // mm for x in row) for row in over)).norm
    pairings = tuple(x // mm for x in pairings)
    g, x = 0, [0] * len(pairings)
    for i, p in enumerate(pairings):
        g, s, t = gcd_ext(g, p)
        x = [c * s for c in x]
        x[i] = t
    if g != 1:
        raise InternalCheckError(f"pairing ideal of e~ is {g}Z, expected Z")
    if norm(x) % 2:
        kern = intlinalg.kernel((pairings,))
        shifts = (intlinalg.mat_vec(intlinalg.transpose(kern), c)
                  for c in product((-1, 0, 1), repeat=len(kern)))
        w = next((w for w in shifts if norm(w) % 2), None)
        if w is None:
            raise ConstructionError(
                "no isotropic partner: no vector orthogonal to e~ has odd norm")
        x = [a + b for a, b in zip(x, w)]
    half = norm(x) // 2
    f = tuple(a - half * b for a, b in
              zip(intlinalg.mat_vec(intlinalg.transpose(span), x), e))
    if ambient.norm(f) != 0:
        raise InternalCheckError("partner vector is not isotropic")
    if ambient.evaluate(e, f) != mm:
        raise InternalCheckError("partner vector does not pair to 1 with e~")
    return f


def mj_family(ambient: Lattice, h, big_n: int, count: int,
              strategy: str = STRATEGY_PELL, search_box: int = DEFAULT_SEARCH_BOX,
              effort_limit: int = DEFAULT_EFFORT_LIMIT) -> MjCertificate:
    """Binary anisotropic sublattices through h missing all of [-d*N, -1].

    The construction: take a primitive isotropic e in the h-complement with
    pairing ideal mZ, extend by e/m to an integral overlattice, find an
    isotropic partner f~ with (e/m, f~) = 1, and set u_a = e/m - d*a*f~ of
    norm -2da.  A strategy supplies a strictly increasing sequence of a; the
    primes strategy uses the avoid_roots recipe's primes directly, fresh ones
    for each a, and builds no avoid-roots certificate.  effort_limit caps
    each of its prime searches and, as in `avoid_roots`, their number per
    a: the threshold N*T^2 (T the index of complement + Zh) above
    effort_limit raises EffortLimitExceeded before any search.  Each
    candidate entry is accepted only after every final check passes
    directly on the saturated sublattice spanned by v (the primitive
    generator below u_a) and h.
    """
    big_n, count, search_box, effort_limit = int_vector(
        (big_n, count, search_box, effort_limit))
    if big_n < 1 or count < 1:
        raise InvalidInputError("mj_family needs N >= 1 and count >= 1")
    if search_box < 1 or effort_limit < 1:
        raise InvalidInputError("search box and effort limit must be positive")
    if strategy not in (STRATEGY_PELL, STRATEGY_PRIMES):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    pos, neg = ambient.signature()
    if pos != 3 or ambient.rank < 6:
        raise InvalidInputError(
            f"wrong signature: need (3, r-3) with r >= 6, got ({pos},{neg})")
    h, d, comp, t_index = _h_complement(ambient, h)
    threshold = big_n * t_index * t_index

    e = _find_isotropic(comp, search_box)
    # its divisibility in the complement: the gcd of its pairings with the
    # complement's basis
    m = gcd(*intlinalg.mat_vec(intlinalg.mat_mul(comp.basis, ambient.gram), e))
    f = _isotropic_partner(comp, e, m)

    entries = []
    a = None
    prev_norm = 0
    used: set[int] = set()
    tried = 0
    while len(entries) < count:
        tried += 1
        if tried > DEFAULT_CANDIDATE_CAP:
            raise ConstructionError(
                f"no acceptable candidate within {DEFAULT_CANDIDATE_CAP} attempts")
        if strategy == STRATEGY_PELL:
            a = (select_pell_a(threshold) if a is None else a + 1)
        else:
            a = prod(p for _, p in _nonresidue_primes(threshold, 2, used,
                                                        effort_limit))
        result = _build_entry(ambient, h, d, e, f, m, a, big_n, t_index)
        if result is None:
            continue
        entry, norm_v = result
        if norm_v >= prev_norm:
            continue
        prev_norm = norm_v
        entries.append(entry)

    return _validated(validate_mj, MjCertificate(
        ambient=ambient, h=h, d=d, big_n=big_n, strategy=strategy,
        threshold=threshold, e=e, m=m, f_tilde=tuple(Fraction(x, m) for x in f),
        t_index=t_index, entries=tuple(entries)))


def _build_entry(ambient, h, d, e, f, m, a, big_n, t_index):
    """(entry, q(v)) for the candidate a, or None if a direct check rejects
    it.

    The work is on the integer vector w = e - d a f = m u_a, of norm
    -2 d a m^2.  With g = gcd(m, w_1, .., w_r), the least k >= 1 with k u_a
    = k w / m integral is m / g: m divides every k w_i iff m divides k times
    the content c of w, iff m / gcd(m, c) divides k.  So m_factor = m / g,
    v = w / g, and u_a = w / m is made a Fraction only for the entry kept.
    """
    w = tuple(x - d * a * y for x, y in zip(e, f))
    qw = ambient.norm(w)
    if qw != -2 * d * a * m * m:
        raise InternalCheckError(f"q(m u_a) = {qw}, expected {-2 * d * a * m * m}")
    g = gcd(m, *w)
    v = tuple(x // g for x in w)
    if gcd(*v) != 1:
        raise InternalCheckError(f"v = {v} is imprimitive")
    if ambient.evaluate(v, h) != 0:
        raise InternalCheckError("v does not pair to zero with h")
    span = Sublattice(ambient, (v, h))
    mj = span.saturate()
    gram = mj.gram_matrix()
    form = binary.BinaryForm.from_gram(Lattice(gram))
    if not binary.is_anisotropic(form):
        return None
    mu_val = binary.mu(form)
    if mu_val >= -d * big_n:
        return None
    index = span.index_in(mj)
    if t_index % index != 0:
        raise InternalCheckError(
            f"index {index} of the span inside its saturation does not divide "
            f"T = {t_index}")
    entry = MjEntry(a=a, u=tuple(Fraction(x, m) for x in w), m_factor=m // g,
                    v=v, basis=mj.basis, gram=gram, mu=mu_val, index=index)
    return entry, qw // (g * g)


def validate_mj(cert: MjCertificate) -> list[str]:
    """Re-run all certificate invariants from scratch.

    The stored rationals are checked in integers too: with k the lcm of
    f~'s denominators, (e~, f~) = 1 and q(f~) = 0 are (e, k f~) = m k and
    q(k f~) = 0.
    """
    out = []
    try:
        _, d, comp, t = _h_complement(cert.ambient, cert.h)
    except InvalidInputError as exc:
        return [str(exc)]
    r = cert.ambient.rank
    if len(cert.e) != r or len(cert.f_tilde) != r:
        return [f"e and f~ must have {r} coordinates"]
    if cert.m < 1:
        return [f"m = {cert.m} is not positive"]
    if d != cert.d:
        out.append(f"stored d = {cert.d}, recomputed {d}")
    pos, neg = cert.ambient.signature()
    if pos != 3 or cert.ambient.rank < 6:
        out.append(f"ambient signature ({pos},{neg}) out of contract")
    if cert.ambient.norm(cert.e) != 0:
        out.append("e is not isotropic")
    # the complement is {v : (v, h) = 0}, read in ambient coordinates
    if cert.ambient.evaluate(cert.e, cert.h) != 0:
        out.append("e does not lie in the h-complement")
    else:
        if gcd(*cert.e) != 1:
            out.append("e is imprimitive in the h-complement")
        if any(cert.e):  # the zero vector has no divisibility
            m = gcd(*intlinalg.mat_vec(
                intlinalg.mat_mul(comp.basis, cert.ambient.gram), cert.e))
            if m != cert.m:
                out.append(f"stored m = {cert.m}, recomputed {m}")
    k = lcm(*(x.denominator for x in cert.f_tilde))
    kf = tuple(int(x * k) for x in cert.f_tilde)
    if cert.ambient.evaluate(cert.e, kf) != cert.m * k:
        out.append("(e~, f~) != 1")
    if cert.ambient.norm(kf) != 0:
        out.append("f~ is not isotropic")
    if t != cert.t_index:
        out.append(f"stored T = {cert.t_index}, recomputed {t}")
    if cert.threshold != cert.big_n * t * t:
        out.append("threshold is not N*T^2")

    prev = 0
    for idx, entry in enumerate(cert.entries):
        tag = f"entry {idx}"
        if len(entry.u) != r or len(entry.v) != r:
            out.append(f"{tag}: u and v must have {r} coordinates")
            continue
        if entry.m_factor < 1:
            out.append(f"{tag}: m_factor = {entry.m_factor} is not positive")
            continue
        expect_u = tuple(Fraction(x, cert.m) - cert.d * entry.a * ft
                         for x, ft in zip(cert.e, cert.f_tilde))
        if tuple(entry.u) != expect_u:
            out.append(f"{tag}: u does not equal e~ - d*a*f~")
        v = entry.v
        if tuple(v) != tuple(entry.m_factor * x for x in entry.u):
            out.append(f"{tag}: v != m_factor * u")
        if cert.m % entry.m_factor != 0:
            out.append(f"{tag}: m_factor does not divide m")
        if gcd(*v) != 1:
            out.append(f"{tag}: v is imprimitive")
        if cert.ambient.evaluate(v, cert.h) != 0:
            out.append(f"{tag}: (v, h) != 0")
        try:
            span = Sublattice(cert.ambient, (v, cert.h))
            mj = Sublattice(cert.ambient, entry.basis)
        except (InvalidInputError, DependentBasisError) as exc:
            out.append(f"{tag}: bad basis ({exc})")
            continue
        if mj.rank != 2:
            out.append(f"{tag}: stored basis does not have rank 2")
            continue
        if mj.index_in(mj.saturate()) != 1:
            out.append(f"{tag}: stored basis is not primitive")
        if not mj.contains(cert.h):
            out.append(f"{tag}: h is not in the sublattice")
        if not mj.contains(v):
            out.append(f"{tag}: v is not in the sublattice")
        if mj.gram_matrix() != entry.gram:
            out.append(f"{tag}: stored gram disagrees with the basis")
            continue
        if intlinalg.det(entry.gram) >= 0:
            out.append(f"{tag}: gram determinant is not negative")
            continue
        form = binary.BinaryForm.from_gram(Lattice(entry.gram))
        if not binary.is_anisotropic(form):
            out.append(f"{tag}: gram is isotropic")
            continue
        mu_val = binary.mu(form)
        if mu_val != entry.mu:
            out.append(f"{tag}: stored mu = {entry.mu}, recomputed {mu_val}")
        # mu is the complete decision for all of -1..-d*N at once
        if mu_val >= -cert.d * cert.big_n:
            out.append(f"{tag}: mu = {mu_val} is not below {-cert.d * cert.big_n}")
        out += [f"{tag}: {line}" for line in _brute_force_failures(
            form.a, form.b, form.c, cert.d * cert.big_n)]
        try:
            idx_val = span.index_in(mj)
        except SpanMismatchError:
            pass  # v or h lies outside the sublattice, reported above
        else:
            if idx_val != entry.index:
                out.append(f"{tag}: stored index {entry.index}, recomputed {idx_val}")
            if t % idx_val != 0:
                out.append(f"{tag}: index {idx_val} does not divide T = {t}")
        qv = cert.ambient.norm(v)
        if qv >= prev:
            out.append(f"{tag}: q(v) = {qv} is not strictly decreasing")
        prev = qv
    return out


# -- complements of norm-d vectors ---------------------------------------------

@dataclass(frozen=True)
class NvComplementEntry:
    h: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    fingerprint: tuple
    fingerprint_class: int


def nv_complements(lat: Lattice, d: int, box: int) -> tuple[NvComplementEntry, ...]:
    """Orthogonal complements of all primitive norm-d vectors in the box.

    The fingerprint (rank, determinant, invariant factors, signature) is a
    cheap isometry invariant; entries sharing one are flagged with the same
    class index as possibly isometric.  Completeness beyond the box is not
    claimed, and no attempt is made to classify vectors up to the ambient
    orthogonal group.  If (2*box+1)**(rank-1) exceeds DEFAULT_EFFORT_LIMIT,
    EffortLimitExceeded is raised before anything is enumerated.
    """
    (d,) = int_vector((d,))
    if d <= 0:
        raise InvalidInputError(f"d must be positive, got {d}")
    lat.check_prefix_budget(box)
    entries = []
    fingerprints = []
    for h in lat.enumerate_norm_vectors(d, box):
        comp = Sublattice(lat, (h,)).orthogonal_complement()
        gram = comp.gram_matrix()
        comp_lat = Lattice(gram)
        disc = comp_lat.discriminant()
        fp = (comp.rank, comp_lat.determinant(), disc.invariant_factors,
              comp_lat.signature())
        if fp in fingerprints:
            cls = fingerprints.index(fp)
        else:
            cls = len(fingerprints)
            fingerprints.append(fp)
        entries.append(NvComplementEntry(
            h=h, basis=comp.basis, gram=gram, fingerprint=fp,
            fingerprint_class=cls))
    return tuple(entries)


def validate_nv(lat: Lattice, d: int, box: int,
                entries: tuple[NvComplementEntry, ...]) -> list[str]:
    out = []
    fresh = nv_complements(lat, d, box)
    if len(fresh) != len(entries):
        out.append(f"expected {len(fresh)} entries, certificate has {len(entries)}")
        return out
    for got, want in zip(entries, fresh):
        if got != want:
            out.append(f"entry for h = {got.h} does not re-derive")
            continue
        for row in got.basis:
            if lat.evaluate(row, got.h) != 0:
                out.append(f"complement row {row} does not pair to zero with {got.h}")
    return out
