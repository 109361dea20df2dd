"""Explicit constructions of binary anisotropic lattices avoiding prescribed
negative values, with machine-checkable certificates.

Three builders live here:

* avoid_roots(n, b): a product of primes p_1..p_n, each chosen so that -k
  is a quadratic nonresidue mod p_k, making x^2 - ab y^2 miss 0, -1, .., -n.
* pell_family(a): the discriminant a^2 - 1 family, whose largest negative
  represented value is exactly 2 - 2a.
* mj_family(...): binary sublattices of an ambient lattice that contain a
  given positive vector h, are anisotropic, meet the h-complement in a
  primitive vector of strictly decreasing norm, and represent nothing in
  [-d*N, -1].

Each certificate re-validates from scratch; `verify` in the CLI runs the
same checks on saved JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from . import binary, intlinalg
from .arith import (DEFAULT_EFFORT_LIMIT, DETERMINISTIC_PRIMALITY_BOUND,
                    gcd_ext, is_nonresidue, is_prime, jacobi, nonresidue_prime)
from .errors import (ConstructionError, DependentBasisError, InternalCheckError,
                     InvalidInputError, SpanMismatchError)
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
    vals = {a * x * x + b * x * y + c * y * y
            for x in range(1, 51) for y in range(-50, 51)}
    vals.update(c * y * y for y in range(1, 51))
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


def avoid_roots(n: int, b: int, exclude=frozenset(),
                effort_limit: int = DEFAULT_EFFORT_LIMIT) -> AvoidRootsCertificate:
    """Smallest-prime certificate that x^2 - ab y^2 represents none of 0..-n.

    Primes are distinct, greater than b, and chosen greedily for k = 1..n;
    extra exclusions support generating strictly growing sequences of a.
    """
    if n < 1 or b < 1:
        raise InvalidInputError("avoid_roots needs n >= 1 and b >= 1")
    if effort_limit < 1:
        raise InvalidInputError("effort limit must be positive")
    used = set(exclude)
    primes = []
    for k in range(1, n + 1):
        p = nonresidue_prime(k, exclude=frozenset(used), minimum=b + 1,
                             effort_limit=effort_limit)
        used.add(p)
        primes.append((k, p))
    a = 1
    for _, p in primes:
        a *= p
    return _validated(validate_avoid_roots, AvoidRootsCertificate(
        n=n, b=b, primes=tuple(primes), a=a,
        form=binary.BinaryForm.from_d(a * b)))


def validate_avoid_roots(cert: AvoidRootsCertificate) -> list[str]:
    """Re-run every invariant from scratch; returns a list of failures.

    Work is bounded by the size of the certificate, never by a stored
    integer: the complete decision, one `mu` call for all of -1..-n (0 is
    represented iff ab is a square), runs only once the prime list covers
    1..n and the stored form is (1, 0, -ab).
    """
    out = []
    if cert.n < 1 or cert.b < 1:
        out.append("n and b must be positive")
    ks = [k for k, _ in cert.primes]
    ps = [p for _, p in cert.primes]
    covered = len(ks) == cert.n and ks == list(range(1, cert.n + 1))
    if not covered:
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
    isotropic = binary.is_square(ab)
    if isotropic:
        out.append(f"ab = {ab} is a square; the form is isotropic")
    form_ok = (cert.form.a, cert.form.b, cert.form.c) == (1, 0, -ab)
    if not form_ok:
        out.append("certificate form does not match (1, 0, -ab)")
    if covered and form_ok and not isotropic:
        mu_val = binary.mu(cert.form)
        if mu_val >= -cert.n:
            out.append(f"mu = {mu_val} is not below {-cert.n}")
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
    t_index = Sublattice(ambient, comp.basis + (h,)).index_in(
        Sublattice(ambient, intlinalg.identity(ambient.rank)))
    return h, d, comp, t_index


def _pair_frac(gram, u, v):
    total = Fraction(0)
    for i, row in enumerate(gram):
        if u[i]:
            total += u[i] * sum(row[j] * v[j] for j in range(len(v)))
    return total


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


def _isotropic_partner(gram, comp: Sublattice, e, m: int):
    """Isotropic f~ with (e~, f~) = 1 in the overlattice spanned by the
    complement and e~ = e/m, as a Fraction ambient vector.

    The search runs in the overlattice's integer coordinates: the rows of
    span / m form its basis, so its Gram matrix is span G span^T / m^2.  An
    extended-gcd chain gives x with (e~, x) = 1, and f~ = x - (q(x)/2) e~
    once q(x) is even.  On an integral lattice q(x + y) = q(x) + q(y) +
    2(x, y), so the norm mod 2 is additive: a vector orthogonal to e~ of
    odd norm exists iff some basis row of that kernel has odd norm, and
    then a sum of rows with coefficients in {-1, 0, 1} has it.  If none
    does, every x with (e~, x) = 1 has odd norm and no partner exists.
    """
    span = intlinalg.hermite_row_basis(
        tuple(tuple(m * x for x in row) for row in comp.basis) + (tuple(e),))
    sg = intlinalg.mat_mul(span, gram)
    over = intlinalg.mat_mul(sg, intlinalg.transpose(span))
    pairings = intlinalg.mat_vec(sg, e)
    mm = m * m
    if any(x % mm for x in pairings) or any(x % mm for row in over for x in row):
        raise InternalCheckError("overlattice is not integral")
    over = tuple(tuple(x // mm for x in row) for row in over)
    pairings = tuple(x // mm for x in pairings)

    def norm(c):
        return sum(a * b for a, b in zip(c, intlinalg.mat_vec(over, c)))

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
    f_tilde = tuple(Fraction(a - half * b, m) for a, b in
                    zip(intlinalg.mat_vec(intlinalg.transpose(span), x), e))
    if _pair_frac(gram, f_tilde, f_tilde) != 0:
        raise InternalCheckError("partner vector is not isotropic")
    if _pair_frac(gram, e, f_tilde) != m:
        raise InternalCheckError("partner vector does not pair to 1 with e~")
    return f_tilde


def mj_family(ambient: Lattice, h, big_n: int, count: int,
              strategy: str = STRATEGY_PELL, search_box: int = DEFAULT_SEARCH_BOX,
              effort_limit: int = DEFAULT_EFFORT_LIMIT) -> MjCertificate:
    """Binary anisotropic sublattices through h missing all of [-d*N, -1].

    The construction: take a primitive isotropic e in the h-complement with
    pairing ideal mZ, extend by e/m to an integral overlattice, find an
    isotropic partner f~ with (e/m, f~) = 1, and set u_a = e/m - d*a*f~ of
    norm -2da.  A strategy supplies a strictly increasing sequence of a;
    each candidate entry is accepted only after every final check passes
    directly on the saturated sublattice spanned by v (the primitive
    generator below u_a) and h.
    """
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
    e_tilde = tuple(Fraction(x, m) for x in e)
    f_tilde = _isotropic_partner(ambient.gram, comp, e, m)

    entries = []
    a = None
    prev_norm = 0
    exclude_primes: set[int] = set()
    tried = 0
    while len(entries) < count:
        tried += 1
        if tried > DEFAULT_CANDIDATE_CAP:
            raise ConstructionError(
                f"no acceptable candidate within {DEFAULT_CANDIDATE_CAP} attempts")
        if strategy == STRATEGY_PELL:
            a = (select_pell_a(threshold) if a is None else a + 1)
        else:
            cert = avoid_roots(threshold, 2, exclude=frozenset(exclude_primes),
                               effort_limit=effort_limit)
            exclude_primes.update(p for _, p in cert.primes)
            a = cert.a
        result = _build_entry(ambient, h, d, e_tilde, f_tilde, a,
                              big_n, t_index)
        if result is None:
            continue
        entry, norm_v = result
        if norm_v >= prev_norm:
            continue
        prev_norm = norm_v
        entries.append(entry)

    return _validated(validate_mj, MjCertificate(
        ambient=ambient, h=h, d=d, big_n=big_n, strategy=strategy,
        threshold=threshold, e=e, m=m, f_tilde=f_tilde,
        t_index=t_index, entries=tuple(entries)))


def _build_entry(ambient, h, d, e_tilde, f_tilde, a, big_n, t_index):
    """Assemble one candidate entry, or None if a direct check rejects it."""
    u = tuple(et - d * a * ft for et, ft in zip(e_tilde, f_tilde))
    qu = _pair_frac(ambient.gram, u, u)
    if qu != -2 * d * a:
        raise InternalCheckError(f"q(u_a) = {qu}, expected {-2 * d * a}")
    m_factor = lcm(*(x.denominator for x in u))
    v = tuple(int(x * m_factor) for x in u)
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
    entry = MjEntry(a=a, u=u, m_factor=m_factor, v=v, basis=mj.basis,
                    gram=gram, mu=mu_val, index=index)
    return entry, ambient.norm(v)


def validate_mj(cert: MjCertificate) -> list[str]:
    """Re-run all certificate invariants from scratch."""
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
    e_tilde = tuple(Fraction(x, cert.m) for x in cert.e)
    if _pair_frac(cert.ambient.gram, e_tilde, cert.f_tilde) != 1:
        out.append("(e~, f~) != 1")
    if _pair_frac(cert.ambient.gram, cert.f_tilde, cert.f_tilde) != 0:
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
        expect_u = tuple(et - cert.d * entry.a * ft
                         for et, ft in zip(e_tilde, cert.f_tilde))
        if tuple(entry.u) != expect_u:
            out.append(f"{tag}: u does not equal e~ - d*a*f~")
        v = entry.v
        if tuple(Fraction(x) for x in v) != tuple(entry.m_factor * x for x in entry.u):
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
        sat = mj.saturate()
        try:
            if mj.index_in(sat) != 1:
                out.append(f"{tag}: stored basis is not primitive")
        except SpanMismatchError:
            out.append(f"{tag}: stored basis span mismatch")
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


# -- complements of norm-d vectors and rescaling -------------------------------

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
        fp = (comp.rank, intlinalg.det(gram), disc.invariant_factors,
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


def rescaling_family(lat: Lattice, n: int) -> tuple[Lattice, ...]:
    """[L(1), ..., L(n)]."""
    if n < 1:
        raise InvalidInputError(f"family size must be >= 1, got {n}")
    return tuple(lat.rescale(k) for k in range(1, n + 1))
