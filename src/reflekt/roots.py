"""Reflections, root predicates, and the reflectivity decision.

A root is a primitive non-isotropic v whose reflection preserves the
lattice; equivalently q(v) divides 2(u, v) for every lattice vector u.
The rank-2 Lorentzian case is decided completely: anisotropic rootless
lattices get a hyperbolic isometry certificate (the Weyl group is trivial
but the orthogonal group is infinite), anything else at rank 2 is
reflective.  Rank >= 3 indefinite lattices are honestly reported Unknown
with whatever roots a bounded search finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Optional

from . import binary, intlinalg
from .arith import int_vector
from .errors import InternalCheckError, InvalidInputError, NotARootError
from .lattice import Lattice

REFLECTIVE = "reflective"
NON_REFLECTIVE = "non_reflective"
UNKNOWN = "unknown"


def _candidate(lat: Lattice, v):
    """(v, q(v), G v) for a candidate root v, checked in the order of
    `is_root`: a vector of the lattice's rank, nonzero, primitive and not
    isotropic.  q(v) = v . Gv, div(v) = gcd(Gv) and (u, v) = u . Gv, so one
    product G v serves the root test and the reflection."""
    v = lat._check_vector(v)
    g = gcd(*v)
    if g == 0:
        raise InvalidInputError("the zero vector is not a candidate root")
    if g != 1:
        raise InvalidInputError(f"candidate root {v} is imprimitive (content {g})")
    gv = intlinalg.mat_vec(lat.gram, v)
    q = sum(map(mul, v, gv))
    if q == 0:
        raise InvalidInputError(f"candidate root {v} is isotropic")
    return v, q, gv


def is_root(lat: Lattice, v) -> bool:
    """True iff q(v) divides 2(u, v) for every basis vector u.

    v must be a primitive lattice vector with q(v) != 0.
    """
    _, q, gv = _candidate(lat, v)
    return 2 * gcd(*gv) % q == 0


def reflect(lat: Lattice, v, u):
    """Image of u under the reflection in the root v; always integral."""
    v, q, gv = _candidate(lat, v)
    if 2 * gcd(*gv) % q:
        raise NotARootError(f"{v} is not a root of this lattice")
    u = lat._check_vector(u)
    # q divides 2 div(v), and (u, v) is a multiple of div(v)
    factor = 2 * sum(map(mul, u, gv)) // q
    return tuple(ui - factor * vi for ui, vi in zip(u, v))


def root_norm_candidates(lat: Lattice) -> tuple[int, ...]:
    """Negative divisors of 2 e(lattice); a superset of achievable root norms
    by the lemma in `find_roots_in_box` (q divides 2e).  At rank 2, e has a
    closed form (`binary._gram_exponent`), so no Hermite pass runs.  The
    divisors come from `binary._twice_e_divisors`, which `binary_roots`
    reads only for a square D, so a rank-2 verdict factorises 2e once, for
    its candidate norms."""
    g = lat.gram
    e = (binary._gram_exponent(g[0][0], g[0][1], g[1][1]) if lat.rank == 2
         else lat.discriminant().exponent)
    return tuple(-d for d in binary._twice_e_divisors(e))


def find_roots_in_box(lat: Lattice, box: int) -> tuple[tuple[int, ...], ...]:
    """All negative-norm roots with coordinates in [-box, box], up to sign.

    Complete within the box only.  Lemma: the norm q of a root v divides
    2e, where e is the exponent of the discriminant group.  Proof: 2v/q pairs
    integrally with L, so it lies in L^#, and as v is primitive its class
    in L^#/L has order |q|/gcd(q, 2), which divides e.  As e divides the
    group order |det|, q divides 2|det| too, and that one Bareiss
    determinant serves as the pre-filter: no Hermite pass runs.  And by
    definition q divides 2(v, e_i) for every basis vector e_i, so each
    single pairing is a necessary test; for q = -1 or -2 every one holds,
    so every primitive vector of norm -1 or -2 is a root.  One walk over
    the (2*box+1)**(rank-2) prefixes scans a precomputed table of the
    (2*box+1)**2 tails (see Lattice._tail_table), where each norm and the
    pairings 2(v, e_{r-2}), 2(v, e_{r-1}) cost O(1).  A tail of norm -1 or
    -2 goes straight to the primitivity test.  Below -2, only where q
    divides 2|det| (no factorisation is needed) and both tail pairings do
    the primitivity test and the root test run, the latter on the r-2
    prefix Gram rows only, as the tail pairings are already tested.  A box
    of more than DEFAULT_EFFORT_LIMIT prefixes raises EffortLimitExceeded
    before the walk.
    """
    lat.check_prefix_budget(box)
    g = lat.gram
    if lat.rank == 1:
        return ((1,),) if g[0][0] < 0 else ()
    two_det = 2 * abs(lat.determinant())
    full, half = lat._tail_table(box)
    prefix_rows = g[:-2]
    found = []

    def scan_tail(coords, val, p1, p2, leading_zero):
        b1, b2 = 2 * p1, 2 * p2
        for x, t, q2, d1, d2 in half if leading_zero else full:
            q = val + q2 + b1 * x + b2 * t
            if q < 0 and (q >= -2 or (two_det % q == 0 and (b2 + d2) % q == 0
                                      and (b1 + d1) % q == 0)):
                coords[-2] = x
                coords[-1] = t
                if gcd(*coords) == 1 and (q >= -2 or 2 * gcd(*[
                        sum(map(mul, row, coords)) for row in prefix_rows]) % q == 0):
                    found.append(tuple(coords))

    lat._walk_prefixes(box, scan_tail)
    return tuple(sorted(found))


@dataclass(frozen=True)
class ReflectivityEvidence:
    """Machine-checkable support for a reflectivity verdict."""

    reason: str
    roots: tuple = ()
    root_norms: tuple = ()
    candidate_norms: Optional[tuple] = None
    isometry: Optional[tuple] = None
    budget: Optional[int] = None


@dataclass(frozen=True)
class ReflectivityVerdict:
    """A lattice's reflectivity status, REFLECTIVE, NON_REFLECTIVE or
    UNKNOWN, with the evidence that supports it."""

    status: str
    evidence: ReflectivityEvidence


def reflectivity_indicator(lat: Lattice, budget: int = 10) -> ReflectivityVerdict:
    """Reflectivity status with evidence.

    Rank 1 and definite lattices have finite orthogonal groups, hence are
    reflective.  Rank-2 Lorentzian lattices are decided completely via the
    finite root-norm candidate set: a root makes the Weyl group of finite
    index (its conjugates under the hyperbolic isometry generate an
    infinite dihedral subgroup), an isotropic rootless lattice has finite
    orthogonal group, and an anisotropic rootless one has infinite
    orthogonal group with trivial Weyl group.  Rank >= 3 indefinite input
    returns Unknown; deciding it needs the full fundamental-polyhedron
    machinery, which is out of scope here.  The budget must be an integer
    >= 1 at every rank, though only rank >= 3 spends it.
    """
    (budget,) = int_vector((budget,))
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    pos, neg = lat.signature()
    if lat.rank == 1 or pos == 0 or neg == 0:
        return ReflectivityVerdict(
            status=REFLECTIVE,
            evidence=ReflectivityEvidence(
                reason="definite form: the orthogonal group is finite"))
    if lat.rank == 2:
        f = binary.BinaryForm.from_gram(lat)
        complete = binary.binary_roots(f)
        cands = root_norm_candidates(lat)
        if complete:
            witnesses = tuple(v for _, v in complete)
            for v in witnesses:
                if not is_root(lat, v):
                    raise InternalCheckError(
                        f"witness {v} failed the root re-check")
            return ReflectivityVerdict(
                status=REFLECTIVE,
                evidence=ReflectivityEvidence(
                    reason="roots exist; reflections have finite index in "
                           "the rank-2 orthogonal group",
                    roots=witnesses,
                    root_norms=tuple(m for m, _ in complete),
                    candidate_norms=cands))
        if not binary.is_anisotropic(f):
            return ReflectivityVerdict(
                status=REFLECTIVE,
                evidence=ReflectivityEvidence(
                    reason="isotropic binary lattice: the orthogonal group "
                           "is finite and the (empty) Weyl group has finite index",
                    candidate_norms=cands))
        m = binary.fundamental_automorph(f)
        return ReflectivityVerdict(
            status=NON_REFLECTIVE,
            evidence=ReflectivityEvidence(
                reason="anisotropic and rootless: infinite cyclic isometry "
                       "group, trivial Weyl group",
                candidate_norms=cands,
                isometry=m))
    found = find_roots_in_box(lat, budget)
    return ReflectivityVerdict(
        status=UNKNOWN,
        evidence=ReflectivityEvidence(
            reason="rank >= 3 indefinite: bounded search only",
            roots=found,
            budget=budget))
