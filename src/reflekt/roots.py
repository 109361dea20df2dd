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
from typing import Optional

from . import binary
from .arith import divisors
from .errors import InternalCheckError, InvalidInputError, NotARootError
from .lattice import Lattice

REFLECTIVE = "reflective"
NON_REFLECTIVE = "non_reflective"
UNKNOWN = "unknown"


def is_root(lat: Lattice, v) -> bool:
    """True iff q(v) divides 2(u, v) for every basis vector u.

    v must be a primitive lattice vector with q(v) != 0.
    """
    v = lat._check_vector(v)
    g = gcd(*v)
    if g == 0:
        raise InvalidInputError("the zero vector is not a candidate root")
    if g != 1:
        raise InvalidInputError(f"candidate root {v} is imprimitive (content {g})")
    q = lat.norm(v)
    if q == 0:
        raise InvalidInputError(f"candidate root {v} is isotropic")
    return 2 * lat.divisibility(v) % q == 0


def reflect(lat: Lattice, v, u):
    """Image of u under the reflection in the root v; always integral."""
    if not is_root(lat, v):
        raise NotARootError(f"{tuple(v)} is not a root of this lattice")
    u = lat._check_vector(u)
    v = lat._check_vector(v)
    q = lat.norm(v)
    p = lat.evaluate(u, v)
    factor, rem = divmod(2 * p, q)
    if rem:
        raise NotARootError("reflection is not integral; v is not a root")
    return tuple(ui - factor * vi for ui, vi in zip(u, v))


def root_norm_candidates(lat: Lattice) -> tuple[int, ...]:
    """Negative divisors of 2 e(lattice); a superset of achievable root norms
    by the lemma in `find_roots_in_box`."""
    e = lat.discriminant().exponent
    return tuple(-d for d in divisors(2 * e))


def find_roots_in_box(lat: Lattice, box: int) -> tuple[tuple[int, ...], ...]:
    """All negative-norm roots with coordinates in [-box, box], up to sign.

    Complete within the box only.  Lemma: the norm q of a root v divides
    2e, where e is the exponent of the discriminant group.  Proof: 2v/q pairs
    integrally with L, so it lies in L^#, and as v is primitive its class
    in L^#/L has order |q|/gcd(q, 2), which divides e.  So one walk over
    the (2*box+1)**(rank-1) prefixes computes each last-coordinate norm in
    O(1) and runs the primitivity and root tests only where q | 2e.  A box
    of more than DEFAULT_EFFORT_LIMIT prefixes raises EffortLimitExceeded
    before the walk.
    """
    lat.check_prefix_budget(box)
    two_e = 2 * lat.discriminant().exponent
    a = lat.gram[-1][-1]
    found = []

    def scan_last(coords, val, pair, leading_zero):
        b = 2 * pair
        for t in range(1 if leading_zero else -box, box + 1):
            q = val + (a * t + b) * t
            if q < 0 and two_e % q == 0:
                coords[-1] = t
                if gcd(*coords) == 1 and 2 * lat.divisibility(coords) % q == 0:
                    found.append(tuple(coords))

    lat._walk_prefixes(box, scan_last)
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
    machinery, which is out of scope here.
    """
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
