"""Integral nondegenerate lattices and their sublattice algebra.

A lattice is carried by its Gram matrix; a sublattice by an integer basis
matrix (rows are generators in ambient coordinates).  All operations are
exact: unbounded integers and rationals, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul

from . import intlinalg
from .arith import DEFAULT_EFFORT_LIMIT
from .errors import (DegenerateLatticeError, DependentBasisError,
                     EffortLimitExceeded, InvalidInputError, SpanMismatchError)


@dataclass(frozen=True)
class DiscriminantData:
    """Invariant factors of the discriminant group, its exponent and order."""

    invariant_factors: tuple[int, ...]
    exponent: int
    order: int


@dataclass(frozen=True)
class Lattice:
    """A free Z-module with a nondegenerate integral symmetric bilinear form."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = intlinalg.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if n == 0 or any(len(row) != n for row in g):
            raise InvalidInputError("gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise InvalidInputError(
                        f"gram matrix not symmetric at ({i},{j})")
        if intlinalg.det(g) == 0:
            raise DegenerateLatticeError("gram matrix is singular")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def diagonal(*entries: int) -> "Lattice":
        n = len(entries)
        return Lattice(tuple(tuple(entries[i] if i == j else 0 for j in range(n))
                             for i in range(n)))

    @staticmethod
    def hyperbolic_plane() -> "Lattice":
        return Lattice(((0, 1), (1, 0)))

    def direct_sum(self, other: "Lattice") -> "Lattice":
        n, m = self.rank, other.rank
        rows = []
        for i in range(n):
            rows.append(tuple(self.gram[i]) + (0,) * m)
        for i in range(m):
            rows.append((0,) * n + tuple(other.gram[i]))
        return Lattice(tuple(rows))

    # -- basic form operations ---------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check_vector(self, v):
        if len(v) != self.rank:
            raise InvalidInputError(
                f"vector length {len(v)} does not match rank {self.rank}")
        return intlinalg.int_vector(v)

    def evaluate(self, u, v) -> int:
        """The bilinear pairing (u, v)."""
        u = self._check_vector(u)
        v = self._check_vector(v)
        gv = intlinalg.mat_vec(self.gram, v)
        return sum(x * y for x, y in zip(u, gv))

    def norm(self, v) -> int:
        """q(v) = (v, v)."""
        return self.evaluate(v, v)

    def determinant(self) -> int:
        return intlinalg.det(self.gram)

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia counts, by fraction-free integer
        elimination (intlinalg.congruence_signature)."""
        pos, neg, zero = intlinalg.congruence_signature(self.gram)
        if zero:
            raise DegenerateLatticeError("signature of a degenerate form")
        return pos, neg

    def discriminant(self) -> DiscriminantData:
        """Invariant factors of coker(gram), exponent, and group order."""
        factors = tuple(d for d in intlinalg.invariant_factors(self.gram) if d > 1)
        exponent = factors[-1] if factors else 1
        return DiscriminantData(invariant_factors=factors, exponent=exponent,
                                order=abs(self.determinant()))

    def rescale(self, k: int) -> "Lattice":
        """The same module with the form multiplied by k."""
        if k == 0:
            raise InvalidInputError("rescale factor must be nonzero")
        return Lattice(tuple(tuple(k * x for x in row) for row in self.gram))

    def is_unscaled(self) -> bool:
        """True iff the Gram matrix is indivisible (entry gcd 1)."""
        return intlinalg.content(self.gram) == 1

    def divisibility(self, v) -> int:
        """Positive generator of the pairing ideal {(v, u) : u in the lattice}."""
        v = self._check_vector(v)
        if all(x == 0 for x in v):
            raise InvalidInputError("divisibility of the zero vector is undefined")
        return gcd(*intlinalg.mat_vec(self.gram, v))

    # -- bounded enumeration -------------------------------------------------

    def check_prefix_budget(self, box: int) -> None:
        """Refuse a box whose (2*box+1)**(rank-1) walk prefixes exceed
        DEFAULT_EFFORT_LIMIT, with EffortLimitExceeded, before any walk."""
        if box > 0 and (2 * box + 1) ** (self.rank - 1) > DEFAULT_EFFORT_LIMIT:
            raise EffortLimitExceeded(f"box {box} at rank {self.rank} needs more than "
                                      f"{DEFAULT_EFFORT_LIMIT} enumeration prefixes")

    def _walk_prefixes(self, box: int, finish) -> None:
        """Call finish(coords, val, pair, leading_zero) once per prefix.

        A prefix fixes the first rank-1 coordinates in [-box, box], walked
        in lexicographic order with the first nonzero coordinate positive;
        an all-zero prefix (leading_zero) leaves the sign to the last
        coordinate.  coords is a shared list holding the prefix, val its
        norm and pair its pairing with the last basis vector.  Each level
        of the walk is a closure over its Gram row that calls the level
        below, the last one finish; a node computes its pairing with the
        prefix above it once, so a step in x costs O(1).  Rank 1 has one,
        empty, prefix.
        """
        if box < 1:
            raise InvalidInputError("box must be >= 1")
        r = self.rank
        g = self.gram

        def level(depth, below):
            # q(prefix + x e_depth) = val + (a x + b) x, pairing pair + c x
            row = g[depth]
            a, c = row[depth], row[r - 1]

            def step(coords, val, pair, leading_zero):
                b = 2 * sum(map(mul, row, coords[:depth]))
                for x in range(0 if leading_zero else -box, box + 1):
                    coords[depth] = x
                    below(coords, val + (a * x + b) * x, pair + c * x,
                          leading_zero and x == 0)
            return step

        walk = finish
        for depth in reversed(range(r - 1)):
            walk = level(depth, walk)
        walk([0] * r, 0, 0, True)

    def enumerate_norm_vectors(self, n: int, box: int) -> tuple[tuple[int, ...], ...]:
        """All primitive v with q(v) = n and coordinates in [-box, box].

        Complete within the box, deduplicated up to global sign (first
        nonzero coordinate positive).  Nothing is claimed outside the box.
        The last coordinate is solved from a quadratic instead of scanned,
        so the cost is (2*box+1)**(rank-1) subproblems, refused with
        EffortLimitExceeded beyond DEFAULT_EFFORT_LIMIT.
        """
        self.check_prefix_budget(box)
        r = self.rank
        a = self.gram[r - 1][r - 1]
        found = []

        def emit(coords, last, leading_zero):
            # canonical sign: with an all-zero prefix the last entry must be > 0
            if leading_zero and last <= 0:
                return
            if not -box <= last <= box:
                return
            coords[r - 1] = last
            if gcd(*coords) == 1:
                found.append(tuple(coords))

        def solve_last(coords, val, pair, leading_zero):
            # q(prefix + t*e_r) = a t^2 + b t + c + n with the values below
            b = 2 * pair
            c = val - n
            if a == 0:
                if b == 0:
                    if c == 0:
                        for t in range(1 if leading_zero else -box, box + 1):
                            emit(coords, t, leading_zero)
                    return
                if c % b == 0:
                    emit(coords, -c // b, leading_zero)
                return
            disc = b * b - 4 * a * c
            if disc < 0:
                return
            s = isqrt(disc)
            if s * s != disc:
                return
            for num in {-b + s, -b - s}:
                if num % (2 * a) == 0:
                    emit(coords, num // (2 * a), leading_zero)

        self._walk_prefixes(box, solve_last)
        return tuple(sorted(set(found)))

    def box_vectors(self, box: int) -> list[tuple[tuple[int, ...], int]]:
        """All (v, q(v)) with nonzero v, coordinates in [-box, box], one
        vector per sign class (first nonzero coordinate positive), in
        lexicographic order.

        No library code calls this; it stays only because
        `perfbench/workloads.py::_ENTRY_POINTS` names it.
        """
        a = self.gram[-1][-1]
        out = []

        def scan_last(coords, val, pair, leading_zero):
            prefix = tuple(coords[:-1])
            for t in range(1 if leading_zero else -box, box + 1):
                out.append((prefix + (t,), val + (a * t + 2 * pair) * t))

        self._walk_prefixes(box, scan_last)
        return out


@dataclass(frozen=True)
class Sublattice:
    """An integer-spanned sublattice of an ambient lattice.

    basis rows are generators in ambient coordinates and must be linearly
    independent over Q.
    """

    ambient: Lattice
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        b = intlinalg.freeze(self.basis)
        object.__setattr__(self, "basis", b)
        if not b:
            raise InvalidInputError("sublattice needs at least one basis row")
        if any(len(row) != self.ambient.rank for row in b):
            raise InvalidInputError("basis rows must have ambient rank length")
        if intlinalg.rank(b) != len(b):
            raise DependentBasisError("basis rows are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Gram of the restricted form, B G B^T; may be degenerate."""
        bg = intlinalg.mat_mul(self.basis, self.ambient.gram)
        return intlinalg.mat_mul(bg, intlinalg.transpose(self.basis))

    def as_lattice(self) -> Lattice:
        """The restricted form as a Lattice; raises if degenerate."""
        return Lattice(self.gram_matrix())

    def contains(self, v) -> bool:
        """Membership of an ambient vector in the Z-span of the basis."""
        sol = intlinalg.solve_left(self.basis, (tuple(v),))
        if sol is None:
            return False
        return all(x.denominator == 1 for x in sol[0])

    def coordinates_of(self, v):
        """Rational coordinates of an ambient vector in this basis, or None."""
        sol = intlinalg.solve_left(self.basis, (tuple(v),))
        return None if sol is None else sol[0]

    def saturate(self) -> "Sublattice":
        """Primitive closure: (Q-span of self) intersected with the ambient."""
        return Sublattice(self.ambient, intlinalg.row_saturation(self.basis))

    def index_in(self, other: "Sublattice") -> int:
        """Group index [other : self]; requires containment with equal Q-span."""
        if other.ambient != self.ambient:
            raise SpanMismatchError("sublattices live in different ambients")
        if other.rank != self.rank:
            raise SpanMismatchError("sublattices have different ranks")
        sol = intlinalg.solve_left(other.basis, self.basis)
        if sol is None:
            raise SpanMismatchError("rational spans differ")
        if any(x.denominator != 1 for row in sol for x in row):
            raise SpanMismatchError("first sublattice is not contained in second")
        x = tuple(tuple(int(v) for v in row) for row in sol)
        d = intlinalg.det(x)
        if d == 0:
            raise SpanMismatchError("rational spans differ")
        return abs(d)

    def orthogonal_complement(self) -> "Sublattice":
        """Saturated basis of {v in ambient : (v, s) = 0 for all s in self}.

        Requires the restricted form to be nondegenerate, so the complement
        has full complementary rank.
        """
        if intlinalg.det(self.gram_matrix()) == 0:
            raise DegenerateLatticeError(
                "restricted form is degenerate; complement is not well defined")
        pairing = intlinalg.mat_mul(self.basis, self.ambient.gram)
        comp = intlinalg.kernel(pairing)
        return Sublattice(self.ambient, comp)
