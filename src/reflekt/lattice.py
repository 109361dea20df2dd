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
        det = intlinalg.det(g)
        if det == 0:
            raise DegenerateLatticeError("gram matrix is singular")
        # kept outside the dataclass fields, so equality, hashing and repr
        # still read the Gram matrix alone
        object.__setattr__(self, "_det", det)

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
        if not hasattr(v, "__len__"):
            v = intlinalg.int_vector(v)
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
        """det(gram), computed once, by the check for singularity."""
        return self._det

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
        """Refuse a box that is not an integer >= 1 with InvalidInputError,
        and a box whose (2*box+1)**(rank-1) enumeration prefixes (a walk
        prefix and the x of its tail) exceed DEFAULT_EFFORT_LIMIT with
        EffortLimitExceeded, before any walk."""
        (box,) = intlinalg.int_vector((box,))
        if box < 1:
            raise InvalidInputError("box must be >= 1")
        if (2 * box + 1) ** (self.rank - 1) > DEFAULT_EFFORT_LIMIT:
            raise EffortLimitExceeded(f"box {box} at rank {self.rank} needs more than "
                                      f"{DEFAULT_EFFORT_LIMIT} enumeration prefixes")

    def _walk_prefixes(self, box: int, finish) -> None:
        """Call finish(coords, val, p1, p2, leading_zero) once per prefix.

        A prefix fixes the first rank-2 coordinates in [-box, box], walked
        in lexicographic order with the first nonzero coordinate positive;
        finish then handles the tail (x, t) of the last two coordinates in
        one loop.  An all-zero prefix (leading_zero) leaves the sign to the
        tail: x > 0, or x = 0 < t.  coords is a shared list of length rank
        holding the prefix, val its norm, and p1, p2 its pairings with the
        last two basis vectors, so q(prefix + x e_{r-2} + t e_{r-1}) =
        val + 2 p1 x + 2 p2 t + g11 x^2 + 2 g12 x t + g22 t^2 in the Gram
        entries of the tail.  Each level is a closure over its Gram row that
        calls the level below, the last one finish; a node computes its
        pairing with the prefix above it once, so a step costs O(1).  Rank 2
        has one, empty, prefix; rank 1 has no tail and is the callers' to
        answer.
        """
        r = self.rank
        g = self.gram

        def level(depth, below):
            # q(prefix + x e_depth) = val + (a x + b) x, pairings p + c x
            row = g[depth]
            a, c1, c2 = row[depth], row[r - 2], row[r - 1]

            def step(coords, val, p1, p2, leading_zero):
                b = 2 * sum(map(mul, row, coords[:depth]))
                for x in range(0 if leading_zero else -box, box + 1):
                    coords[depth] = x
                    below(coords, val + (a * x + b) * x, p1 + c1 * x, p2 + c2 * x,
                          leading_zero and x == 0)
            return step

        walk = finish
        for depth in reversed(range(r - 2)):
            walk = level(depth, walk)
        walk([0] * r, 0, 0, 0, True)

    def _tail_table(self, box: int):
        """(x, t, Q2, 2(w, e_{r-2}), 2(w, e_{r-1})) for each tail
        w = x e_{r-2} + t e_{r-1} with x, t in [-box, box], Q2 = q(w), in
        lexicographic order; and its sign-canonical half (x > 0, or
        x = 0 < t), which follows (0, 0) in that order."""
        g11, g12, g22 = self.gram[-2][-2], self.gram[-2][-1], self.gram[-1][-1]
        span = range(-box, box + 1)
        full = [(x, t, (g11 * x + 2 * g12 * t) * x + g22 * t * t,
                 2 * (g11 * x + g12 * t), 2 * (g12 * x + g22 * t))
                for x in span for t in span]
        return full, full[len(full) // 2 + 1:]

    def enumerate_norm_vectors(self, n: int, box: int) -> tuple[tuple[int, ...], ...]:
        """All primitive v with q(v) = n and coordinates in [-box, box].

        Complete within the box, deduplicated up to global sign (first
        nonzero coordinate positive).  Nothing is claimed outside the box.
        After a prefix (see _walk_prefixes), q(v) = n is the quadratic
        g22 t^2 + 2 (p2 + g12 x) t + (val - n + 2 p1 x + g11 x^2) = 0 in the
        last coordinate t, whose quarter discriminant is A x^2 + B x + C with
        A = g12^2 - g11 g22, B = 2 (p2 g12 - g22 p1), C = p2^2 - g22 (val - n).
        So each x costs one Horner step and a sign test, and isqrt runs only
        where the discriminant is >= 0; g22 = 0 leaves a linear equation.
        The cost is (2*box+1)**(rank-1) such steps, refused with
        EffortLimitExceeded beyond DEFAULT_EFFORT_LIMIT.
        """
        self.check_prefix_budget(box)
        (n,) = intlinalg.int_vector((n,))
        g = self.gram
        if self.rank == 1:
            return ((1,),) if g[0][0] == n else ()
        g11, g12, g22 = g[-2][-2], g[-2][-1], g[-1][-1]
        a = g12 * g12 - g11 * g22
        found = []

        def emit(coords, x, t, leading_zero):
            if -box <= t <= box and (t > 0 or x or not leading_zero):
                coords[-2] = x
                coords[-1] = t
                if gcd(*coords) == 1:
                    found.append(tuple(coords))

        def solve_tail(coords, val, p1, p2, leading_zero):
            b = 2 * (p2 * g12 - g22 * p1)
            c = p2 * p2 - g22 * (val - n)
            for x in range(0 if leading_zero else -box, box + 1):
                d = (a * x + b) * x + c
                if d < 0:
                    continue
                s = isqrt(d)
                if s * s != d:
                    continue
                h = -p2 - g12 * x
                for num in (h + s, h - s) if s else (h,):
                    if num % g22 == 0:
                        emit(coords, x, num // g22, leading_zero)

        def solve_linear(coords, val, p1, p2, leading_zero):
            # g22 = 0: 2 (p2 + g12 x) t + (val - n + (2 p1 + g11 x) x) = 0
            for x in range(0 if leading_zero else -box, box + 1):
                b = 2 * (p2 + g12 * x)
                c = val - n + (2 * p1 + g11 * x) * x
                if b:
                    if c % b == 0:
                        emit(coords, x, -c // b, leading_zero)
                elif c == 0:
                    for t in range(-box, box + 1):
                        emit(coords, x, t, leading_zero)

        self._walk_prefixes(box, solve_tail if g22 else solve_linear)
        return tuple(sorted(found))

    def box_vectors(self, box: int) -> list[tuple[tuple[int, ...], int]]:
        """All (v, q(v)) with nonzero v, coordinates in [-box, box], one
        vector per sign class (first nonzero coordinate positive), in
        lexicographic order.

        No library code calls this; it stays only because
        `perfbench/workloads.py::_ENTRY_POINTS` names it.
        """
        self.check_prefix_budget(box)
        if self.rank == 1:
            return [((t,), self.gram[0][0] * t * t) for t in range(1, box + 1)]
        full, half = self._tail_table(box)
        out = []

        def scan_tail(coords, val, p1, p2, leading_zero):
            prefix = tuple(coords[:-2])
            b1, b2 = 2 * p1, 2 * p2
            out.extend((prefix + (x, t), val + q2 + b1 * x + b2 * t)
                       for x, t, q2, _, _ in (half if leading_zero else full))

        self._walk_prefixes(box, scan_tail)
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
        """Membership of an ambient vector in the Z-span of the basis: its
        coordinates exist and are integers."""
        x = self.coordinates_of(v)
        return x is not None and all(c.denominator == 1 for c in x)

    def coordinates_of(self, v):
        """Rational coordinates of an ambient vector in this basis, or None
        outside its Q-span.  v must be an integer vector of ambient rank
        length, else InvalidInputError."""
        sol = intlinalg.solve_left(self.basis, (self.ambient._check_vector(v),))
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
        # self's rows are independent, so their coordinates are invertible
        return abs(intlinalg.det(tuple(tuple(int(v) for v in row) for row in sol)))

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
