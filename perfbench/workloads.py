"""The three benchmark workloads: seeded inputs, the calls into reflekt, checks.

Each workload turns a random.Random into passes of ops.  A pass holds the
same number of ops of each kind (`ops_per_kind` in workloads.json: no
usage data exists to weight one kind over another), plus fixed rows.
Size parameters are stratified within a pass, so two seeds see the same
spread of sizes and differ only in the inputs drawn inside each stratum.

An op is (kind, args).  `run_<kind>` makes the calls into reflekt through
module and class attributes, so that the wrappers a traced pass installs
(TRACED, below) see them; `check_<kind>` judges the result with the
independent oracles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import isqrt

import oracles as O
from oracles import require
from reflekt import arith, binary, construct, intlinalg, roots, serialize
from reflekt.binary import BinaryForm
from reflekt.lattice import Lattice, Sublattice

SNF = "intlinalg.smith_normal_form"


def snf_bits(out):
    """Largest bit length of an entry of the returned U and V."""
    return max(abs(x).bit_length() for m in (out.u, out.v) for row in m for x in row)


# The entry points a traced pass wraps: (owner, attribute, layer).  Helpers
# that run millions of times (mat_vec, is_root, _rho) are left out; their
# time counts as self time of the entry point that calls them.
_ENTRY_POINTS = (
    (arith, ("nonresidue_prime", "find_prime", "crt"), "arith"),
    # construct binds nonresidue_prime by name at import
    (construct, ("nonresidue_prime",), "arith"),
    (intlinalg, ("det", "smith_normal_form", "hermite_row_basis", "kernel",
                 "row_saturation", "row_span_basis", "rank", "solve_left",
                 "congruence_signature"), "intlinalg"),
    (Lattice, ("__post_init__", "signature", "discriminant",
               "enumerate_norm_vectors", "box_vectors"), "lattice"),
    (Sublattice, ("__post_init__", "saturate", "index_in", "orthogonal_complement",
                  "contains", "coordinates_of"), "lattice"),
    (binary, ("represents", "representation_witness", "mu", "binary_roots",
              "fundamental_automorph", "is_anisotropic", "pell_fundamental"), "binary"),
    (BinaryForm, ("from_gram", "gram_lattice"), "binary"),
    (roots, ("find_roots_in_box", "reflectivity_indicator"), "roots"),
    (construct, ("mj_family", "pell_family", "avoid_roots", "validate_mj",
                 "validate_pell_family", "validate_avoid_roots"), "construct"),
    (serialize, ("dumps", "mj_to_obj", "pell_family_to_obj", "avoid_roots_to_obj"),
     "serialize"),
)
TRACED = tuple(
    (owner, attr, f"{layer}.{owner.__name__ if attr == '__post_init__' else attr}",
     snf_bits if f"{layer}.{attr}" == SNF else None)
    for owner, attrs, layer in _ENTRY_POINTS for attr in attrs)


def canon(x):
    """JSON-ready form of a result: tuples to lists, Fractions to strings."""
    if is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (tuple, list)):
        return [canon(y) for y in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return str(x)
    return x


def stratified(rng, count):
    """count points of [0, 1), one uniformly inside each 1/count slice."""
    return [(j + rng.random()) / count for j in range(count)]


def log_between(lo, hi, u):
    return round(lo * (hi / lo) ** u)


def gram_of(f: BinaryForm):
    return ((f.a, f.b // 2), (f.b // 2, f.c))


class Workload:
    name = ""

    def __init__(self, tracer, out_dir):
        self.tr = tracer
        self.out_dir = out_dir
        self.counts = {"serialize.cert_bytes": 0, "construct.entries": 0}

    def fixed_ops(self, first):
        """Fixed rows of a pass; `first` marks the run's first pass."""
        return []

    def probes(self):
        """Inputs on which a known defect of the library passes the deadline.

        They are not ops of the workload, whose ops must all succeed: a traced
        run makes each once, after its passes, and the defect shows in the
        per-layer figures as `<layer>.failed`.  A probe that finishes is checked
        like an op of its kind."""
        return []

    def make_pass(self, rng, kinds, per_kind, first):
        """One pass: per_kind ops of each kind, shuffled, then the fixed rows
        at seeded positions."""
        ctx = self.pass_context(rng)
        ops = []
        for kind in kinds:
            gen = getattr(self, "gen_" + kind)
            ops += [(kind, gen(rng, u, ctx)) for u in stratified(rng, per_kind)]
        rng.shuffle(ops)
        for op in self.fixed_ops(first):
            ops.insert(rng.randint(0, len(ops)), op)
        return ops

    def warm_ops(self, rng, kinds):
        """One op of each kind, at the smallest size stratum."""
        ctx = self.pass_context(rng)
        return [(kind, getattr(self, "gen_" + kind)(rng, 0.0, ctx)) for kind in kinds]

    def pass_context(self, rng):
        return None

    def run(self, kind, args):
        return getattr(self, "run_" + kind)(*args)

    def check(self, kind, args, out):
        getattr(self, "check_" + kind)(*args, out)

    def digest(self, kind, out):
        """The JSON value of an output that enters the workload digest."""
        return canon(out)

    def tally(self, kind, out):
        """Update the first pass's counts (cert_bytes, mj entries)."""


# -- binary_queries -------------------------------------------------------------

class BinaryQueries(Workload):
    """Rank-2 queries over a per-pass pool of non-diagonal anisotropic forms."""

    name = "binary_queries"
    POOL = 32
    BRUTE_BOX = 30

    def __init__(self, tracer, out_dir):
        super().__init__(tracer, out_dir)
        self._values = {}
        self._residues = {}
        self._want = False

    def fixed_ops(self, first):
        # The ROADMAP rows take 1.1 s, a third of a pass's op time, in two of
        # its 98 ops; once per run they leave that time to drawn ops, which
        # sample the same hot spots over the whole range of D.
        # -10^6 is not a value of x^2 - 161 y^2 modulo 7
        return [("binary_roots", (BinaryForm.from_d(1000003),)),
                ("represents_large", (BinaryForm.from_d(161), -10**6, ("mod", 7)))] * first

    def pass_context(self, rng):
        # the pool is shared by all ops of the pass, so a form drawn twice
        # finds its reduction cycle already cached; the oracle's own caches
        # are dropped so that they do not inflate the run's peak RSS
        self._values.clear()
        self._residues.clear()
        self._want = False
        return [self._form(rng, u) for u in stratified(rng, self.POOL)]

    @staticmethod
    def _pick(pool, u):
        """The pool is sorted by discriminant; u picks the form of its stratum,
        so each kind sees the whole range of D in every pass."""
        return pool[int(u * len(pool))]

    @staticmethod
    def _form(rng, u):
        """(a, 2h, c) with h != 0 and D = 4(h^2 - ac) log-spread over 1e3..1e6."""
        target = log_between(250, 250_000, u)
        s = isqrt(target)
        while True:
            a = rng.choice((-1, 1)) * rng.randint(1, s)
            h = rng.randint(1, s)
            c = (h * h - target) // a
            n = h * h - a * c
            if c and 250 <= n <= 250_000 and isqrt(n) ** 2 != n:
                return BinaryForm(a, 2 * h, c)

    def values(self, f):
        """{value: point} of f on the brute-force box."""
        key = (f.a, f.b, f.c)
        if key not in self._values:
            self._values[key] = O.binary_values(f.a, f.b, f.c, self.BRUTE_BOX)
        return self._values[key]

    def residues(self, f, m):
        key = (f.a, f.b, f.c, m)
        if key not in self._residues:
            self._residues[key] = O.values_mod(f.a, f.b, f.c, m)
        return self._residues[key]

    def _obstruction(self, f, n):
        """A modulus m with n not a value of f mod m, or None."""
        for m in O.local_moduli(f.disc):
            if n % m not in self.residues(f, m):
                return m
        return None

    # A represents op carries the oracle's evidence for its answer: a point
    # ("point", (x, y)) with f(x, y) = n, or ("mod", m) with n not a value of
    # f modulo m.  Ops alternate between the two answers.
    def _query(self, rng, pool, u, size):
        self._want = not self._want
        i = int(u * len(pool))
        for k in range(len(pool)):  # a form with no query of known answer passes it on
            f = pool[(i + k) % len(pool)]
            lo, hi = size(f)
            for want in (self._want, not self._want):
                q = self._represented(rng, f, lo, hi) if want else \
                    self._obstructed(rng, f, lo, hi)
                if q is not None:
                    return (f,) + q
        raise AssertionError("no form in the pool has a query of known answer")

    def _represented(self, rng, f, lo, hi):
        hits = sorted(v for v in self.values(f) if lo <= abs(v) <= hi)
        if hits:
            n = rng.choice(hits)
            return n, ("point", self.values(f)[n])
        for _ in range(40):
            x, y = rng.randint(-300, 300), rng.randint(-300, 300)
            n = f.value(x, y)
            if lo <= abs(n) <= hi:
                return n, ("point", (x, y))
        return None

    def _obstructed(self, rng, f, lo, hi):
        for _ in range(40):
            n = rng.choice((-1, 1)) * log_between(lo, hi, rng.random())
            m = self._obstruction(f, n)
            if m is not None:
                return n, ("mod", m)
        return None

    # represents, cycle route: 4 n^2 < D
    def gen_represents_small(self, rng, u, pool):
        return self._query(rng, pool, u, lambda f: (1, isqrt((f.disc - 1) // 4)))

    def run_represents_small(self, f, n, evidence):
        return binary.represents(f, n)

    def check_represents_small(self, f, n, evidence, out):
        how, w = evidence
        if how == "point":
            require(f.value(*w) == n and out is True,
                    f"f{w} = {n}, but represents said {out}")
        else:
            require(n % w not in self.residues(f, w) and out is False,
                    f"{n} is not a value of f mod {w}, but represents said {out}")

    # represents, square-root-class route: |n| >> sqrt(D)
    def gen_represents_large(self, rng, u, pool):
        return self._query(rng, pool, u, lambda f: (10 * isqrt(f.disc), 200_000))

    run_represents_large = run_represents_small
    check_represents_large = check_represents_small

    def gen_mu(self, rng, u, pool):
        return (self._pick(pool, u),)

    def run_mu(self, f):
        m = binary.mu(f)
        return (m, binary.representation_witness(f, m))

    def check_mu(self, f, out):
        m, w = out
        require(m < 0 and w is not None and f.value(*w) == m,
                f"mu = {m} is not attained by the witness {w}")
        higher = [v for v in self.values(f) if m < v < 0]
        require(not higher, f"brute force represents {higher[:3]} above mu = {m}")

    def gen_witness(self, rng, u, pool):
        f = self._pick(pool, u)
        while True:
            x, y = rng.randint(-12, 12), rng.randint(-12, 12)
            if x or y:
                return (f, f.value(x, y))

    def run_witness(self, f, n):
        return binary.representation_witness(f, n)

    def check_witness(self, f, n, out):
        require(out is not None and f.value(*out) == n,
                f"witness {out} does not evaluate to {n}")

    def gen_binary_roots(self, rng, u, pool):
        return (self._pick(pool, u),)

    def run_binary_roots(self, f):
        return binary.binary_roots(f)

    def check_binary_roots(self, f, out):
        g = gram_of(f)
        norms = [m for m, _ in out]
        require(len(set(norms)) == len(norms), "root norms repeat")
        for m, v in out:
            require(m < 0 and f.value(*v) == m and O.is_root(g, v),
                    f"{v} is not a root of norm {m}")
        missed = {O.pair(g, v, v) for v in O.box_roots(g, 12)} - set(norms)
        require(not missed, f"brute force found roots of norms {sorted(missed)}")

    def gen_reflectivity(self, rng, u, pool):
        return (self._pick(pool, u),)

    def run_reflectivity(self, f):
        return roots.reflectivity_indicator(f.gram_lattice())

    def check_reflectivity(self, f, out):
        g = gram_of(f)
        found = O.box_roots(g, 12)
        ev = out.evidence
        if out.status == roots.NON_REFLECTIVE:
            require(not found, f"non-reflective, but brute force finds roots {sorted(found)[:2]}")
            m = ev.isometry
            require(O.mat_mul(O.mat_mul(list(zip(*m)), g), m) == [list(r) for r in g]
                    and abs(O.det(m)) == 1 and abs(m[0][0] + m[1][1]) > 2,
                    f"{m} is not a hyperbolic isometry")
        else:
            require(out.status == roots.REFLECTIVE, f"status {out.status} at rank 2")
            require(ev.roots and all(O.is_root(g, v) for v in ev.roots),
                    "reflective anisotropic form without a checked root")


# -- lattice_algebra ------------------------------------------------------------

# ROADMAP item 2: Smith normal form never finishes on this Gram matrix
ITEM2_GRAM = ((-33, 22, 47, -42, -18, -35), (22, 13, 47, 7, 10, 33),
              (47, 47, -2, 50, -24, -38), (-42, 7, 50, 12, -47, -1),
              (-18, 10, -24, -47, 5, 27), (-35, 33, -38, -1, 27, 47))
U = ((0, 1), (1, 0))


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out, k = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(b)] = row
        k += len(b)
    return tuple(tuple(r) for r in out)


UU2 = direct_sum(U, U, ((-2,),))


class LatticeAlgebra(Workload):
    """Dense Gram matrices of rank 3-6 and integer matrices; no binary forms."""

    name = "lattice_algebra"
    # entry bound by rank: it grows with rank, and rank-6 Smith forms at
    # this bound already show the coefficient growth
    BOUND = {3: 3, 4: 3, 5: 4, 6: 4}
    NORM_BOX = {3: 3, 4: 3, 5: 3, 6: 3}
    ROOT_BOX = {3: 3, 4: 3, 5: 2, 6: 2}
    SHAPES = ((3, 3), (3, 4), (4, 4), (4, 5), (4, 6))
    MATRIX_BOUND = 9

    def fixed_ops(self, first):
        return [("reflectivity", (UU2, 3))]

    def probes(self):
        return [("info", (ITEM2_GRAM,))]

    @staticmethod
    def _rank(u):
        return 3 + min(3, int(4 * u))

    def _gram(self, rng, r):
        b = self.BOUND[r]
        while True:
            g = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    g[i][j] = g[j][i] = rng.randint(-b, b)
            if O.det(g):
                return tuple(tuple(row) for row in g)

    @staticmethod
    def _vector(rng, r, b):
        while True:
            v = [rng.randint(-b, b) for _ in range(r)]
            c = O.content(v)
            if c:
                return tuple(x // c for x in v)

    def _matrix(self, rng, rows, cols):
        b = self.MATRIX_BOUND
        return tuple(tuple(rng.randint(-b, b) for _ in range(cols)) for _ in range(rows))

    # what `reflekt lattice info` computes
    def gen_info(self, rng, u, ctx):
        return (self._gram(rng, self._rank(u)),)

    def run_info(self, g):
        lat = Lattice(g)
        return (lat.signature(), lat.discriminant())

    def check_info(self, g, out):
        (pos, neg), disc = out
        d = O.det(g)
        require(pos + neg == len(g) and (d < 0) == (neg % 2 == 1),
                f"signature {(pos, neg)} disagrees with det {d}")
        definite = O.sylvester_definite(g)
        if definite:
            require((pos, neg) == ((len(g), 0) if definite > 0 else (0, len(g))),
                    f"definite form with signature {(pos, neg)}")
        prod = 1
        for x in disc.invariant_factors:
            prod *= x
        require(disc.order == abs(d) == prod, f"discriminant order {disc.order} != |det| {abs(d)}")
        if len(g) <= 4:
            want = tuple(x for x in O.smith_diagonal(g) if x > 1)
            require(disc.invariant_factors == want,
                    f"invariant factors {disc.invariant_factors}, determinantal divisors give {want}")

    def gen_complement(self, rng, u, ctx):
        g = self._gram(rng, self._rank(u))
        while True:
            v = self._vector(rng, len(g), 3)
            if O.pair(g, v, v):
                return (g, v)

    def run_complement(self, g, v):
        return Sublattice(Lattice(g), (v,)).orthogonal_complement().basis

    def check_complement(self, g, v, out):
        require(len(out) == len(g) - 1, f"complement has rank {len(out)}")
        require(all(O.pair(g, row, v) == 0 for row in out),
                "a complement row pairs nonzero with the vector")
        require(O.minors_gcd(out, len(out)) == 1, "complement is not saturated")

    def gen_saturate_index(self, rng, u, ctx):
        g = self._gram(rng, self._rank(u))
        while True:
            b = [self._vector(rng, len(g), 3) for _ in range(2)]
            k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
            if O.minors_gcd(b, 2) and k1 * k2 > 1:
                x = rng.randint(-3, 3)
                rows = ([k1 * p + x * q for p, q in zip(*b)], [k2 * q for q in b[1]])
                return (g, tuple(tuple(r) for r in rows))

    def run_saturate_index(self, g, rows):
        sub = Sublattice(Lattice(g), rows)
        sat = sub.saturate()
        return (sat.basis, sub.index_in(sat))

    def check_saturate_index(self, g, rows, out):
        basis, index = out
        require(len(basis) == 2 and O.minors_gcd(basis, 2) == 1,
                "saturation is not primitive")
        require(all(O.in_rational_span(basis, r) for r in rows),
                "saturation does not span the sublattice")
        want = O.minors_gcd(rows, 2)
        require(index == want, f"index {index}, gcd of 2x2 minors {want}")

    def gen_norm_vectors(self, rng, u, ctx):
        g = self._gram(rng, self._rank(u))
        box = self.NORM_BOX[len(g)]
        w = self._vector(rng, len(g), box)
        return (g, O.pair(g, w, w), box)

    def run_norm_vectors(self, g, n, box):
        return Lattice(g).enumerate_norm_vectors(n, box)

    def check_norm_vectors(self, g, n, box, out):
        require(all(O.pair(g, v, v) == n and O.content(v) == 1
                    and max(map(abs, v)) <= box and next(x for x in v if x) > 0
                    for v in out), f"a returned vector is not a primitive norm-{n} vector")
        if len(g) <= 4:  # complete within the box: brute force is cheap here
            want = sorted(v for v in O.box(len(g), box)
                          if O.pair(g, v, v) == n and O.content(v) == 1)
            require(list(out) == want,
                    f"{len(out)} vectors of norm {n}, brute force finds {len(want)}")

    def gen_snf(self, rng, u, ctx):
        rows, cols = self.SHAPES[min(len(self.SHAPES) - 1, int(u * len(self.SHAPES)))]
        return (self._matrix(rng, rows, cols),)

    def run_snf(self, a):
        return intlinalg.smith_normal_form(a)

    def check_snf(self, a, out):
        rows, cols = len(a), len(a[0])
        d = [[out.diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
        require(O.mat_mul(O.mat_mul(out.u, a), out.v) == d, "U A V is not the diagonal")
        require(abs(O.det(out.u)) == 1 and abs(O.det(out.v)) == 1, "U or V is not unimodular")
        require(list(out.diag) == O.smith_diagonal(a),
                f"diagonal {out.diag} is not the ratio of determinantal divisors")

    def gen_hermite(self, rng, u, ctx):
        rows, cols = self.SHAPES[min(len(self.SHAPES) - 1, int(u * len(self.SHAPES)))]
        a = list(self._matrix(rng, rows - 1, cols))
        # half the matrices get a dependent row
        extra = ([x + y for x, y in zip(a[0], a[-1])] if rng.random() < 0.5
                 else list(self._matrix(rng, 1, cols)[0]))
        a.insert(rng.randint(0, len(a)), tuple(extra))
        return (tuple(a),)

    def run_hermite(self, a):
        return intlinalg.hermite_row_basis(a)

    def check_hermite(self, a, out):
        require(len(out) == O.rank(a), f"{len(out)} rows for rank {O.rank(a)}")
        last = -1
        for i, row in enumerate(out):
            p = next(j for j, x in enumerate(row) if x)
            require(p > last and row[p] > 0, "not in echelon form with positive pivots")
            require(all(0 <= out[k][p] < row[p] for k in range(i)),
                    "entries above a pivot are not reduced")
            last = p
        require(all(not any(O.echelon_reduce(out, r)) for r in a),
                "an input row is outside the Hermite span")
        require(O.minors_gcd(out, len(out)) == O.minors_gcd(a, len(out)),
                "Hermite basis spans a larger lattice")

    def gen_kernel(self, rng, u, ctx):
        rows, cols = self.SHAPES[min(len(self.SHAPES) - 1, int(u * len(self.SHAPES)))]
        return (self._matrix(rng, rows - 1, cols),)

    def run_kernel(self, a):
        return intlinalg.kernel(a)

    def check_kernel(self, a, out):
        require(len(out) == len(a[0]) - O.rank(a), f"kernel of rank {len(out)}")
        require(all(sum(x * y for x, y in zip(row, k)) == 0 for row in a for k in out),
                "a kernel row is not annihilated")
        require(not out or O.minors_gcd(out, len(out)) == 1, "kernel is not saturated")

    def gen_find_roots(self, rng, u, ctx):
        g = self._gram(rng, self._rank(u))
        return (g, self.ROOT_BOX[len(g)])

    def run_find_roots(self, g, box):
        return roots.find_roots_in_box(Lattice(g), box)

    def check_find_roots(self, g, box, out):
        want = sorted(O.box_roots(g, box))
        require(list(out) == want, f"{len(out)} roots in the box, brute force finds {len(want)}")

    def gen_reflectivity(self, rng, u, ctx):
        g = self._gram(rng, self._rank(u))
        return (g, min(2, self.ROOT_BOX[len(g)]))

    def run_reflectivity(self, g, budget):
        return roots.reflectivity_indicator(Lattice(g), budget)

    def check_reflectivity(self, g, budget, out):
        if O.sylvester_definite(g):
            require(out.status == roots.REFLECTIVE, "definite lattice not reflective")
        else:
            require(out.status == roots.UNKNOWN, f"rank >= 3 indefinite gave {out.status}")
            want = sorted(O.box_roots(g, budget))
            require(list(out.evidence.roots) == want, "evidence roots differ from brute force")


# -- certify ----------------------------------------------------------------------

U3 = direct_sum(U, U, U)
U3_22 = direct_sum(U, U, U, ((-2,),), ((-2,),))


class Certify(Workload):
    """Build a certificate, write it, and re-verify it in a fresh process."""

    name = "certify"

    def __init__(self, tracer, out_dir):
        super().__init__(tracer, out_dir)
        self.path = os.path.join(out_dir, "certificate.json")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def make_pass(self, rng, kinds, per_kind, first):
        # The library's residue check holds p/2 squares, so the largest prime
        # found sets peak RSS.  This search finds the largest, and it opens
        # the run, on a heap that is the same for every seed.
        ops = super().make_pass(rng, kinds, per_kind, first)
        return [("nonresidue_prime", (997, 300_000))] * first + ops

    def _h(self, rng, gram, norms):
        while True:
            h = tuple(rng.randint(-1, 1) for _ in gram)
            if O.content(h) == 1 and O.pair(gram, h, h) in norms:
                return h

    def _certify(self, build, to_obj, *args):
        """construct -> serialize -> file -> `python -m reflekt verify` in a child."""
        cert = build(*args)
        text = serialize.dumps(to_obj(cert))
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        proc = self.tr.call("cli.verify", subprocess.run,
                            [sys.executable, "-m", "reflekt", "verify", self.path,
                             "--format", "json"],
                            capture_output=True, text=True, env=self.env)
        return cert, text, proc.returncode, proc.stdout

    def _check_verified(self, out):
        cert, text, code, stdout = out
        require(code == 0 and json.loads(stdout) == {"valid": True},
                f"verify exited {code}: {stdout.strip()[:200]}")
        require(json.loads(text)["format"] == serialize.FORMAT_TAG, "bad format tag")

    def digest(self, kind, out):
        if kind == "nonresidue_prime":
            return out
        return list(out[1:])  # certificate text and the verifier's answer

    def tally(self, kind, out):
        if kind != "nonresidue_prime":
            self.counts["serialize.cert_bytes"] += len(out[1].encode())
        if kind.startswith("mj_"):
            self.counts["construct.entries"] += len(out[0].entries)

    def _mj_pell(self, rng, u, gram):
        """u fixes q(h) in {2, 4, 6}, then the count 2..6, then N in 2..40, so
        that stratified u spreads all three across a pass."""
        i, v = divmod(3 * u, 1)
        j, w = divmod(5 * v, 1)
        return (gram, self._h(rng, gram, (2 + 2 * int(i),)), 2 + int(39 * w), 2 + int(j),
                construct.STRATEGY_PELL)

    def gen_mj_pell_u3(self, rng, u, ctx):
        return self._mj_pell(rng, u, U3)

    def gen_mj_pell_u3_22(self, rng, u, ctx):
        return self._mj_pell(rng, u, U3_22)

    def gen_mj_primes(self, rng, u, ctx):
        # primes at N = 1 and q(h) = 2 only: the avoided range is N q(h)^2, and
        # already at q(h) = 4 one op takes seconds (at N = 2, q(h) = 2, 52 s).
        # The count sets the cost; it is 2, 3, 3, 4 across four strata.
        return (U3, self._h(rng, U3, (2,)), 1, 2 + round(2 * u), construct.STRATEGY_PRIMES)

    def run_mj(self, gram, h, big_n, count, strategy):
        return self._certify(construct.mj_family, serialize.mj_to_obj,
                             Lattice(gram), h, big_n, count, strategy)

    run_mj_pell_u3 = run_mj_pell_u3_22 = run_mj_primes = run_mj

    def check_mj(self, gram, h, big_n, count, strategy, out):
        self._check_verified(out)
        cert = out[0]
        require(len(cert.entries) == count, f"{len(cert.entries)} entries, asked for {count}")
        for en in cert.entries:
            f = BinaryForm(en.gram[0][0], 2 * en.gram[0][1], en.gram[1][1])
            low = [v for v in O.binary_values(f.a, f.b, f.c, 20) if -cert.d * big_n <= v <= 0]
            require(not low, f"entry form represents {low[:3]}")
            require(O.pair(gram, en.v, h) == 0, "v does not pair to zero with h")

    check_mj_pell_u3 = check_mj_pell_u3_22 = check_mj_primes = check_mj

    def gen_pell_family(self, rng, u, ctx):
        return (2 + int(u * 1499),)

    def run_pell_family(self, a):
        return self._certify(construct.pell_family, serialize.pell_family_to_obj, a)

    def check_pell_family(self, a, out):
        self._check_verified(out)
        cert = out[0]
        x, y = cert.witness
        require(cert.mu == 2 - 2 * a and x * x - (a * a - 1) * y * y == cert.mu,
                f"witness {cert.witness} does not attain 2 - 2a")

    def gen_avoid_roots(self, rng, u, ctx):
        n, v = divmod(6 * u, 1)
        return (1 + int(n), 1 + int(30 * v))

    def run_avoid_roots(self, n, b):
        return self._certify(construct.avoid_roots, serialize.avoid_roots_to_obj, n, b)

    def check_avoid_roots(self, n, b, out):
        self._check_verified(out)
        cert = out[0]
        for k, p in cert.primes:
            require(O.is_prime(p) and p > b and O.is_nonresidue(-k, p),
                    f"p_{k} = {p} fails primality or the residue condition")

    def gen_nonresidue_prime(self, rng, u, ctx):
        # k <= 1000 keeps the prime near the minimum: the library's direct
        # residue check holds p/2 squares in memory, which sets peak RSS
        return (rng.randint(1, 1000), log_between(2, 100_000, u))

    def run_nonresidue_prime(self, k, minimum):
        return arith.nonresidue_prime(k, minimum=minimum)

    def check_nonresidue_prime(self, k, minimum, p):
        require(O.is_prime(p) and p >= minimum and k % p and O.is_nonresidue(-k, p),
                f"{p} is not a prime >= {minimum} with -{k} a nonresidue")


WORKLOADS = {w.name: w for w in (BinaryQueries, LatticeAlgebra, Certify)}
