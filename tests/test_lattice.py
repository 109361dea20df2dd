import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (ITEM2_GRAM, U, box_vectors_oracle, brute_roots,
                      charpoly_signature, determinantal_divisor_oracle, diag,
                      dsum)
from reflekt import intlinalg, roots
from reflekt.errors import (DegenerateLatticeError, DependentBasisError,
                            InvalidInputError, SpanMismatchError)
from reflekt.lattice import Lattice, Sublattice


def sym_int_matrices(n_max=6, entry=5, n_min=1):
    def build(n):
        return st.lists(
            st.lists(st.integers(-entry, entry), min_size=n, max_size=n),
            min_size=n, max_size=n).map(
                lambda m: tuple(tuple(m[i][j] if i <= j else m[j][i]
                                      for j in range(n)) for i in range(n)))
    return st.integers(n_min, n_max).flatmap(build)


# the tail block (g11, g12, g22) of the last two coordinates, in the shapes
# the tail solvers branch on; A = g12^2 - g11 g22
TAIL_SHAPES = {"g22=0": (2, 1, 0), "g11=0": (0, 1, -3), "U": (0, 1, 0),
               "A=0": (2, 2, 2), "A=0,g11=0": (0, 0, -2)}


@st.composite
def tail_shaped_cases(draw):
    """(gram, box): a symmetric matrix of size 1-5 whose tail block is free
    or forced to g22 = 0, g11 = 0, U (g11 = g22 = 0) or A = 0 (a singular
    block), and a box of 1-3, 1-2 at size 5 (where box 3 costs the oracles
    a quarter second)."""
    gram = [list(row) for row in draw(sym_int_matrices(n_max=5, entry=4))]
    shape = draw(st.sampled_from(("free", *TAIL_SHAPES)))
    if len(gram) >= 2 and shape != "free":
        g11, g12, g22 = gram[-2][-2], gram[-2][-1], gram[-1][-1]
        if shape == "g22=0":
            g22 = 0
        elif shape == "g11=0":
            g11 = 0
        elif shape == "U":
            g11, g12, g22 = 0, draw(st.sampled_from((-1, 1))), 0
        else:  # A = 0: k (u, v)^T (u, v)
            k, u, v = draw(st.tuples(st.sampled_from((-2, -1, 1, 2)),
                                     st.integers(-2, 2), st.integers(-2, 2)))
            g11, g12, g22 = k * u * u, k * u * v, k * v * v
        gram[-2][-2], gram[-1][-1] = g11, g22
        gram[-2][-1] = gram[-1][-2] = g12
    box = draw(st.integers(1, 3 if len(gram) < 5 else 2))
    return tuple(map(tuple, gram)), box


class TestLatticeBasics:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Lattice(((0, 1), (2, 0)))  # not symmetric
        with pytest.raises(DegenerateLatticeError):
            Lattice(((1, 1), (1, 1)))
        with pytest.raises(InvalidInputError, match="expected a square matrix"):
            Lattice(((1, 0),))
        with pytest.raises(InvalidInputError, match="expected rows of one length"):
            Lattice(((1, 2), (3,)))
        with pytest.raises(InvalidInputError, match="gram matrix must be nonempty"):
            Lattice(())

    @pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(1, 2), Fraction(2), "1"])
    def test_non_integer_gram_is_rejected(self, bad):
        # int() would truncate 2.5 to 2 and parse "1"; entries must be exact ints
        with pytest.raises(InvalidInputError):
            Lattice(((bad, 0), (0, -1)))
        with pytest.raises(InvalidInputError):
            Sublattice(U, ((bad, 0),))

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, "1"])
    def test_non_integer_vector_is_rejected(self, bad):
        # the true norm of (1/2, 1) in U is 1; truncation would give 0
        with pytest.raises(InvalidInputError):
            U.norm((bad, 1))
        with pytest.raises(InvalidInputError):
            U.divisibility((1, bad))

    def test_evaluate(self):
        assert diag(1, -8).evaluate((2, 1), (2, 1)) == -4
        assert diag(1, -8).evaluate((0, 0), (3, 5)) == 0
        assert U.evaluate((1, 0), (0, 1)) == 1
        # a vector is read once, so a one-shot iterator is accepted as well
        assert diag(1, -8).norm(iter([1, 1])) == -7
        assert diag(1, -8).evaluate(iter([2, 1]), iter([2, 1])) == -4
        assert diag(1, -8).divisibility(iter([0, 1])) == 8

    def test_evaluate_symmetric(self):
        lat = Lattice(((2, 1), (1, -4)))
        for u in itertools.product(range(-2, 3), repeat=2):
            for v in itertools.product(range(-2, 3), repeat=2):
                assert lat.evaluate(u, v) == lat.evaluate(v, u)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            U.evaluate((1, 0, 0), (0, 1))


class TestSignature:
    def test_examples(self):
        assert diag(1, -8).signature() == (1, 1)
        assert dsum(U, U, U).signature() == (3, 3)
        assert diag(5).signature() == (1, 0)

    @given(sym_int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_charpoly_oracle(self, gram):
        try:
            lat = Lattice(gram)
        except DegenerateLatticeError:
            return
        assert lat.signature() == charpoly_signature(gram)


class TestDiscriminant:
    def test_examples(self):
        assert U.discriminant().invariant_factors == ()
        assert U.discriminant().exponent == 1
        d = diag(1, -8).discriminant()
        assert (d.invariant_factors, d.exponent) == ((8,), 8)
        d = diag(2, -2).discriminant()
        assert (d.invariant_factors, d.exponent) == ((2, 2), 2)
        d = Lattice(ITEM2_GRAM).discriminant()
        assert (d.invariant_factors, d.exponent, d.order) == (
            (67431652404,), 67431652404, 67431652404)

    @given(sym_int_matrices(n_max=5, entry=4))
    @settings(max_examples=100, deadline=None)
    def test_order_equals_abs_det(self, gram):
        try:
            lat = Lattice(gram)
        except DegenerateLatticeError:
            return
        assert lat.discriminant().order == abs(lat.determinant())

    @given(sym_int_matrices(n_max=8, entry=50, n_min=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_determinantal_divisors_at_rank_5_to_8(self, gram):
        assume(intlinalg.det(gram) != 0)
        want = determinantal_divisor_oracle(gram)
        disc = Lattice(gram).discriminant()
        assert disc.invariant_factors == tuple(d for d in want if d > 1)
        assert disc.exponent == want[-1]
        assert disc.order == prod(want)


class TestRescale:
    def test_examples(self):
        assert U.rescale(2).gram == ((0, 2), (2, 0))
        assert diag(1, -6).rescale(3).gram == ((3, 0), (0, -18))
        assert diag(1, -8).rescale(1) == diag(1, -8)
        with pytest.raises(InvalidInputError):
            U.rescale(0)

    def test_unscaled(self):
        assert diag(1, -8).is_unscaled()
        assert not diag(2, -4).is_unscaled()
        assert not U.rescale(3).is_unscaled()


class TestSublattice:
    def test_gram_of(self):
        u3 = dsum(U, U, U)
        s = Sublattice(u3, ((0, 0, 1, -4, 0, 0), (1, 1, 0, 0, 0, 0)))
        assert s.gram_matrix() == ((-8, 0), (0, 2))
        ident = Sublattice(U, ((1, 0), (0, 1)))
        assert ident.gram_matrix() == U.gram
        assert Sublattice(U, ((1, 1),)).gram_matrix() == ((2,),)

    def test_dependent_rows_rejected(self):
        with pytest.raises(DependentBasisError):
            Sublattice(U, ((1, 1), (2, 2)))

    def test_saturate_examples(self):
        z2 = diag(1, 1)
        assert Sublattice(z2, ((2, 0),)).saturate().basis == ((1, 0),)
        assert Sublattice(U, ((2, 2),)).saturate().basis == ((1, 1),)
        prim = Sublattice(U, ((1, 1),))
        assert prim.saturate().basis == prim.basis

    def test_saturate_idempotent_and_index(self):
        u2 = dsum(U, U)
        s = Sublattice(u2, ((2, 0, 4, 0), (0, 3, 0, 3)))
        sat = s.saturate()
        assert sat.saturate().basis == sat.basis
        assert s.index_in(sat) == 6

    @given(sym_int_matrices(n_max=4, entry=3),
           st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                    min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_saturate_idempotent_property(self, gram, rows):
        try:
            lat = Lattice(gram)
        except DegenerateLatticeError:
            return
        rows = tuple(tuple(r[:lat.rank]) for r in rows)
        try:
            s = Sublattice(lat, rows)
        except (DependentBasisError, InvalidInputError):
            return
        sat = s.saturate()
        assert sat.saturate().basis == sat.basis
        assert s.index_in(sat) >= 1
        for row in s.basis:
            assert sat.contains(row)

    def test_index_examples(self):
        z2 = diag(1, 1)
        full = Sublattice(z2, ((1, 0), (0, 1)))
        assert full.index_in(full) == 1
        assert Sublattice(z2, ((2, 0), (0, 1))).index_in(full) == 2
        u3 = dsum(U, U, U)
        h = (1, 1, 0, 0, 0, 0)
        comp = Sublattice(u3, (h,)).orthogonal_complement()
        stacked = Sublattice(u3, comp.basis + (h,))
        ident = Sublattice(u3, tuple(tuple(int(i == j) for j in range(6))
                                     for i in range(6)))
        assert stacked.index_in(ident) == 2

    def test_index_errors(self):
        z2 = diag(1, 1)
        full = Sublattice(z2, ((1, 0), (0, 1)))
        with pytest.raises(SpanMismatchError):
            Sublattice(z2, ((1, 0),)).index_in(full)  # rank differs
        with pytest.raises(SpanMismatchError):
            full.index_in(Sublattice(z2, ((2, 0), (0, 1))))  # not contained

    @pytest.mark.parametrize("v", [
        (1, 0, 5),  # longer than the ambient rank
        (1,),  # shorter than the ambient rank
        (1.5, 0),
        ("1", 0),
        (Fraction(1), 0),
    ])
    @pytest.mark.parametrize("query", ["contains", "coordinates_of"])
    def test_queries_reject_bad_vectors(self, query, v):
        sub = Sublattice(diag(1, 1), ((1, 0),))
        with pytest.raises(InvalidInputError):
            getattr(sub, query)(v)

    def test_queries_examples(self):
        sub = Sublattice(diag(1, 1), ((2, 0),))
        assert sub.coordinates_of([1, 0]) == (Fraction(1, 2),)
        assert sub.coordinates_of((0, 1)) is None
        assert sub.contains((4, 0)) and sub.coordinates_of((4, 0)) == (2,)
        assert not sub.contains((1, 0)) and not sub.contains((0, 1))

    def test_orthogonal_complement(self):
        u3 = dsum(U, U, U)
        h = (1, 1, 0, 0, 0, 0)
        comp = Sublattice(u3, (h,)).orthogonal_complement()
        assert comp.rank == 5
        for row in comp.basis:
            assert u3.evaluate(row, h) == 0
        for v in ((1, -1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                  (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)):
            assert comp.contains(v)
        assert Sublattice(diag(1, -8), ((1, 0),)).orthogonal_complement().basis \
            == ((0, 1),)

    def test_double_complement_contains_saturation(self):
        u2 = dsum(U, U)
        s = Sublattice(u2, ((2, 2, 4, 0),))
        dc = s.orthogonal_complement().orthogonal_complement()
        for row in s.saturate().basis:
            assert dc.contains(row)

    def test_rows_of_a_dense_rank6_gram(self):
        # the first k rows of the Gram matrix as a sublattice of its own lattice
        lat = Lattice(ITEM2_GRAM)
        for k in range(1, 6):
            rows = ITEM2_GRAM[:k]
            sub = Sublattice(lat, rows)
            sat = sub.saturate()
            assert determinantal_divisor_oracle(sat.basis) == (1,) * k
            assert sub.index_in(sat) == prod(determinantal_divisor_oracle(rows))
            comp = sub.orthogonal_complement()
            assert comp.rank == 6 - k
            assert all(lat.evaluate(c, r) == 0 for c in comp.basis for r in rows)
            assert determinantal_divisor_oracle(comp.basis) == (1,) * (6 - k)

    def test_degenerate_restriction_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            Sublattice(U, ((1, 0),)).orthogonal_complement()


class TestDivisibility:
    def test_examples(self):
        assert U.divisibility((1, 0)) == 1
        assert U.rescale(2).divisibility((1, 0)) == 2
        assert diag(1, -8).divisibility((0, 1)) == 8
        with pytest.raises(InvalidInputError):
            U.divisibility((0, 0))

    @given(sym_int_matrices(n_max=4, entry=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_divides_norm(self, gram, v):
        try:
            lat = Lattice(gram)
        except DegenerateLatticeError:
            return
        v = tuple(v[:lat.rank]) + (0,) * max(0, lat.rank - len(v))
        if all(x == 0 for x in v):
            return
        m = lat.divisibility(v)
        assert lat.norm(v) % m == 0


class TestEnumerateNormVectors:
    def test_examples(self):
        assert U.enumerate_norm_vectors(0, 2) == ((0, 1), (1, 0))
        # both sign-inequivalent witnesses of norm -4 (oracle-confirmed)
        assert diag(1, -8).enumerate_norm_vectors(-4, 3) == ((2, -1), (2, 1))
        assert diag(1, -8).enumerate_norm_vectors(-3, 10) == ()

    @pytest.mark.parametrize("call", [
        lambda lat: lat.enumerate_norm_vectors(-8.0, 2),
        lambda lat: lat.check_prefix_budget(2.0),
        # the budget gate covers every walk behind it
        lambda lat: lat.enumerate_norm_vectors(-2, 2.0),
        lambda lat: lat.box_vectors(2.0),
        lambda lat: roots.find_roots_in_box(lat, 2.0),
        lambda lat: roots.reflectivity_indicator(lat, 2.0),
        # not sequences: a scalar Gram matrix, row and vector
        lambda lat: Lattice(5),
        lambda lat: Lattice(((1, 0), 3)),
        lambda lat: Lattice.diagonal(1, -1).norm(5),
        lambda lat: lat.rescale(None),
    ], ids=["norm", "budget", "walk_box", "box_vectors", "roots_box",
            "reflectivity_budget", "gram", "gram_row", "vector", "rescale"])
    def test_non_integer_scalars_are_rejected(self, call):
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            call(dsum(U, U, diag(-2)))

    def naive(self, lat, n, box):
        out = set()
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                if (x, y) == (0, 0):
                    continue
                from math import gcd
                if gcd(abs(x), abs(y)) != 1:
                    continue
                if lat.norm((x, y)) != n:
                    continue
                first = x if x != 0 else y
                out.add((x, y) if first > 0 else (-x, -y))
        return tuple(sorted(out))

    @given(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
           st.integers(-20, 20), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_naive_rank2(self, entries, n, box):
        a, b, c = entries
        try:
            lat = Lattice(((a, b), (b, c)))
        except DegenerateLatticeError:
            return
        assert lat.enumerate_norm_vectors(n, box) == self.naive(lat, n, box)

    def test_rank3(self):
        lat = diag(1, -1, -1)
        got = lat.enumerate_norm_vectors(-1, 2)
        assert (0, 0, 1) in got and (0, 1, 0) in got
        for v in got:
            assert lat.norm(v) == -1

    def test_rank1(self):
        assert diag(4).enumerate_norm_vectors(4, 3) == ((1,),)
        assert diag(4).enumerate_norm_vectors(16, 3) == ()  # (2,) imprimitive
        assert diag(-3).enumerate_norm_vectors(-3, 2) == ((1,),)


class TestBoxWalker:
    """box_vectors and enumerate_norm_vectors share one prefix walker."""

    @given(sym_int_matrices(n_max=5, entry=4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_product_oracle(self, gram, box):
        try:
            lat = Lattice(gram)
        except DegenerateLatticeError:
            return
        want = box_vectors_oracle(gram, box)
        # same order and norms, one vector per sign class
        assert lat.box_vectors(box) == want
        assert len(want) == ((2 * box + 1) ** lat.rank - 1) // 2
        for n in {q for _, q in want[::max(1, len(want) // 4)]} | {0}:
            primitive = tuple(sorted(v for v, q in want if q == n and gcd(*v) == 1))
            assert lat.enumerate_norm_vectors(n, box) == primitive

    def check_walkers(self, gram, box):
        """box_vectors against the product oracle, and enumerate_norm_vectors
        and find_roots_in_box against the sieved oracle and the brute force."""
        lat = Lattice(gram)
        want = box_vectors_oracle(gram, box)
        assert lat.box_vectors(box) == want
        for n in {q for _, q in want}:
            primitive = tuple(sorted(v for v, q in want if q == n and gcd(*v) == 1))
            assert lat.enumerate_norm_vectors(n, box) == primitive
        assert roots.find_roots_in_box(lat, box) == tuple(sorted(brute_roots(lat, box)))

    @pytest.mark.parametrize("gram", [((3,),), ((-2,),), ((-1,),), ((0, 1), (1, 0)),
                                      ((1, 0), (0, -8)), ((2, 1), (1, -3)),
                                      ((0, 2), (2, -1)), ((-2, 1), (1, -2))])
    @pytest.mark.parametrize("box", [1, 2, 3])
    def test_rank1_and_rank2(self, gram, box):
        self.check_walkers(gram, box)

    @given(sym_int_matrices(n_max=4, entry=4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_walkers_agree_with_the_oracles(self, gram, box):
        try:
            Lattice(gram)
        except DegenerateLatticeError:
            return
        self.check_walkers(gram, box)

    def test_leading_zero_prefixes(self):
        # an all-zero prefix leaves the sign to the last coordinate; after a
        # prefix whose first nonzero entry is positive, both signs follow
        lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -2)))
        vectors = [v for v, _ in lat.box_vectors(2)]
        assert vectors[:2] == [(0, 0, 1), (0, 0, 2)]
        assert (0, 1, -2) in vectors and (0, -1, 2) not in vectors
        got = lat.enumerate_norm_vectors(-2, 2)
        assert {(0, 0, 1), (0, 1, -1), (0, 1, 1), (0, 2, -1), (0, 2, 1)} <= set(got)
        assert not any(v[0] == 0 and v[1] < 0 for v in got)
        assert roots.find_roots_in_box(lat, 2) == got  # 2 divides 2 div(v)
        self.check_walkers(lat.gram, 2)

    def test_rejects_empty_box(self):
        with pytest.raises(InvalidInputError):
            U.box_vectors(0)
        with pytest.raises(InvalidInputError):
            U.enumerate_norm_vectors(0, 0)
        with pytest.raises(InvalidInputError):
            roots.find_roots_in_box(U, 0)
        with pytest.raises(InvalidInputError):
            diag(-3).box_vectors(0)

    @given(tail_shaped_cases())
    @settings(max_examples=25, deadline=None)
    def test_tail_shapes_agree_with_the_oracles(self, case):
        gram, box = case
        # every walk also runs the all-zero prefix and the prefixes with
        # leading zeros, whose tails take the sign-canonical half
        assume(intlinalg.det(gram) != 0)
        self.check_walkers(gram, box)

    @pytest.mark.parametrize("tail", TAIL_SHAPES.values(), ids=TAIL_SHAPES)
    def test_each_tail_shape(self, tail):
        gram = [[2, 1, 0, -1], [1, -3, 1, 1], [0, 1, 0, 0], [-1, 1, 0, 0]]
        gram[2][2], gram[2][3], gram[3][3] = tail
        gram[3][2] = tail[1]
        self.check_walkers(tuple(map(tuple, gram)), 2)

    def test_rank2_runs_the_half_table_once(self, monkeypatch):
        # rank 2 has one, empty, prefix: the tail loop runs once, over
        # x > 0 or x = 0 < t
        calls = []
        walk = Lattice._walk_prefixes

        def spy(self, box, finish):
            def recorded(coords, *rest):
                calls.append((tuple(coords), *rest))
                finish(coords, *rest)
            walk(self, box, recorded)

        monkeypatch.setattr(Lattice, "_walk_prefixes", spy)
        assert U.box_vectors(1) == [((0, 1), 0), ((1, -1), -2), ((1, 0), 0),
                                    ((1, 1), 2)]
        assert U.enumerate_norm_vectors(0, 1) == ((0, 1), (1, 0))
        assert U.enumerate_norm_vectors(-2, 1) == ((1, -1),)
        assert roots.find_roots_in_box(U, 1) == ((1, -1),)
        assert calls == [((0, 0), 0, 0, 0, True)] * 4
        assert U._tail_table(1)[1] == [(0, 1, 0, 2, 0), (1, -1, -2, -2, 2),
                                       (1, 0, 0, 0, 2), (1, 1, 2, 2, 2)]
