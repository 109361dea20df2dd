from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (U, _rational_rank, charpoly_signature,
                      determinantal_divisor_oracle, dsum, solve_left_oracle)
from reflekt import construct, intlinalg as la, roots
from reflekt.errors import DependentBasisError, InvalidInputError
from reflekt.lattice import Lattice, Sublattice


def square_matrices(n_max=4, entry=6):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-entry, entry), min_size=n, max_size=n),
            min_size=n, max_size=n))


def rect_matrices(max_dim=4, entry=6):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-entry, entry), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0]))


def shaped_matrices(rows, cols, entry=50):
    """Matrices with a row count drawn from rows and a column count from cols."""
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-entry, entry), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0]))


def wide_matrices(entry=50):
    """k x n with n in 5..8 and k in 1..n+1, so ranks 1..8 and dependent rows."""
    return st.integers(5, 8).flatmap(
        lambda n: shaped_matrices(st.integers(1, n + 1), st.just(n), entry))


def det_by_expansion(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_by_expansion(minor)
    return total


@given(square_matrices())
@settings(max_examples=150)
def test_det_matches_cofactor_expansion(m):
    assert la.det(m) == det_by_expansion(m)


@given(rect_matrices())
@settings(max_examples=200, deadline=None)
def test_smith_form_decomposition(m):
    s = la.smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    # U * A * V == D
    d = la.mat_mul(la.mat_mul(s.u, la.freeze(m)), s.v)
    for i in range(rows):
        for j in range(cols):
            expected = s.diag[i] if i == j and i < len(s.diag) else 0
            assert d[i][j] == expected
    # transforms unimodular, vinv really inverts v
    assert abs(la.det(s.u)) == 1
    assert abs(la.det(s.v)) == 1
    assert la.mat_mul(s.v, s.vinv) == la.identity(cols)
    # nonnegative with the divisibility chain, zeros last
    nz = [x for x in s.diag if x != 0]
    assert all(x > 0 for x in nz)
    assert list(s.diag[:len(nz)]) == nz
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


@given(rect_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_annihilates_and_is_saturated(m):
    k = la.kernel(m)
    for row in k:
        assert all(sum(mr[j] * row[j] for j in range(len(row))) == 0 for mr in m)
    if k:
        s = la.smith_normal_form(k)
        assert all(d == 1 for d in s.diag)
    assert len(k) == len(m[0]) - la.rank(m)


def test_row_saturation_examples():
    assert la.row_saturation(((2, 0),)) == ((1, 0),)
    assert la.row_saturation(((2, 2),)) == ((1, 1),)
    with pytest.raises(DependentBasisError):
        la.row_saturation(((1, 2), (2, 4)))


@given(rect_matrices())
@settings(max_examples=100, deadline=None)
def test_row_span_basis_preserves_lattice(m):
    basis = la.row_span_basis(m)
    # every original row is an integer combination of the basis and vice versa
    if not basis:
        assert all(all(x == 0 for x in row) for row in m)
        return
    sol = la.solve_left(basis, la.freeze(m))
    assert sol is not None
    assert all(x.denominator == 1 for row in sol for x in row)


def test_solve_left():
    sol = la.solve_left(((1, 0, 1), (0, 1, 1)), ((2, 3, 5),))
    assert sol == ((Fraction(2), Fraction(3)),)
    assert la.solve_left(((1, 0, 0),), ((0, 1, 0),)) is None
    assert la.solve_left(((2, 0), (0, 3)), ((1, 1), (2, 0))) == (
        (Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(0)))
    # an empty basis spans only the zero vector
    assert la.solve_left((), ((1, 2),)) is None
    assert la.solve_left((), ((0, 0),)) == ((),)


@pytest.mark.parametrize("basis, targets", [
    (((1, 2), (2, 4)), ((1, 2),)),  # target inside the span
    (((1, 2), (2, 4)), ((1, 3),)),  # target outside the span
])
def test_solve_left_rejects_a_dependent_basis(basis, targets):
    with pytest.raises(DependentBasisError, match="linearly dependent"):
        la.solve_left(basis, targets)


@pytest.mark.parametrize("basis, targets", [
    (((1.5, 0),), ((1, 0),)),
    (((1, 0),), ((Fraction(1, 2), 0),)),
    (((1, 0),), (("1", 0),)),
    (((1, 0),), ((1, 0, 5),)),  # longer than the basis rows
    (((1, 0),), ((1,),)),  # shorter than the basis rows
])
def test_solve_left_rejects_bad_input(basis, targets):
    with pytest.raises(InvalidInputError):
        la.solve_left(basis, targets)


@pytest.mark.parametrize("call", [
    la.det, la.hermite_row_basis, la.kernel, la.rank, la.invariant_factors,
    la.row_saturation, lambda m: la.solve_left(m, ((1, 0),)),
    la.congruence_signature, la.smith_normal_form,
], ids=["det", "hermite_row_basis", "kernel", "rank", "invariant_factors",
        "row_saturation", "solve_left", "congruence_signature",
        "smith_normal_form"])
@pytest.mark.parametrize("mat", [
    ((1.5, 2), (2, 4)),
    ((1, Fraction(1, 2)), (2, 4)),
    ((1, 2), ("2", 4)),
    ((1, 2), (None, 4)),
    ((1, 2), 5),
    ((1, 2), (3,)),
], ids=["float", "fraction", "str", "none", "row-not-iterable", "ragged"])
def test_entry_points_refuse_inexact_matrices(call, mat):
    # nothing is truncated, rounded or carried along as a float answer, and
    # a ragged matrix is no matrix
    with pytest.raises(InvalidInputError):
        call(mat)


@pytest.mark.parametrize("call", [la.det, la.congruence_signature],
                         ids=["det", "congruence_signature"])
@pytest.mark.parametrize("mat", [((1, 2, 3), (2, 5, 6)), ((), ())],
                         ids=["2x3", "2x0"])
def test_square_entry_points_refuse_other_shapes(call, mat):
    with pytest.raises(InvalidInputError, match="square"):
        call(mat)


@st.composite
def solve_cases(draw):
    """k <= 3 independent rows in n <= 8 dimensions, and 1..3 targets: integer
    vectors in the Q-span (divided by their content, so coordinates are often
    fractions) or arbitrary integer vectors (mostly outside it when k < n)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, n)))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple)
    basis = tuple(draw(st.lists(row, min_size=k, max_size=k)))
    assume(_rational_rank(basis) == k)
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            c = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
            t = [sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(n)]
            g = gcd(*t) or 1
            targets.append(tuple(x // g for x in t))
        else:
            targets.append(draw(row))
    return basis, tuple(targets)


@given(solve_cases())
@settings(max_examples=300, deadline=None)
def test_solve_left_matches_gauss_jordan(case):
    basis, targets = case
    sol = la.solve_left(basis, targets)
    assert sol == solve_left_oracle(basis, targets)
    if sol is not None:
        for x, t in zip(sol, targets):
            assert tuple(sum(a * b[j] for a, b in zip(x, basis))
                         for j in range(len(t))) == t


def test_congruence_signature_basics():
    assert la.congruence_signature(((1, 0), (0, -8))) == (1, 1, 0)
    assert la.congruence_signature(((0, 1), (1, 0))) == (1, 1, 0)
    assert la.congruence_signature(((0, 0), (0, 0))) == (0, 0, 2)
    assert la.congruence_signature(((2,),)) == (1, 0, 0)


@st.composite
def symmetric_matrices(draw, n_max=6, entry=6):
    """Symmetric n x n integer matrices, n in 1..n_max; some have a zero
    diagonal, and some repeat a row and column, which makes them degenerate."""
    n = draw(st.integers(1, n_max))
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                a[i][j] = a[j][i] = draw(st.integers(-entry, entry))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a[j] = a[i][:]
        for row in a:
            row[j] = row[i]
    return tuple(map(tuple, a))


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_congruence_signature_matches_the_charpoly(m):
    pos, neg, zero = la.congruence_signature(m)
    assert (pos, neg) == charpoly_signature(m)
    assert zero == len(m) - _rational_rank(m)


def test_congruence_signature_builds_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("congruence_signature built a Fraction")

    monkeypatch.setattr(la, "Fraction", refuse)
    assert la.congruence_signature(((0, 2, 1), (2, 0, 3), (1, 3, 0))) == (1, 2, 0)
    assert la.congruence_signature(((0, 1, 1), (1, 0, 1), (1, 1, 0))) == (1, 2, 0)
    assert la.congruence_signature(((2, 4), (4, 8))) == (1, 0, 1)
    assert la.congruence_signature(((0, 0), (0, 0))) == (0, 0, 2)


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_mat_vec_matches_the_generator_form(rows, cols, data):
    # ints and Fractions alike: same values and same types
    entries = st.integers(-9, 9) | st.fractions(max_denominator=7)
    m = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    v = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    got = la.mat_vec(m, v)
    want = tuple(sum(x * y for x, y in zip(row, v)) for row in m)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


@given(shaped_matrices(st.integers(5, 8), st.integers(5, 8)))
@settings(max_examples=40, deadline=None)
def test_invariant_factors_match_determinantal_divisors(m):
    assert la.invariant_factors(m) == determinantal_divisor_oracle(m)


@given(wide_matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_and_rank_at_rank_5_to_8(m):
    n = len(m[0])
    r = len(determinantal_divisor_oracle(m))
    k = la.kernel(m)
    assert la.rank(m) == r
    assert len(k) == n - r
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m for v in k)
    # saturated: every invariant factor of the kernel basis is 1
    assert determinantal_divisor_oracle(k) == (1,) * len(k)
    assert k == la.hermite_row_basis(k)


@given(wide_matrices())
@settings(max_examples=80, deadline=None)
def test_row_saturation_at_rank_5_to_8(m):
    r = len(determinantal_divisor_oracle(m))
    if r < len(m):
        with pytest.raises(DependentBasisError):
            la.row_saturation(m)
        return
    s = la.row_saturation(m)
    assert len(s) == r
    assert determinantal_divisor_oracle(s) == (1,) * r
    # same rational span: no row of m adds rank to s
    assert all(len(determinantal_divisor_oracle(s + (tuple(row),))) == r for row in m)
    assert s == la.hermite_row_basis(s)


def smith_kernel(m):
    """The kernel from Smith's V: its columns at zero diagonal entries, Hermite-reduced."""
    cols = len(m[0])
    s = la.smith_normal_form(m)
    free = [i for i in range(cols) if i >= len(s.diag) or s.diag[i] == 0]
    return la.hermite_row_basis(tuple(tuple(s.v[r][i] for r in range(cols))
                                      for i in free))


def smith_saturation(m):
    """The saturation from Smith's V^-1: its first rank rows, Hermite-reduced."""
    s = la.smith_normal_form(m)
    r = sum(1 for d in s.diag if d != 0)
    if r != len(m):
        raise ValueError("rows are linearly dependent")
    return la.hermite_row_basis(tuple(s.vinv[i] for i in range(r)))


@given(rect_matrices(max_dim=4, entry=9))
@settings(max_examples=200, deadline=None)
def test_hermite_paths_match_smith_transforms(m):
    diag = la.smith_normal_form(m).diag
    assert la.invariant_factors(m) == tuple(d for d in diag if d != 0)
    assert la.rank(m) == sum(1 for d in diag if d != 0)
    assert la.kernel(m) == smith_kernel(m)
    try:
        want = smith_saturation(m)
    except ValueError:
        with pytest.raises(DependentBasisError, match="linearly dependent"):
            la.row_saturation(m)
    else:
        assert la.row_saturation(m) == want


def test_library_paths_never_reach_smith_form(monkeypatch):
    def refuse(mat):
        raise AssertionError("smith_normal_form reached from a library path")

    monkeypatch.setattr(la, "smith_normal_form", refuse)
    u3 = dsum(U, U, U)
    gram = ((2, 1, 0, 0), (1, -4, 3, 0), (0, 3, 6, 1), (0, 0, 1, -8))
    lat = Lattice(gram)
    sub = Sublattice(lat, ((2, 4, 0, 6), (0, 3, 3, 0)))
    assert lat.discriminant().order == abs(la.det(gram))
    assert la.kernel(gram[:2]) and la.rank(gram) == 4
    assert sub.index_in(sub.saturate()) == 6
    assert sub.orthogonal_complement().rank == 2
    assert construct.nv_complements(dsum(U, U), 2, 2)
    assert roots.root_norm_candidates(lat)
    assert construct.mj_family(u3, (1, 1, 0, 0, 0, 0), 1, 1)


def test_only_its_definition_names_smith_form():
    src = Path(la.__file__).parent
    hits = [(p.name, line.strip()) for p in sorted(src.glob("*.py"))
            for line in p.read_text().splitlines() if "smith_normal_form" in line]
    assert hits == [("intlinalg.py", "def smith_normal_form(mat) -> SmithForm:")]


def test_fractions_only_build_solve_left_answers():
    hits = [line.strip() for line in Path(la.__file__).read_text().splitlines()
            if "Fraction(" in line]
    assert hits == ["out.append(tuple(Fraction(-x, s) for x in y))"]
