"""Exact linear algebra over the integers.

Everything here runs on unbounded Python integers, with Hermite forms as
the one elimination; no floating point is used anywhere.  Fractions appear
only as the answers of `solve_left`.  Matrices are immutable tuples of
tuples of rows.  The entry points read any nested sequence through
`freeze` and refuse an entry that is not an exact integer, a row that is
not iterable, or rows of unequal length, with InvalidInputError; `det` and
`congruence_signature` refuse a matrix that is not square too.
`transpose`, `mat_mul`, `mat_vec` and `content` are unchecked helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .arith import gcd_ext, int_vector
from .errors import DependentBasisError, InvalidInputError

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    """rows as a tuple of `int_vector`s of one length; rows that are not
    iterable, or of unequal lengths, are an InvalidInputError too."""
    try:
        out = tuple(int_vector(row) for row in rows)
    except TypeError:
        raise InvalidInputError(
            f"expected integer entries, got {rows!r}") from None
    if len({len(row) for row in out}) > 1:
        raise InvalidInputError(f"expected rows of one length, got {out!r}")
    return out


def _square(m) -> IntMatrix:
    """freeze(m), refusing a matrix that is not square."""
    m = freeze(m)
    if m and len(m[0]) != len(m):
        raise InvalidInputError(f"expected a square matrix, got {m!r}")
    return m


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def det(m) -> int:
    """Determinant of an integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in _square(m)]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Decomposition D = U * A * V with U, V unimodular.

    diag holds the nonnegative diagonal of D, with the divisibility chain
    d[i] | d[i+1]; zeros (if any) come last.  vinv is V^{-1}.
    """

    diag: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix
    vinv: IntMatrix


def smith_normal_form(mat) -> SmithForm:
    """Smith normal form via row/column reduction.

    Pivot rule: smallest nonzero absolute value in the remaining block,
    ties broken by position, so the output is deterministic.
    """
    a = [list(row) for row in freeze(mat)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]
    vinv = [list(r) for r in identity(cols)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(j, k, q):
        # col_j += q * col_k; V^{-1} tracks the inverse op on rows
        for r in a:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]
        vinv[k] = [x - q * y for x, y in zip(vinv[k], vinv[j])]

    def pick_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pick_pivot(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_neg(t)
        # clear row and column t; remainders shrink the pivot, so this loop
        # terminates by infinite descent on |a[t][t]|
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_neg(t)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        if a[t][t] < 0:
                            row_neg(t)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain property
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    return SmithForm(diag=diag, u=freeze(u), v=freeze(v), vinv=freeze(vinv))


def hermite_row_basis(mat) -> IntMatrix:
    """Row-style Hermite normal form of the Z-rowspan (canonical basis).

    Pivots positive, entries above a pivot reduced into [0, pivot); zero
    rows dropped.  The HNF is the unique canonical basis of the span, so
    any two bases of the same lattice map to identical output.
    """
    rows = list(freeze(mat))
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    top = 0
    for col in range(ncols):
        piv = None
        for i in range(top, nrows):
            if rows[i][col] != 0:
                if piv is None:
                    piv = i
                    rows[top], rows[piv] = rows[piv], rows[top]
                    piv = top
                else:
                    a, b = rows[piv][col], rows[i][col]
                    g, x, y = gcd_ext(a, b)
                    p, q = a // g, b // g
                    new_piv = [x * u + y * v for u, v in zip(rows[piv], rows[i])]
                    rows[i] = [-q * u + p * v for u, v in zip(rows[piv], rows[i])]
                    rows[piv] = new_piv
        if piv is None:
            continue
        if rows[piv][col] < 0:
            rows[piv] = [-x for x in rows[piv]]
        for i in range(top):
            q = rows[i][col] // rows[piv][col]
            if q:
                rows[i] = [u - q * v for u, v in zip(rows[i], rows[piv])]
        top += 1
    return tuple(tuple(r) for r in rows[:top] if any(r))


def kernel(mat) -> IntMatrix:
    """Canonical basis rows for {x : mat @ x = 0} over Z; always saturated.

    These are the rows of the Hermite form of [mat^T | I] whose mat^T part
    is zero (Cohen, Alg. 2.4.10); their I part is already a Hermite form.
    """
    mat = freeze(mat)
    m = len(mat)
    cols = len(mat[0]) if m else 0
    aug = tuple(col + e for col, e in zip(transpose(mat), identity(cols)))
    return tuple(row[m:] for row in hermite_row_basis(aug) if not any(row[:m]))


def row_saturation(mat) -> IntMatrix:
    """Canonical basis rows of (Q-rowspan of mat) intersected with Z^n.

    Requires full row rank; the result is the kernel of the kernel.
    """
    k = kernel(mat)
    if mat and len(k) != len(mat[0]) - len(mat):
        raise DependentBasisError("rows are linearly dependent")
    return kernel(k) if k else identity(len(mat))


def row_span_basis(mat) -> IntMatrix:
    """Canonical basis rows of the Z-span of the given rows (not saturated).

    An alias of `hermite_row_basis`, which library code calls; it stays only
    because `perfbench/workloads.py::_ENTRY_POINTS` names it.
    """
    return hermite_row_basis(mat)


def rank(mat) -> int:
    return len(hermite_row_basis(mat))


def invariant_factors(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d[i] | d[i+1] of mat (Kannan & Bachem 1979)."""
    # each pass either clears the leading row and column or shrinks the
    # pivot to a proper divisor, so the loop ends
    h = hermite_row_basis(mat)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = hermite_row_basis(transpose(h))
    d = [row[i] for i, row in enumerate(h)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


def solve_left(basis, targets):
    """Solve X * basis = targets over Q, or None if some row is outside the span.

    basis rows must be linearly independent; a target whose kernel shows
    they are not raises DependentBasisError.  Each target is read off the
    kernel of [basis; t]^T: t lies in the Q-span iff a kernel row (y, s) has
    s != 0, and then its coordinates are -y/s.  An empty basis spans only
    the zero vector.  Returns a tuple of Fraction rows, one per target row.
    """
    basis = freeze(basis)
    out = []
    for t in freeze(targets):
        if basis and len(t) != len(basis[0]):
            raise InvalidInputError(
                f"target length {len(t)} does not match basis rows of "
                f"length {len(basis[0])}")
        kern = kernel(transpose(basis + (t,)))
        if len(kern) > 1 or kern and not kern[0][-1]:
            raise DependentBasisError("basis rows are linearly dependent")
        if not kern:
            return None
        *y, s = kern[0]
        out.append(tuple(Fraction(-x, s) for x in y))
    return tuple(out)


def congruence_signature(gram):
    """Inertia (pos, neg, zero) of a symmetric integer matrix.

    Symmetric fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on
    integers, pivoting on any remaining nonzero diagonal entry.  After the
    pivots P, the entry (i, j) of the block is the bordered minor
    det G[P+i, P+j], so by Sylvester's identity the update
    (d a_ij - a_ik a_kj) // prev is exact, and the rational pivot of the
    congruence diagonalization is d / prev: positive iff d and prev share
    a sign.  A block with zero diagonal but a nonzero a_ij gets row and
    column j added into i, over the uneliminated indices only, which keeps
    every entry a bordered minor and makes a_ii = 2 a_ij nonzero.  By
    Sylvester's law of inertia the counts do not depend on the pivots.
    """
    a = [list(row) for row in _square(gram)]
    alive = list(range(len(a)))
    pos = neg = 0
    prev = 1
    while alive:
        k = next((i for i in alive if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in alive for j in alive
                         if i != j and a[i][j]), None)
            if pair is None:
                return pos, neg, len(alive)
            k, j = pair
            for t in alive:
                a[k][t] += a[j][t]
            for t in alive:
                a[t][k] += a[t][j]
        d = a[k][k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        alive.remove(k)
        ak = a[k]
        for i in alive:
            ai = a[i]
            aik = ai[k]
            for j in alive:
                ai[j] = (d * ai[j] - aik * ak[j]) // prev
        prev = d
    return pos, neg, 0


def content(rows) -> int:
    """gcd of all entries."""
    return gcd(*chain.from_iterable(rows))
