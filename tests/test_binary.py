from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (_is_reduced, _reduce_oracle, _rho, binary_memos,
                      binary_roots_oracle, brute_values,
                      canonical_witness_oracle, cf_oracle, class_walk_oracle,
                      cycle_oracle, gram_divisibility_oracle, mu_oracle,
                      pell_oracle, pell_sequential_oracle, primitive_oracle,
                      representation_oracle_values, sqrt_classes_oracle,
                      square_parts_oracle, witness_walk_oracle)
from reflekt import binary as b
from reflekt import roots
from reflekt.arith import divisors, factorize, is_prime
from reflekt.lattice import Lattice
from reflekt.errors import (EffortLimitExceeded, InvalidInputError,
                            IsotropicFormError)

NONSQUARE = [d for d in range(2, 201) if not b.is_square(d)]


def _record(f):
    """The cycle record of f's reduced start form."""
    return b._cycle(b._reduce(f)[0])


def indefinite_forms(entry=12):
    return st.tuples(st.integers(-entry, entry), st.integers(-entry, entry),
                     st.integers(-entry, entry)).filter(
        lambda t: t[1] * t[1] - 4 * t[0] * t[2] > 0)


def even_middle_forms(entry=30):
    """Indefinite (a, 2h, c), isotropic ones drawn as products of two
    linear forms."""
    general = st.tuples(st.integers(-entry, entry), st.integers(-entry, entry),
                        st.integers(-entry, entry)).filter(
        lambda t: t[1] * t[1] > t[0] * t[2]).map(lambda t: (t[0], 2 * t[1], t[2]))
    small = st.integers(-6, 6)
    isotropic = st.tuples(small, small, small, small).map(
        lambda t: (t[0] * t[2], t[0] * t[3] + t[1] * t[2], t[1] * t[3])).filter(
        lambda t: t[1] % 2 == 0 and t[1] * t[1] > 4 * t[0] * t[2])
    return st.one_of(general, isotropic)


def random_even_middle_forms(rng, count, entry):
    out = []
    while len(out) < count:
        a, h, c = (rng.randint(-entry, entry) for _ in range(3))
        if h * h > a * c and not b.is_square(h * h - a * c):
            out.append((a, 2 * h, c))
    return out


class TestBinaryForm:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            b.BinaryForm(1, 0, 1)  # definite
        with pytest.raises(InvalidInputError):
            b.BinaryForm(1, 2, 1)  # degenerate
        f = b.BinaryForm.from_d(7)
        assert (f.a, f.b, f.c) == (1, 0, -7)
        assert f.disc == 28

    @pytest.mark.parametrize("make", [
        lambda: b.BinaryForm(1.5, 0, -2),
        lambda: b.BinaryForm(1, Fraction(0), -2),
        lambda: b.BinaryForm("1", 0, -2),
        lambda: b.BinaryForm.from_d(7.0),
        lambda: b.BinaryForm.from_d("3"),
        lambda: b.BinaryForm.from_d(None),
        lambda: b.BinaryForm.from_d((1, 2)),
    ])
    def test_rejects_non_integer_coefficients(self, make):
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            make()

    @pytest.mark.parametrize("query", [b.represents, b.representation_witness])
    def test_queries_reject_a_non_integer_value(self, query):
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            query(b.BinaryForm.from_d(7), 2.0)

    def test_gram_round_trip(self):
        f = b.BinaryForm(2, 4, -3)
        lat = f.gram_lattice()
        assert lat.gram == ((2, 2), (2, -3))
        assert b.BinaryForm.from_gram(lat) == f
        with pytest.raises(InvalidInputError):
            b.BinaryForm(1, 1, -1).gram_lattice()


class TestContinuedFractions:
    def test_examples(self):
        cf = b.cf_sqrt(7)
        assert (cf.a0, cf.period) == (2, (1, 1, 1, 4))
        assert b.cf_sqrt(8).period == (1, 4)
        cf24 = b.cf_sqrt(24)
        assert (cf24.a0, cf24.period) == (4, (1, 8))

    def test_square_family_pattern(self):
        # sqrt(a^2 - 1) = [a-1; 1, 2a-2]
        for a in range(2, 30):
            cf = b.cf_sqrt(a * a - 1)
            assert cf.a0 == a - 1
            assert cf.period == (1, 2 * a - 2)

    def test_rejects_squares(self):
        with pytest.raises(InvalidInputError):
            b.cf_sqrt(9)
        with pytest.raises(InvalidInputError):
            b.cf_sqrt(0)

    def test_q_sequence_value_identity(self):
        # convergent values: p_i^2 - d q_i^2 = (-1)^(i+1) Q_(i+1)
        for d in (7, 8, 13, 19, 31, 46):
            cf = b.cf_sqrt(d)
            p_prev, p = 1, cf.a0
            q_prev, q = 0, 1
            for i, a in enumerate(cf.period[:-1]):
                assert p * p - d * q * q == (-1) ** (i + 1) * cf.q_sequence[i]
                p, p_prev = a * p + p_prev, p
                q, q_prev = a * q + q_prev, q

    def test_matches_the_recurrence_oracle(self):
        # every non-square d < 20 000: 2 524 odd periods, read whole off the
        # half cycle, and even ones, completed by the mirror image
        for d in range(2, 20_000):
            if not b.is_square(d):
                assert b.cf_sqrt(d) == cf_oracle(d), d

    def test_principal_cycle_is_a_palindrome_with_two_centres(self):
        # the lemma behind _principal_half: the full cycle of
        # (1, 2 a0, a0^2 - d) has steps t_(L-2-j) = t_j ending in 2 a0, and
        # its only edge centres are the steps L/2 - 1 and L - 1
        for d in range(2, 2000):
            if b.is_square(d):
                continue
            a0 = isqrt(d)
            walk = list(b._walk((1, 2 * a0, a0 * a0 - d)))
            ts = [t for _, t in walk]
            n = len(ts)
            assert all(ts[n - 2 - j] == ts[j] for j in range(n - 1)), d
            assert ts[-1] == 2 * a0, d
            centres = [i for i, ((_, mid, c), t) in enumerate(walk) if t * c == mid]
            assert centres == [n // 2 - 1, n - 1], d

    def test_reconstruction_reproduces_expansion(self):
        # the data (a0, period) regenerate the same expansion
        for d in (7, 8, 24, 61, 109):
            cf = b.cf_sqrt(d)
            assert isqrt(d) == cf.a0
            assert b.cf_sqrt(d) == cf


class TestPell:
    def test_examples(self):
        assert (b.pell_fundamental(7).x, b.pell_fundamental(7).y) == (8, 3)
        assert (b.pell_fundamental(8).x, b.pell_fundamental(8).y) == (3, 1)
        assert (b.pell_fundamental(2).x, b.pell_fundamental(2).y) == (3, 2)

    @pytest.mark.parametrize("call", [b.cf_sqrt, b.pell_fundamental])
    def test_rejects_a_non_integer_d(self, call):
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            call(7.0)

    def test_minimality_all_d_to_200(self):
        # exhaustive scan below the found y where feasible; for the handful
        # of d with huge fundamental solutions the identity check plus a
        # capped scan is the best a desk-scale test can do
        for d in NONSQUARE:
            s = b.pell_fundamental(d)
            assert s.x * s.x - d * s.y * s.y == 1
            for y in range(1, min(s.y, 3000)):
                t = 1 + d * y * y
                r = isqrt(t)
                assert r * r != t, (d, y)

    def test_period_end_matches_convergent_scan(self):
        # the unit is read at the end of the (second) period; the oracle
        # tests the norm of every convergent until one is 1
        for d in range(2, 3001):
            if not b.is_square(d):
                s = b.pell_fundamental(d)
                assert (s.x, s.y) == pell_oracle(d), d

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_product_tree_matches_the_sequential_loop(self, monkeypatch, chunk):
        # a chunk far below the period length makes every d take the tree
        # path, with odd and even leaf counts and a ragged last chunk
        monkeypatch.setattr(b, "_STEP_CHUNK", chunk)
        parities = set()
        for d in NONSQUARE + [991, 9_999_991, 10_000_141]:
            k = len(b.cf_sqrt(d).period)
            parities.add(k % 2)
            s = b.pell_fundamental(d)
            assert (s.x, s.y) == pell_sequential_oracle(d), (d, chunk)
        assert parities == {0, 1}

    def test_long_period_matches_the_sequential_loop(self):
        # an odd period of 4 769 terms: the principal cycle has 9 538 steps,
        # and the 4 768 before its first centre make 75 leaves of the
        # default chunk size
        d = 10_000_141
        assert len(b.cf_sqrt(d).period) == 4769 and b._STEP_CHUNK == 64
        s = b.pell_fundamental(d)
        assert (s.x, s.y) == pell_sequential_oracle(d)

    def test_isometry_examples(self):
        assert b.fundamental_automorph(b.BinaryForm.from_d(8)) == ((3, 8), (1, 3))
        assert b.fundamental_automorph(b.BinaryForm.from_d(2)) == ((3, 4), (2, 3))

    def test_isometry_preserves_form_and_powers(self):
        for d in (2, 8, 13, 61):
            m = b.fundamental_automorph(b.BinaryForm.from_d(d))
            g = ((1, 0), (0, -d))
            assert m[0][0] + m[1][1] > 2
            cur = ((1, 0), (0, 1))
            for _ in range(4):
                cur = b._mat2_mul(cur, m)
                gm = tuple(tuple(sum(cur[k][i] * sum(g[k][l] * cur[l][j]
                                                     for l in range(2))
                                     for k in range(2)) for j in range(2))
                           for i in range(2))
                assert gm == g

    def test_automorph_odd_middle_coefficient(self):
        f = b.BinaryForm(1, 1, -1)
        m = b.fundamental_automorph(f)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        assert m[0][0] + m[1][1] > 2
        for v in ((1, 0), (0, 1), (1, 1), (3, -2)):
            assert f.value(*b._apply(m, v)) == f.value(*v)

    def test_automorph_matches_the_two_branch_formula(self):
        # the parity split the one formula replaced: for even b the unit of
        # x^2 - (b^2/4 - ac) y^2 = 1, for odd b that of x^2 - D y^2 = 1
        def two_branch(a, bb, c):
            if bb % 2 == 0:
                s = b.pell_fundamental((bb // 2) ** 2 - a * c)
                h = bb // 2
                return ((s.x - h * s.y, -c * s.y), (a * s.y, s.x + h * s.y))
            s = b.pell_fundamental(bb * bb - 4 * a * c)
            return ((s.x - bb * s.y, -2 * c * s.y), (2 * a * s.y, s.x + bb * s.y))

        import random
        rng = random.Random(13)
        odd = 0
        for _ in range(600):
            t = tuple(rng.randint(-40, 40) for _ in range(3))
            disc = t[1] ** 2 - 4 * t[0] * t[2]
            if disc <= 0 or b.is_square(disc):
                continue
            assert b.fundamental_automorph(b.BinaryForm(*t)) == two_branch(*t), t
            odd += t[1] % 2
        assert odd >= 100, odd


class TestRepresents:
    def test_examples(self):
        assert b.represents(b.BinaryForm.from_d(7), -3) is True
        assert b.represents(b.BinaryForm.from_d(7), -1) is False
        assert b.represents(b.BinaryForm.from_d(161), -2) is False

    def test_zero_iff_square_disc(self):
        assert b.represents(b.BinaryForm.from_d(9), 0) is True
        assert b.represents(b.BinaryForm.from_d(8), 0) is False
        assert b.represents(b.BinaryForm(0, 1, 3), 0) is True

    def test_oracle_equivalence_diagonal(self):
        # conclusive oracle: class-bound scan (see conftest)
        for d in (2, 3, 7, 10, 13, 29, 53):
            f = b.BinaryForm.from_d(d)
            vals = representation_oracle_values(d, 30)
            for n in range(-30, 31):
                assert b.represents(f, n) == (n in vals), (d, n)

    def test_minimal_witness_can_exceed_small_boxes(self):
        # x^2 - 29 y^2 = -1 has minimal solution (70, 13): a box-60 scan
        # misses it, the complete decision must not
        assert b.represents(b.BinaryForm.from_d(29), -1) is True
        assert -1 not in brute_values(1, 0, -29, 60)
        assert 70 * 70 - 29 * 13 * 13 == -1

    @given(indefinite_forms(), st.integers(-25, 25))
    @settings(max_examples=300, deadline=None)
    def test_brute_force_witnesses_are_confirmed(self, t, n):
        # one-sided: anything a box search finds must be decided True
        f = b.BinaryForm(*t)
        if n in brute_values(*t, 25):
            assert b.represents(f, n) is True

    @given(st.sampled_from([d for d in range(2, 80) if not b.is_square(d)]),
           st.integers(-30, 30))
    @settings(max_examples=300, deadline=None)
    def test_diagonal_agrees_with_conclusive_oracle(self, d, n):
        vals = representation_oracle_values(d, 30)
        assert b.represents(b.BinaryForm.from_d(d), n) == (n in vals)

    def test_square_disc_complete(self):
        # f = x^2 - 9 y^2 = (x-3y)(x+3y): any representation of n has
        # |y| <= (|n|+1)/6 and |x| <= (|n|+1)/2, so box 45 is conclusive
        # for |n| <= 40 and the equality below is an exact oracle test
        f = b.BinaryForm.from_d(9)
        vals = brute_values(1, 0, -9, 45)
        for n in range(-40, 41):
            if n == 0:
                assert b.represents(f, n) is True
            else:
                assert b.represents(f, n) == (n in vals), n

    def test_imprimitive_values(self):
        # 4*(-1) = -4 forces the imprimitive route for x^2 - 5 y^2
        f = b.BinaryForm.from_d(5)
        assert b.represents(f, -4) is True
        assert b.represents(f, -1) is True

    @given(indefinite_forms(), st.integers(-30, 30))
    @settings(max_examples=400, deadline=None)
    def test_decision_agrees_with_witness_route(self, t, n):
        # the cycle-coefficient shortcut and the class-transform route must
        # never disagree, and every positive answer must carry evidence
        f = b.BinaryForm(*t)
        w = b.representation_witness(f, n)
        assert b.represents(f, n) == (w is not None)
        if w is not None:
            assert w != (0, 0)
            assert f.value(*w) == n

    @given(indefinite_forms(entry=8), st.integers(-20, 20),
           st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    def test_equivalence_invariance(self, t, n, p, q):
        # f and f composed with a unimodular substitution represent the
        # same integers
        f = b.BinaryForm(*t)
        # build M = [[p, r], [q, s]] with det 1 from a solved Bezout pair
        from math import gcd as _gcd
        if _gcd(abs(p), abs(q)) != 1:
            return
        g, s, r = 0, 0, 0
        from reflekt.arith import gcd_ext
        g, s, negr = gcd_ext(p, q)
        r = -negr
        if g != 1:
            return
        a2, b2, c2 = t
        # f(M(x, y)) coefficients
        fa = f.value(p, q)
        fc = f.value(r, s)
        fb = 2 * a2 * p * r + b2 * (p * s + q * r) + 2 * c2 * q * s
        g2 = b.BinaryForm(fa, fb, fc)
        assert g2.disc == f.disc
        assert b.represents(g2, n) == b.represents(f, n)

    def test_symmetry_invariances(self):
        # value sets are invariant under y -> -y and the x/y swap
        for t in ((1, 0, -7), (2, 2, -3), (3, 5, -1), (1, 3, -3)):
            f = b.BinaryForm(*t)
            f_neg = b.BinaryForm(t[0], -t[1], t[2])
            f_swap = b.BinaryForm(t[2], t[1], t[0])
            for n in range(-15, 16):
                assert b.represents(f, n) == b.represents(f_neg, n), (t, n)
                assert b.represents(f, n) == b.represents(f_swap, n), (t, n)

    def test_invariance_under_large_transforms(self):
        # seeded stress: coefficients grow to ~1e8; the reduction machinery
        # must still land every equivalent form in the same cycle
        import random
        rng = random.Random(7)
        for d in (7, 29, 161, 2499):
            f = b.BinaryForm.from_d(d)
            for _ in range(10):
                m = ((1, 0), (0, 1))
                for _ in range(12):
                    k = rng.randint(-5, 5)
                    g = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
                    m = b._mat2_mul(m, g)
                (p, r), (q, s) = m
                fa, fc = f.value(p, q), f.value(r, s)
                fb = 2 * f.a * p * r + f.b * (p * s + q * r) + 2 * f.c * q * s
                g2 = b.BinaryForm(fa, fb, fc)
                assert g2.disc == f.disc
                for n in (-1, -2, -5, 3, -d):
                    assert b.represents(f, n) == b.represents(g2, n), (d, n)


class TestMu:
    def test_examples(self):
        assert b.mu(b.BinaryForm.from_d(8)) == -4
        assert b.mu(b.BinaryForm.from_d(7)) == -3
        assert b.mu(b.BinaryForm.from_d(24)) == -8

    def test_rejects_isotropic(self):
        with pytest.raises(IsotropicFormError):
            b.mu(b.BinaryForm.from_d(9))

    # mu reads c* off the cycle; `represents`, which runs the class search
    # on every value and every imprimitive part, is the oracle.  x^2 - 8y^2,
    # x^2 - 24y^2, the a^2 - 1 cases 35 and 99 and the three odd-middle
    # forms have 4 mu^2 >= D, where only the Klein-sail proof in `mu` rules
    # out a represented value between c* and 0.
    @given(indefinite_forms())
    @example((1, 0, -2))
    @example((1, 0, -7))
    @example((1, 0, -8))
    @example((1, 0, -24))
    @example((1, 0, -35))
    @example((1, 0, -61))
    @example((1, 0, -99))
    @example((1, 0, -161))
    @example((1, -11, -11))
    @example((1, -11, 11))
    @example((1, -9, 1))
    @settings(max_examples=150, deadline=None)
    def test_mu_is_attained_and_maximal(self, t):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        m = b.mu(f)
        assert b.represents(f, m)
        for k in range(m + 1, 0):
            assert not b.represents(f, k), (t, k)

    def test_square_family_value(self):
        for a in range(2, 51):
            assert b.mu(b.BinaryForm.from_d(a * a - 1)) == 2 - 2 * a

    @given(indefinite_forms(entry=9))
    @settings(max_examples=150, deadline=None)
    def test_mu_against_brute_force(self, t):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        m = b.mu(f)
        vals = brute_values(*t, 40)
        negs = sorted(v for v in vals if v < 0)
        if negs:
            assert m >= negs[-1]
        assert all(v <= m for v in negs)


# (form, its reduced start form, mu) for D from 1.6 * 10^9 to 4 * 10^10
LARGE_MU_FORMS = [
    ((1, 0, -999_999_937), (1, 63244, -49053), -1),
    ((1, 0, -1_000_000_007), (1, 63244, -49123), -19),
    ((1, 0, -9_999_999_967), (1, 199998, -199966), -3),
    ((3, 7, -1_234_567_891), (3, 121711, -103935), -11),
    ((-10_007, 3, 250_000), (-10007, 80059, 89876), -10),
    ((4, 0, -4 * 99_999_989), (4, 79992, -79952), -4),
]


class TestStreamedMu:
    """mu streams the cycle, and the leads of the cycle record agree with it:
    both against the downward loop of conftest.mu_oracle."""

    @staticmethod
    def both_routes(f):
        """mu(f), which builds no record, and the largest negative lead of
        f's cycle record."""
        records = b._cycle.cache_info()
        streamed = b.mu(f)
        assert b._cycle.cache_info() == records
        _, _, _, leads, _ = _record(f)
        return streamed, max(a for a in leads if a < 0)

    # x^2 - 2y^2, x^2 - 13y^2 and -x^2 + 7y^2 have mu = -1 and stop early;
    # the last reduces to (-1, 4, 3), a start with a negative lead, as do
    # -3x^2 + xy + 5y^2 and -2x^2 + 14y^2; the three after are imprimitive.
    # Then: diagonal (x^2 - 94y^2, 16 forms) and odd-b (x^2 + xy - 23y^2,
    # 11x^2 + 9xy - 3y^2) ambiguous cycles; forms of cycles with no edge
    # centre, (2, 1, -18) and (6, 11, -37); and reduced starts on either
    # side of x^2 - 94y^2's two centres, (-15, 16, 2) -> (2, 16, -15) and
    # (-13, 18, 1) -> (1, 18, -13)
    @given(indefinite_forms())
    @example((1, 0, -2))
    @example((1, 0, -13))
    @example((-1, 0, 7))
    @example((-3, 1, 5))
    @example((-2, 0, 14))
    @example((2, 0, -6))
    @example((3, 3, -3))
    @example((6, 0, -10))
    @example((1, 0, -94))
    @example((1, 1, -23))
    @example((11, 9, -3))
    @example((2, 1, -18))
    @example((6, 11, -37))
    @example((-15, 16, 2))
    @example((2, 16, -15))
    @example((1, 18, -13))
    @example((-13, 18, 1))
    @settings(max_examples=200, deadline=None)
    def test_both_routes_match_the_oracle(self, t):
        f = b.BinaryForm(*t)
        if b.is_anisotropic(f):
            expected = mu_oracle(f)
            assert self.both_routes(f) == (expected, expected), t

    @pytest.mark.parametrize("t,start,expected", LARGE_MU_FORMS)
    def test_both_routes_on_large_discriminants(self, t, start, expected):
        f = b.BinaryForm(*t)
        assert b._reduce_form(t, f.disc, isqrt(f.disc))[0] == start
        assert mu_oracle(f) == expected
        assert self.both_routes(f) == (expected, expected)

    @pytest.mark.parametrize("t", [(1, 0, -13), (1, 0, -94), (11, 9, -3),
                                   (2, 1, -18), (-10_007, 3, 250_000)])
    def test_mu_walks_past_a_cached_record(self, t):
        # a record of f's cycle is no route to mu: it still walks once
        f = b.BinaryForm(*t)
        _record(f)
        assert b._cycle.cache_info().currsize == 1
        assert b.mu(f) == mu_oracle(f)
        assert b._mu_walk.cache_info().misses == 1

    def test_walk_stops_at_minus_one(self, monkeypatch):
        # in x^2 - d y^2 with a solution of x^2 - d y^2 = -1, the lead -1
        # sits halfway round the cycle, just after an edge centre, and the
        # form before it has c = -1.  From a start j forms past the other
        # centre the walk answers on reading that form, L/2 - j forms in,
        # where the centre after it is L/2 forms further on; the record of
        # the whole cycle is refused under the same cap
        for d in (13, 61, 1021, 999_999_937):
            cycle = cycle_oracle(b.BinaryForm.from_d(d))
            half = [g[0] for g in cycle].index(-1)
            assert 2 * half == len(cycle) and cycle[half - 1][2] == -1
            for j in (1, half // 2, half - 1):
                f = b.BinaryForm(*cycle[j])
                monkeypatch.setattr(b, "_CYCLE_CAP", half - j)
                assert b.mu(f) == -1
                with pytest.raises(EffortLimitExceeded):
                    _record(f)
                b._mu_walk.cache_clear()
                monkeypatch.setattr(b, "_CYCLE_CAP", half - j - 1)
                with pytest.raises(EffortLimitExceeded):
                    b.mu(f)

    @staticmethod
    def first_centre(cycle):
        """The index i >= -1 of the first edge centre met walking from
        cycle[0], the step from cycle[i] to cycle[i + 1], or None."""
        n = len(cycle)
        for i in range(-1, n - 1):
            a, b_, c = cycle[i % n]
            if cycle[i + 1] == (c, b_, a):
                return i
        return None

    def forms_read(self, f, monkeypatch):
        """The forms mu's walk reads on f, as the least cap it answers under."""
        cap = 0
        while True:
            b._mu_walk.cache_clear()
            monkeypatch.setattr(b, "_CYCLE_CAP", cap)
            try:
                return cap, b.mu(f)
            except EffortLimitExceeded:
                cap += 1

    @pytest.mark.parametrize("t", [(1, 0, -94), (1, 0, -7), (2, 0, -15),
                                   (1, 1, -23), (1, 7, -28), (-7, 0, 30),
                                   (2, 1, -18), (6, 11, -37)])
    def test_walk_reads_to_the_second_centre(self, monkeypatch, t):
        # from every start of the cycle: i + L/2 + 1 forms with the first
        # centre at step i (the step into the start counts as i = -1), and
        # all L forms on a cycle with no centre; none of these has -1
        cycle = cycle_oracle(b.BinaryForm(*t))
        n = len(cycle)
        c_star = max(g[0] for g in cycle if g[0] < 0)
        assert c_star < -1
        centred = self.first_centre(cycle) is not None
        assert centred == (t not in ((2, 1, -18), (6, 11, -37)))
        for k in range(n):
            rotated = cycle[k:] + cycle[:k]
            i = self.first_centre(rotated)
            expected = n if i is None else i + n // 2 + 1
            assert self.forms_read(b.BinaryForm(*rotated[0]), monkeypatch) == \
                (expected, c_star), (t, k)
            if centred:
                assert -1 <= i <= n // 2 - 2

    def test_diagonal_cycles_are_walked_halfway(self, monkeypatch):
        # the start of a diagonal form follows an edge centre, so its
        # ambiguous cycle of L forms is read in at most L/2 + 1 forms, where
        # the record of the cycle needs all L
        seen = 0
        for d in NONSQUARE:
            for t in ((1, 0, -d), (2, 0, -d), (-3, 0, d)):
                f = b.BinaryForm(*t)
                if not b.is_anisotropic(f):
                    continue
                cycle = cycle_oracle(f)
                n = len(cycle)
                monkeypatch.setattr(b, "_CYCLE_CAP", n // 2 + 1)
                b._cycle.cache_clear()
                b._mu_walk.cache_clear()
                assert b.mu(f) == max(g[0] for g in cycle if g[0] < 0), t
                if n > 2:
                    seen += 1
                    with pytest.raises(EffortLimitExceeded):
                        _record(f)
        assert seen > 350, seen

    def test_mu_memo_is_bounded_and_walks_once(self):
        # one walk per reduced start form while its value is held; the
        # memo keeps the _RECORD_SLOTS most recently used values
        forms = [b.BinaryForm.from_d(d) for d in NONSQUARE[:b._RECORD_SLOTS + 1]]
        assert b._mu_walk.cache_info().maxsize == b._RECORD_SLOTS
        values = [b.mu(f) for f in forms]
        info = b._mu_walk.cache_info()
        assert info.misses == len(forms) and info.hits == 0
        assert info.currsize == b._RECORD_SLOTS
        assert [b.mu(f) for f in forms[1:]] == values[1:]
        assert b._mu_walk.cache_info().misses == len(forms)
        assert b.mu(forms[0]) == values[0]
        assert b._mu_walk.cache_info().misses == len(forms) + 1

    def test_mu_builds_no_record(self, monkeypatch):
        def no_record(start):
            raise AssertionError(f"mu built the cycle record of {start}")

        forms = [b.BinaryForm.from_d(d) for d in NONSQUARE] + \
            [b.BinaryForm(*t) for t in ((-1, 0, 7), (2, 0, -6), (1, -11, 11))]
        cycle = b._cycle
        monkeypatch.setattr(b, "_cycle", no_record)
        for f in forms:
            assert b.mu(f) == mu_oracle(f), f
        assert cycle.cache_info().currsize == 0

    def test_streamed_mu_memory_is_flat(self):
        # the record of this 97 532-form cycle takes about 23 MiB
        import tracemalloc
        f = b.BinaryForm.from_d(9_999_999_967)
        tracemalloc.start()
        try:
            assert b.mu(f) == -3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b._cycle.cache_info().currsize == 0
        assert peak < 2**20, peak

    def test_record_cache_is_least_recently_used(self):
        # the 64 most recently used cycles are kept: a 65th start evicts the
        # least recently used one, a hit renews an entry, and mu reads none
        starts = [b._reduce_form((1, 0, -d), 4 * d, isqrt(4 * d))[0]
                  for d in NONSQUARE[:b._RECORD_SLOTS + 1]]
        assert b._cycle.cache_info().maxsize == b._RECORD_SLOTS
        records = [b._cycle(s) for s in starts[:b._RECORD_SLOTS]]
        assert b._cycle(starts[0]) is records[0]
        b.mu(b.BinaryForm.from_d(NONSQUARE[1]))
        b._cycle(starts[-1])
        info = b._cycle.cache_info()
        assert info.currsize == b._RECORD_SLOTS
        assert (info.hits, info.misses) == (1, b._RECORD_SLOTS + 1)
        # the renewed start is still held, and the next oldest is not
        assert b._cycle(starts[0]) is records[0]
        assert b._cycle(starts[2]) is records[2]
        assert b._cycle.cache_info().misses == b._RECORD_SLOTS + 1
        assert b._cycle(starts[1]) is not records[1]
        assert b._cycle.cache_info().misses == b._RECORD_SLOTS + 2


# products of 5 to 7 primes up to 17, repeats allowed, up to 10^5
SMOOTH = sorted({prod(ps) for k in (5, 6, 7)
                 for ps in combinations_with_replacement((2, 3, 5, 7, 11, 13, 17), k)
                 if prod(ps) <= 10**5})


@st.composite
def disc_and_target(draw):
    """(D, m): D <= 10^6 a discriminant, m = +-(any small m, a power of 2, an
    odd prime power, a power of a divisor of D, or one of SMOOTH times
    2^i 3^j 5^k), |m| <= 2 * 10^5.  For half the smooth m, D is instead a
    square plus a multiple of 4|m|, so that every prime gives roots."""
    d = draw(st.integers(1, 10**6).filter(lambda d: d % 4 in (0, 1)))
    kind = draw(st.sampled_from(("small", "two", "odd", "divides", "smooth")))
    if kind == "small":
        m = draw(st.integers(1, 3000))
    elif kind == "two":
        m = 2 ** draw(st.integers(0, 17))
    elif kind == "smooth":
        m = draw(st.sampled_from(SMOOTH))
        for p in (2, 3, 5):
            k = draw(st.integers(0, 3))
            while k and m * p**k > 10**5:
                k -= 1
            m *= p**k
        if draw(st.booleans()):
            d = draw(st.integers(0, 4 * m - 1)) ** 2 + 4 * m * draw(st.integers(0, 10))
    else:
        if kind == "odd":
            q = draw(st.sampled_from((3, 5, 7, 11, 13, 101, 443)))
        else:
            q = draw(st.sampled_from(
                [k for k in range(2, min(d, 450) + 1) if d % k == 0] or [1]))
        m = q ** draw(st.integers(1, 11))
        while m > 2 * 10**5:
            m //= q
    return d, m * draw(st.sampled_from((1, -1)))


class TestFastPathsMatchOracles:
    """The factorised square roots, the cycle record and the square parts
    against the linear scans they replace (see conftest)."""

    @given(disc_and_target())
    @example((4 * 3**8 * 5, 3**10))       # p | D to a high power
    @example((5**6, -5**7))
    @example((4 * 161, -10**5))
    @example((17, 2**17))                  # D = 1 (mod 8): four roots mod 2^k
    @example((12, 2**16))                  # D = 4 (mod 8)
    @example((4 * 2**6 * 3, 2**15))
    @example((1, 1))
    @example((5, 1))
    @example((1, 3 * 5 * 7 * 11 * 13))     # 2^5 classes, each prime a residue
    @example((4 * 15015 + 1, -15015))
    @example((12, 2 * 3 * 5 * 7 * 11 * 13))  # 12 is a nonresidue mod 5 and 7
    @example((4 * 3**4 * 5**2, 2**4 * 3**5 * 5**3))
    @settings(max_examples=300, deadline=None)
    def test_sqrt_classes_match_the_scan(self, dm):
        d, m = dm
        assert b._sqrt_classes_mod(d, m) == sqrt_classes_oracle(d, m)

    @pytest.mark.parametrize("d,m", [
        (1, 3 * 5 * 7 * 11 * 13 * 17), (1, -(2**5) * 3**3 * 5 * 7 * 11),
        (12, 2 * 3 * 5 * 7 * 11 * 13), (5, 3**7 * 5**3),
        (4 * 3**4 * 5**2, 2**4 * 3**5 * 5**3)])
    def test_each_prime_power_is_lifted_once(self, monkeypatch, d, m):
        # one Tonelli-Shanks and Hensel lift per prime power of 4|m|,
        # however many roots the primes before it gave
        lifted = []
        lift = b._sqrt_mod_prime_power

        def counted_lift(disc, p, e):
            lifted.append((p, e))
            return lift(disc, p, e)

        monkeypatch.setattr(b, "_sqrt_mod_prime_power", counted_lift)
        assert b._sqrt_classes_mod(d, m) == sqrt_classes_oracle(d, m)
        assert lifted == list(factorize(4 * m))

    def test_nonresidue_only_when_tonelli_shanks_loops(self, monkeypatch):
        # with p - 1 = 2^s q, q odd, a root of a is a^((q + 1) / 2) when
        # a^q = 1, always so for p = 3 (mod 4): no nonresidue is drawn then
        drawn = []
        nonresidue = b.smallest_nonresidue

        def counted_nonresidue(p):
            drawn.append(p)
            return nonresidue(p)

        monkeypatch.setattr(b, "smallest_nonresidue", counted_nonresidue)
        loops = 0
        for p in filter(is_prime, range(3, 400)):
            q = p - 1
            while q % 2 == 0:
                q //= 2
            for a in sorted({x * x % p for x in range(1, p)}):
                drawn.clear()
                r = b._sqrt_mod_prime(a, p)
                assert r * r % p == a
                assert drawn == ([p] if pow(a, q, p) != 1 else []), (a, p)
                assert not (drawn and p % 4 == 3)
                loops += bool(drawn)
        assert loops > 1000

    @given(indefinite_forms())
    @settings(max_examples=150, deadline=None)
    def test_cycle_record_holds_the_cycle(self, t):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        cycle = cycle_oracle(f)
        _, _, pos, leads, steps = _record(f)
        assert list(pos) == cycle
        assert [pos[g] for g in cycle] == list(range(len(cycle)))
        assert leads == frozenset(g[0] for g in cycle)
        disc, sq = f.disc, isqrt(f.disc)
        assert steps == tuple(_rho(*g, disc, sq)[1] for g in cycle)
        # the walk inlines only the branch of the rho step taken when |c| <= sq
        assert all(abs(g[2]) <= sq for g in cycle)

    @given(indefinite_forms(400))
    @example((1, 0, -7))
    @example((1, 3, -1000))
    @settings(max_examples=300, deadline=None)
    def test_reduction_matches_the_step_by_step_walk(self, t):
        # the rho step of _reduce_form, in both its branches, and its
        # column-wise matrix against full 2x2 products of the step matrices
        f = b.BinaryForm(*t)
        if b.is_anisotropic(f):
            disc, sq = f.disc, isqrt(f.disc)
            assert b._reduce_form(t, disc, sq) == _reduce_oracle(t, disc, sq)

    @given(indefinite_forms(), st.integers(-60, 60).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_primitive_test_matches_the_cycle_scan(self, t, n):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        assert (b._first_class(_record(f), n) is not None) == \
            primitive_oracle(f, n)
        assert b.represents(f, n) == any(
            primitive_oracle(f, m) for _, m in square_parts_oracle(n))

    @given(indefinite_forms())
    @example((1, 0, -8))
    @example((1, 0, -99))
    @example((1, -11, -11))
    @example((1, 0, -1000003))
    @settings(max_examples=150, deadline=None)
    def test_mu_matches_the_downward_loop(self, t):
        f = b.BinaryForm(*t)
        if b.is_anisotropic(f):
            assert b.mu(f) == mu_oracle(f)

    @staticmethod
    def _forbid_class_search(mp):
        def no_class_search(*args):
            raise AssertionError("mu ran a class search")

        for name in ("_first_class", "_sqrt_classes_mod", "factorize"):
            mp.setattr(b, name, no_class_search)

    @staticmethod
    def _c_star(f):
        return max(g[0] for g in cycle_oracle(f) if g[0] < 0)

    def test_mu_reads_c_star_without_a_class_search(self, monkeypatch):
        # c* is the largest negative leading coefficient of the cycle; mu
        # must return it with no square roots, factoring or class search,
        # also on the window forms, those with 4c*^2 >= D
        import random
        rng = random.Random(9)
        forms = [(1, 0, -d) for d in range(2, 150) if not b.is_square(d)]
        while len(forms) < 250:
            t = tuple(rng.randint(-30, 30) for _ in range(3))
            if t[1] ** 2 - 4 * t[0] * t[2] > 0 and b.is_anisotropic(b.BinaryForm(*t)):
                forms.append(t)

        window = 0
        for t in forms:
            f = b.BinaryForm(*t)
            expected = mu_oracle(f)
            c_star = self._c_star(f)
            window += 4 * c_star * c_star >= f.disc
            with monkeypatch.context() as mp:
                self._forbid_class_search(mp)
                assert b.mu(f) == expected == c_star, t
        assert len(forms) - window >= 100 and window >= 30, window

    def test_mu_on_window_forms(self, monkeypatch):
        # window forms are rare among random forms (about 1 in 150 with
        # coefficients up to 100), so draw until 120 of them are found
        import random
        rng = random.Random(10)
        forms = []
        while len(forms) < 120:
            t = tuple(rng.randint(-100, 100) for _ in range(3))
            disc = t[1] ** 2 - 4 * t[0] * t[2]
            if disc <= 0 or b.is_square(disc):
                continue
            f = b.BinaryForm(*t)
            c_star = self._c_star(f)
            if 4 * c_star * c_star >= f.disc:
                forms.append((f, c_star))
        for f, c_star in forms:
            with monkeypatch.context() as mp:
                self._forbid_class_search(mp)
                got = b.mu(f)
            assert got == mu_oracle(f) == c_star, f

    @given(indefinite_forms(), st.integers(-60, 60).filter(bool))
    @example((1, 0, -8), -4)
    @example((1, 0, -161), -7)
    @example((3, 8, -7), -4)
    @settings(max_examples=300, deadline=None)
    def test_witnesses_match_the_matrix_walk(self, t, n):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        start, p = b._reduce(f)
        rec = b._cycle(start)

        def first_witness(m):
            cls = b._first_class(rec, m)
            return [] if cls is None else [
                b._class_witness(f, p, m, b._class_matrix(rec, *cls))]

        assert first_witness(n) == witness_walk_oracle(f, n)[:1]
        if t[1] % 2 == 0:
            # every norm binary_roots tries
            exponent = f.gram_lattice().discriminant().exponent
            for d in divisors(2 * exponent):
                assert first_witness(-d) == witness_walk_oracle(f, -d)[:1], (t, d)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_witness_step_tree_matches_the_matrix_walk(self, monkeypatch, chunk):
        # a chunk far below the cycle length makes each witness multiply its
        # steps in a tree, with odd and even leaf counts and a ragged last
        # chunk; the oracle multiplies the step matrices one by one
        monkeypatch.setattr(b, "_STEP_CHUNK", chunk)
        lengths, step_product = [], b._step_product

        def counted_product(ts):
            lengths.append(len(ts))
            return step_product(ts)

        monkeypatch.setattr(b, "_step_product", counted_product)
        for t in [(1, 0, -94), (1, 0, -421), (3, 8, -7), (2, 1, -18),
                  (6, 11, -37), (-7, 0, 30), (5, 13, -11)]:
            f = b.BinaryForm(*t)
            for n in range(-30, 31):
                if not n:
                    continue
                expected = None
                for s, m in square_parts_oracle(n):
                    ws = witness_walk_oracle(f, m)
                    if ws:
                        expected = (s * ws[0][0], s * ws[0][1])
                        break
                assert b.representation_witness(f, n) == expected, (t, n)
        assert max(lengths) > 3 * chunk
        assert {-(-n // chunk) % 2 for n in lengths if n} == {0, 1}

    def test_witness_searches_one_class(self, monkeypatch):
        # forms shaped like the perfbench binary_queries pool, (a, 2h, c)
        # with h^2 - ac log-spread over 250..250 000, queried at mu, at -6..6
        # and at values f(x, y) with |x|, |y| <= 4 (small enough for the
        # scanning oracle): each call witnesses one class only, and a square
        # part m with 4m^2 < D that is not a leading coefficient gets no
        # square roots at all
        import random
        rng = random.Random(14)
        forms = []
        while len(forms) < 40:
            target = int(250 * 1000 ** rng.random())
            s = isqrt(target)
            a, h = rng.choice((-1, 1)) * rng.randint(1, s), rng.randint(1, s)
            c = (h * h - target) // a
            if c and not b.is_square(h * h - a * c):
                forms.append(b.BinaryForm(a, 2 * h, c))
        witnessed, rooted = [], []
        class_witness, sqrt_classes = b._class_witness, b._sqrt_classes_mod

        def counted_witness(*args):
            witnessed.append(args)
            return class_witness(*args)

        def counted_sqrt(disc, m):
            rooted.append(m)
            return sqrt_classes(disc, m)

        monkeypatch.setattr(b, "_class_witness", counted_witness)
        monkeypatch.setattr(b, "_sqrt_classes_mod", counted_sqrt)
        small_non_leads = multi = 0
        for f in forms:
            leads = {g[0] for g in cycle_oracle(f)}
            ns = [b.mu(f)] + [n for n in range(-6, 7) if n]
            ns += [f.value(rng.randint(-4, 4), rng.randint(-4, 4) or 1)
                   for _ in range(4)]
            for n in ns:
                witnessed.clear()
                rooted.clear()
                got = b.representation_witness(f, n)
                assert len(witnessed) <= 1, (f, n)
                skipped = [m for _, m in square_parts_oracle(n)
                           if 4 * m * m < f.disc and m not in leads]
                assert not set(skipped) & set(rooted), (f, n)
                small_non_leads += len(skipped)
                expected = None
                for t, m in square_parts_oracle(n):
                    ws = witness_walk_oracle(f, m)
                    multi += len(ws) >= 2
                    if ws:
                        expected = (t * ws[0][0], t * ws[0][1])
                        break
                assert got == expected, (f, n)
        assert small_non_leads >= 300 and multi >= 100, (small_non_leads, multi)

    @given(st.integers(-10**7, 10**7).filter(bool))
    @example(2**12 * 3**6)
    @example(-10**6)
    @example(-(7**2) * 11**4 * 13)
    @example(1)
    @example(-1)
    @settings(max_examples=300, deadline=None)
    def test_square_parts_match_the_t_loop(self, n):
        assert list(b._square_parts(n)) == square_parts_oracle(n)


class TestAnisotropic:
    def test_examples(self):
        assert b.is_anisotropic(b.BinaryForm.from_d(161)) is True
        assert b.is_anisotropic(b.BinaryForm.from_d(9)) is False
        for a in range(2, 51):
            assert b.is_anisotropic(b.BinaryForm.from_d(a * a - 1)) is True


def brute_binary_roots(a2, bb, c, box):
    """Ground truth: norms and witnesses of roots by direct scan."""
    out = {}
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            m = a2 * x * x + bb * x * y + c * y * y
            if m >= 0:
                continue
            if (2 * a2 * x + bb * y) % m == 0 and (bb * x + 2 * c * y) % m == 0:
                out.setdefault(m, set()).add((x, y))
    return out


class TestBinaryRoots:
    def test_example_d8(self):
        assert b.binary_roots(b.BinaryForm.from_d(8)) == \
            ((-4, (2, 1)), (-8, (0, 1)))

    def test_example_d7_against_oracle(self):
        got = b.binary_roots(b.BinaryForm.from_d(7))
        oracle = brute_binary_roots(1, 0, -7, 50)
        assert sorted(m for m, _ in got) == sorted(oracle)
        assert {m for m, _ in got} == {-7, -14}
        for m, v in got:
            assert v in oracle[m] or (-v[0], -v[1]) in oracle[m]

    def test_witnesses_satisfy_root_condition(self):
        for d in (2, 7, 8, 15, 24, 161):
            f = b.BinaryForm.from_d(d)
            for m, v in b.binary_roots(f):
                assert f.value(*v) == m
                assert gcd(abs(v[0]), abs(v[1])) == 1
                assert (2 * f.a * v[0] + f.b * v[1]) % m == 0
                assert (f.b * v[0] + 2 * f.c * v[1]) % m == 0

    def test_complete_against_oracle_norm_sets(self):
        # within the candidate-norm contract the decision is complete, so
        # every oracle norm must appear; oracle box is generous
        for a2, bb, c in ((1, 0, -8), (1, 0, -7), (1, 0, -15), (2, 2, -2),
                          (3, 4, -7), (1, 0, -9), (0, 2, 0), (4, 2, -4)):
            f = b.BinaryForm(a2, bb, c)
            got = {m for m, _ in b.binary_roots(f)}
            oracle = set(brute_binary_roots(a2, bb, c, 60))
            assert oracle <= got, (a2, bb, c)
            # norms the decision found but the box missed must still verify
            for m, v in b.binary_roots(f):
                assert f.value(*v) == m

    def test_isotropic_forms_allowed(self):
        assert b.binary_roots(b.BinaryForm.from_d(9)) == ((-9, (0, 1)),)
        assert b.binary_roots(b.BinaryForm(0, 2, 0)) == ((-2, (1, -1)),)

    def test_rejects_odd_middle(self):
        with pytest.raises(InvalidInputError):
            b.binary_roots(b.BinaryForm(1, 1, -1))

    def test_rootless_example(self):
        assert b.binary_roots(b.BinaryForm(3, 8, -7)) == ()

    @given(even_middle_forms())
    @example((1, 0, -8))
    @example((3, 8, -7))
    @example((0, 2, 0))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_all_classes_oracle(self, t):
        f = b.BinaryForm(*t)
        assert b.binary_roots(f) == binary_roots_oracle(f), t

    @given(even_middle_forms(), st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_canonical_witness_matches_the_orbit_walk(self, t, x, y):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f) or gcd(x, y) != 1:
            return
        auto = b.fundamental_automorph(f)
        for v in ((x, y), b._apply(auto, (x, y)), (-y, x)):
            assert b._canonical_witness(auto, v) == \
                canonical_witness_oracle(auto, v), (t, v)
        assert b._canonical_witness(None, (x, y)) == \
            canonical_witness_oracle(None, (x, y))

    def test_root_classes_are_those_with_b_divisible_by_m(self):
        # the lemma of binary_roots: a class (m, b, c) of f's cycle holds a
        # root iff |m| divides b, on every class of every candidate norm
        import random
        rng = random.Random(11)
        seen = set()
        for t in random_even_middle_forms(rng, 120, 12):
            f = b.BinaryForm(*t)
            a, h, c = t[0], t[1] // 2, t[2]
            for d in divisors(2 * f.gram_lattice().discriminant().exponent):
                for r0, v in class_walk_oracle(f, -d):
                    is_root = 2 * gram_divisibility_oracle(a, h, c, v) % d == 0
                    assert is_root == (r0 % d == 0), (t, d, r0, v)
                    seen.add(is_root)
        assert seen == {True, False}

    def test_no_square_roots_and_one_automorph(self, monkeypatch):
        # on a non-square D the root classes b in {0, |m|} need one
        # congruence test each: no square roots mod 4|m|, no factorisation,
        # and one automorph however many roots there are
        import random
        rng = random.Random(12)
        forms = [(1, 0, -d) for d in range(2, 120) if not b.is_square(d)]
        forms += random_even_middle_forms(rng, 150, 40)
        expected = {t: binary_roots_oracle(b.BinaryForm(*t)) for t in forms}
        calls = []
        automorph = b.fundamental_automorph

        def counted(f):
            calls.append(f)
            return automorph(f)

        def forbidden(*args):
            raise AssertionError("binary_roots ran a square-root class search")

        many = 0
        for t in forms:
            calls.clear()
            with monkeypatch.context() as mp:
                for name in ("_sqrt_classes_mod", "factorize"):
                    mp.setattr(b, name, forbidden)
                mp.setattr(b, "fundamental_automorph", counted)
                got = b.binary_roots(b.BinaryForm(*t))
            assert got == expected[t], t
            assert len(calls) == (1 if got else 0), t
            many += len(got) >= 2
        assert many >= 50, many

    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
    @example(2, 0, 2)
    @example(1, 0, 1)
    @example(0, 1, 0)
    @example(4, 6, 9)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_exponent(self, a, h, c):
        # definite, indefinite and isotropic Gram matrices alike
        if a * c == h * h:
            return
        lat = Lattice(((a, h), (h, c)))
        assert b._gram_exponent(a, h, c) == lat.discriminant().exponent


class TestMemos:
    """The memos of binary_roots, the Pell unit and the divisors of 2e hold
    what a start form, d or e determines; each call still checks its own
    answer."""

    MEMOS = {"_cycle", "_mu_walk", "_root_classes", "_pell_unit",
             "_twice_e_divisors"}

    def test_every_memo_holds_record_slots(self):
        memos = binary_memos()
        assert {m.__name__ for m in memos} >= self.MEMOS
        assert all(m.cache_info().maxsize == b._RECORD_SLOTS for m in memos)

    @pytest.mark.parametrize("phase", ["fill", "check"])
    def test_autouse_fixture_clears_every_memo(self, request, phase):
        # "fill" leaves every object of reflekt.binary that has a
        # cache_clear holding values, and "check" runs next: both start
        # with all of them empty, so the fixture cleared each one
        assert "fresh_cycle_memos" in request.fixturenames
        memos = [obj for obj in vars(b).values() if hasattr(obj, "cache_clear")]
        assert all(m.cache_info().currsize == 0 for m in memos)
        if phase == "fill":
            f = b.BinaryForm.from_d(7)
            assert b.binary_roots(f) and b.mu(f) == -3
            assert all(m.cache_info().currsize > 0 for m in memos)

    def test_forms_of_one_start_share_their_root_classes(self):
        # f and the next form of its reduction reduce to the same start:
        # one _root_classes entry serves both, and each gets its own
        # witnesses, mapped back through its own reducing matrix
        import random
        rng = random.Random(15)
        rooted = 0
        for t in random_even_middle_forms(rng, 200, 30):
            f = b.BinaryForm(*t)
            disc, sq = f.disc, isqrt(f.disc)
            if _is_reduced(*t, sq):
                continue
            g = b.BinaryForm(*_rho(*t, disc, sq)[0])
            assert b._reduce_form(t, disc, sq)[0] == \
                b._reduce_form((g.a, g.b, g.c), disc, sq)[0]
            b._root_classes.cache_clear()
            got = b.binary_roots(f)
            assert got == binary_roots_oracle(f), t
            assert b.binary_roots(g) == binary_roots_oracle(g), t
            info = b._root_classes.cache_info()
            assert (info.hits, info.misses, info.currsize) == (1, 1, 1), t
            rooted += bool(got)
        assert rooted >= 50, rooted

    def test_answers_equal_cold_warm_and_cleared(self):
        import random
        rng = random.Random(16)
        forms = [b.BinaryForm(*t) for t in random_even_middle_forms(rng, 60, 20)]
        forms += [b.BinaryForm.from_d(d) for d in (7, 94, 161, 421)]

        def answers():
            return [(b.binary_roots(f), b.pell_fundamental(f.disc // 4),
                     b.fundamental_automorph(f),
                     roots.reflectivity_indicator(f.gram_lattice()))
                    for f in forms]

        cold = answers()
        assert [a[0] for a in cold] == [binary_roots_oracle(f) for f in forms]
        misses = b._root_classes.cache_info().misses
        assert answers() == cold
        assert b._root_classes.cache_info().misses == misses
        assert b._pell_unit.cache_info().hits > 0
        for memo in binary_memos():
            memo.cache_clear()
        assert answers() == cold

    def test_cached_pell_unit_still_refuses_non_ints(self):
        assert b.pell_fundamental(7) == b.PellSolution(x=8, y=3, d=7)
        for bad in (7.0, "7", [7]):
            with pytest.raises(InvalidInputError):
                b.pell_fundamental(bad)
        assert b._pell_unit.cache_info().currsize == 1

    def test_rank2_verdict_factorises_2e_once(self, monkeypatch):
        # binary_roots and root_norm_candidates read one divisor list
        from reflekt import arith
        calls, factorize = [], arith.factorize

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith, "factorize", counted)
        statuses = set()
        for g in (((1, 0), (0, -7)), ((3, 4), (4, -7)), ((2, 1), (1, -3)),
                  ((1, 0), (0, -94)), ((-5, 7), (7, 12))):
            for memo in binary_memos():
                memo.cache_clear()
            calls.clear()
            statuses.add(roots.reflectivity_indicator(Lattice(g)).status)
            assert calls == [2 * b._gram_exponent(g[0][0], g[0][1], g[1][1])], g
        assert statuses == {roots.REFLECTIVE, roots.NON_REFLECTIVE}


class TestBudgets:
    """Overflowing a reduction or cycle cap is a budget, not a bug."""

    def test_cycle_cap(self, monkeypatch):
        monkeypatch.setattr(b, "_CYCLE_CAP", 2)
        with pytest.raises(EffortLimitExceeded):
            b.mu(b.BinaryForm.from_d(94))

    @pytest.mark.parametrize("t", [(2, 1, -18), (6, 11, -37), (8, 3, -23),
                                   (-10_007, 3, 250_000)])
    def test_streamed_and_recorded_cycles_share_the_cap(self, monkeypatch, t):
        # no lead of -1 and no edge centre, so the streamed walk runs the
        # whole cycle: a cap of exactly its length admits both routes and one
        # less refuses both, with the same text
        f = b.BinaryForm(*t)
        cycle = cycle_oracle(f)
        assert -1 not in [g[0] for g in cycle]
        assert all(h != (g[2], g[1], g[0]) for g, h in zip(cycle, cycle[1:] + cycle[:1]))
        refusal = f"cycle through {cycle[0]} is longer than {len(cycle) - 1} forms"
        monkeypatch.setattr(b, "_CYCLE_CAP", len(cycle))
        assert b.mu(f) == mu_oracle(f)
        _, _, _, _, steps = _record(f)
        assert len(steps) == len(cycle)
        b._cycle.cache_clear()
        b._mu_walk.cache_clear()
        monkeypatch.setattr(b, "_CYCLE_CAP", len(cycle) - 1)
        for route in (b.mu, _record):
            with pytest.raises(EffortLimitExceeded) as exc:
                route(f)
            assert str(exc.value) == refusal
        assert b._cycle.cache_info().currsize == 0

    @pytest.mark.parametrize("t", [(1, 0, -94), (1, 0, -7), (1, 7, -28),
                                   (-7, 0, 30)])
    def test_half_walk_shares_the_cap_text(self, monkeypatch, t):
        # an ambiguous cycle whose start follows a centre is read in L/2
        # forms: a cap of L/2 admits mu and refuses the record, and one less
        # refuses both, with the text of _walk
        f = b.BinaryForm(*t)
        cycle = cycle_oracle(f)
        half = len(cycle) // 2
        assert cycle[-1] == (cycle[0][2], cycle[0][1], cycle[0][0])
        assert -1 not in [g[0] for g in cycle]
        refusal = f"cycle through {cycle[0]} is longer than {half - 1} forms"
        monkeypatch.setattr(b, "_CYCLE_CAP", half)
        assert b.mu(f) == mu_oracle(f)
        with pytest.raises(EffortLimitExceeded):
            _record(f)
        b._mu_walk.cache_clear()
        monkeypatch.setattr(b, "_CYCLE_CAP", half - 1)
        for route in (b.mu, _record):
            with pytest.raises(EffortLimitExceeded) as exc:
                route(f)
            assert str(exc.value) == refusal
        assert b._cycle.cache_info().currsize == 0

    def test_reduce_cap(self, monkeypatch):
        monkeypatch.setattr(b, "_REDUCE_CAP", 1)
        with pytest.raises(EffortLimitExceeded):
            b.represents(b.BinaryForm.from_d(7), -3)

    @pytest.mark.parametrize("d", [7, 13, 94, 421, 991])
    def test_cf_period_cap(self, monkeypatch, d):
        # periods 4, 5, 16, 37 and 60: the principal cycle has L = k forms
        # for an even period k and 2k for an odd one, and half of it is
        # walked, so a cap of L/2 answers the expansion, the Pell unit and
        # the automorph, and one less refuses all three with _walk's text
        cf = cf_oracle(d)
        k = len(cf.period)
        half = k // 2 if k % 2 == 0 else k
        start = (1, 2 * cf.a0, cf.a0 ** 2 - d)
        calls = (b.cf_sqrt, b.pell_fundamental,
                 lambda d: b.fundamental_automorph(b.BinaryForm.from_d(d)))
        x, y = pell_oracle(d)
        monkeypatch.setattr(b, "_CYCLE_CAP", half)
        assert [call(d) for call in calls] == [
            cf, b.PellSolution(x=x, y=y, d=d), ((x, d * y), (y, x))]
        monkeypatch.setattr(b, "_CYCLE_CAP", half - 1)
        # the Pell unit of d is held by its memo: walk the cycle again
        b._pell_unit.cache_clear()
        for call in calls:
            with pytest.raises(EffortLimitExceeded) as exc:
                call(d)
            assert str(exc.value) == (
                f"cycle through {start} is longer than {half - 1} forms")

    def test_factorisation_budget(self):
        # -(2^89 - 1) is a prime beyond 2^64: trial division to its square
        # root would not finish, and is_prime cannot certify it
        with pytest.raises(EffortLimitExceeded):
            b.represents(b.BinaryForm.from_d(161), -(2**89 - 1))
        with pytest.raises(EffortLimitExceeded):
            b.representation_witness(b.BinaryForm.from_d(161), -(2**89 - 1))
