from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (brute_values, cycle_oracle, mu_oracle, pell_oracle,
                      primitive_oracle, representation_oracle_values,
                      sqrt_classes_oracle, square_parts_oracle,
                      witness_walk_oracle)
from reflekt import binary as b
from reflekt.arith import divisors
from reflekt.errors import (EffortLimitExceeded, InvalidInputError,
                            IsotropicFormError)

NONSQUARE = [d for d in range(2, 201) if not b.is_square(d)]


def indefinite_forms(entry=12):
    return st.tuples(st.integers(-entry, entry), st.integers(-entry, entry),
                     st.integers(-entry, entry)).filter(
        lambda t: t[1] * t[1] - 4 * t[0] * t[2] > 0)


class TestBinaryForm:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            b.BinaryForm(1, 0, 1)  # definite
        with pytest.raises(InvalidInputError):
            b.BinaryForm(1, 2, 1)  # degenerate
        f = b.BinaryForm.from_d(7)
        assert (f.a, f.b, f.c) == (1, 0, -7)
        assert f.disc == 28

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

    # mu runs only the primitive test; `represents`, which also tries every
    # imprimitive part, is the oracle.  x^2 - 8y^2, x^2 - 24y^2, the a^2 - 1
    # cases 35 and 99 and the three odd-middle forms have 4 mu^2 >= D, so
    # their mu is found by the class search, not among cycle coefficients.
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


@st.composite
def disc_and_target(draw):
    """(D, m): D <= 10^6 a discriminant, m = +-(any small m, a power of 2, an
    odd prime power, or a power of a divisor of D), |m| <= 2 * 10^5."""
    d = draw(st.integers(1, 10**6).filter(lambda d: d % 4 in (0, 1)))
    kind = draw(st.sampled_from(("small", "two", "odd", "divides")))
    if kind == "small":
        m = draw(st.integers(1, 3000))
    elif kind == "two":
        m = 2 ** draw(st.integers(0, 17))
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
    @settings(max_examples=300, deadline=None)
    def test_sqrt_classes_match_the_scan(self, dm):
        d, m = dm
        assert b._sqrt_classes_mod(d, m) == sqrt_classes_oracle(d, m)

    @given(indefinite_forms())
    @settings(max_examples=150, deadline=None)
    def test_cycle_record_holds_the_cycle(self, t):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        cycle = cycle_oracle(f)
        pos, leads, steps = b._reduction(f).cycle
        assert list(pos) == cycle
        assert [pos[g] for g in cycle] == list(range(len(cycle)))
        assert leads == frozenset(g[0] for g in cycle)
        disc, sq = f.disc, isqrt(f.disc)
        assert steps == tuple(b._rho(*g, disc, sq)[1] for g in cycle)

    @given(indefinite_forms(), st.integers(-60, 60).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_primitive_test_matches_the_cycle_scan(self, t, n):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        assert b._represents_primitively(b._reduction(f), n) == \
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

    def test_mu_reads_c_star_or_searches_only_the_window(self, monkeypatch):
        # c* is the largest negative leading coefficient of the cycle: with
        # 4c*^2 < D mu must return it without any class search; otherwise
        # the class search runs on the window (c*, -ceil(sqrt(D)/2)]
        import random
        rng = random.Random(9)
        forms = [(1, 0, -d) for d in range(2, 150) if not b.is_square(d)]
        while len(forms) < 250:
            t = tuple(rng.randint(-30, 30) for _ in range(3))
            if t[1] ** 2 - 4 * t[0] * t[2] > 0 and b.is_anisotropic(b.BinaryForm(*t)):
                forms.append(t)

        def no_class_search(*args):
            raise AssertionError("class search ran in the c* branch")

        mix = {"c_star": 0, "window": 0}
        for t in forms:
            f = b.BinaryForm(*t)
            expected = mu_oracle(f)
            c_star = max(g[0] for g in cycle_oracle(f) if g[0] < 0)
            if 4 * c_star * c_star < f.disc:
                mix["c_star"] += 1
                with monkeypatch.context() as mp:
                    mp.setattr(b, "_sqrt_classes_mod", no_class_search)
                    assert b.mu(f) == expected == c_star, t
            else:
                mix["window"] += 1
                assert b.mu(f) == expected, t
        assert mix["c_star"] >= 100 and mix["window"] >= 30, mix

    @given(indefinite_forms(), st.integers(-60, 60).filter(bool))
    @example((1, 0, -8), -4)
    @example((1, 0, -161), -7)
    @example((3, 8, -7), -4)
    @settings(max_examples=300, deadline=None)
    def test_witnesses_match_the_matrix_walk(self, t, n):
        f = b.BinaryForm(*t)
        if not b.is_anisotropic(f):
            return
        red = b._reduction(f)
        assert b._primitive_representation_witnesses(f, red, n) == \
            witness_walk_oracle(f, n)
        if t[1] % 2 == 0:
            # every norm binary_roots tries
            exponent = f.gram_lattice().discriminant().exponent
            for d in divisors(2 * exponent):
                assert b._primitive_representation_witnesses(f, red, -d) == \
                    witness_walk_oracle(f, -d), (t, d)

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


class TestBudgets:
    """Overflowing a reduction or cycle cap is a budget, not a bug."""

    def test_cycle_cap(self, monkeypatch):
        b._cycle.cache_clear()
        monkeypatch.setattr(b, "_CYCLE_CAP", 2)
        try:
            with pytest.raises(EffortLimitExceeded):
                b.mu(b.BinaryForm.from_d(94))
        finally:
            b._cycle.cache_clear()

    def test_reduce_cap(self, monkeypatch):
        b._cycle.cache_clear()
        monkeypatch.setattr(b, "_REDUCE_CAP", 1)
        try:
            with pytest.raises(EffortLimitExceeded):
                b.represents(b.BinaryForm.from_d(7), -3)
        finally:
            b._cycle.cache_clear()

    def test_factorisation_budget(self):
        # -(2^89 - 1) is a prime beyond 2^64: trial division to its square
        # root would not finish, and is_prime cannot certify it
        with pytest.raises(EffortLimitExceeded):
            b.represents(b.BinaryForm.from_d(161), -(2**89 - 1))
        with pytest.raises(EffortLimitExceeded):
            b.representation_witness(b.BinaryForm.from_d(161), -(2**89 - 1))
