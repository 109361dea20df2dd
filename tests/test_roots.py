import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (U, box_vectors_oracle, brute_roots, charpoly_signature,
                      determinantal_divisor_oracle, diag, dsum, factorize_oracle)
from reflekt import intlinalg, roots as rt
from reflekt.errors import (DegenerateLatticeError, EffortLimitExceeded,
                            InvalidInputError, NotARootError)
from reflekt.lattice import Lattice


class TestIsRoot:
    def test_examples(self):
        assert rt.is_root(diag(1, -8), (2, 1)) is True
        assert rt.is_root(diag(1, -7), (2, 1)) is False

    def test_small_norms_are_automatic(self, battery12):
        for lat in battery12:
            for v, q in box_vectors_oracle(lat.gram, 3):
                if q in (-1, -2):
                    from math import gcd
                    g = 0
                    for x in v:
                        g = gcd(g, x)
                    if g == 1:
                        assert rt.is_root(lat, v), (lat.gram, v)

    def test_rejects_bad_candidates(self):
        with pytest.raises(InvalidInputError):
            rt.is_root(U, (1, 0))  # isotropic
        with pytest.raises(InvalidInputError):
            rt.is_root(diag(1, -8), (4, 2))  # imprimitive
        with pytest.raises(InvalidInputError):
            rt.is_root(U, (0, 0))


class TestReflect:
    def test_examples(self):
        lat = diag(1, -8)
        assert rt.reflect(lat, (2, 1), (1, 0)) == (3, 1)
        assert rt.reflect(lat, (2, 1), (0, 1)) == (-8, -3)
        assert rt.reflect(lat, (2, 1), (2, 1)) == (-2, -1)
        assert rt.reflect(lat, iter([0, 1]), (1, 1)) == (1, -1)
        assert rt.is_root(lat, iter([0, 1])) is True

    def test_rejects_non_root(self):
        with pytest.raises(NotARootError, match=r"^\(2, 1\) is not a root"):
            rt.reflect(diag(1, -7), [2, 1], (1, 0))

    def test_involution_preserves_norm(self, battery12):
        for lat in battery12:
            vectors = box_vectors_oracle(lat.gram, 2)
            for v in rt.find_roots_in_box(lat, 4):
                for u, qu in vectors:
                    image = rt.reflect(lat, v, u)
                    assert lat.norm(image) == qu
                    assert rt.reflect(lat, v, image) == u
                assert rt.reflect(lat, v, v) == tuple(-x for x in v)


class TestRootNormCandidates:
    def test_examples(self):
        assert rt.root_norm_candidates(diag(1, -8)) == (-1, -2, -4, -8, -16)
        assert rt.root_norm_candidates(U) == (-1, -2)
        assert rt.root_norm_candidates(diag(2, -2)) == (-1, -2, -4)

    def test_every_root_norm_is_a_candidate(self, battery12):
        for lat in battery12:
            cands = set(rt.root_norm_candidates(lat))
            for v in rt.find_roots_in_box(lat, 5):
                assert lat.norm(v) in cands


class TestFindRootsInBox:
    def test_example_d8(self):
        # oracle-confirmed: (2,-1) is a third sign class
        assert rt.find_roots_in_box(diag(1, -8), 3) == ((0, 1), (2, -1), (2, 1))

    def test_example_d161(self):
        # (0,1) has norm -161 dividing twice every pairing, hence is a root
        assert rt.find_roots_in_box(diag(1, -161), 20) == ((0, 1),)

    def test_example_u(self):
        assert rt.find_roots_in_box(U, 1) == ((1, -1),)

    def test_needs_no_factorisation_of_2e(self, monkeypatch):
        # 2e has three prime factors above the trial-division budget, so
        # factorize would raise EffortLimitExceeded
        def refuse(n):
            raise AssertionError(f"factorize({n}) ran")

        monkeypatch.setattr("reflekt.arith.factorize", refuse)
        lat = diag(1, -1, -2000003 * 2000029 * 2000039)
        assert rt.find_roots_in_box(lat, 2) == ((0, 0, 1), (0, 1, 0))

    def test_runs_no_validating_api(self, monkeypatch):
        # candidates are tested on the Gram rows directly, not through
        # Lattice.divisibility and its vector re-validation
        lats = [diag(1, -8), dsum(U, diag(-2)), dsum(U, U, diag(-6)),
                Lattice(((2, 1, 0), (1, -2, 3), (0, 3, -4)))]
        want = [rt.find_roots_in_box(lat, 3) for lat in lats]
        assert want == [tuple(sorted(brute_roots(lat, 3))) for lat in lats]

        def refuse(*args):
            raise AssertionError("the validating API ran")

        monkeypatch.setattr(Lattice, "divisibility", refuse)
        monkeypatch.setattr(Lattice, "_check_vector", refuse)
        assert [rt.find_roots_in_box(lat, 3) for lat in lats] == want
        assert all(want)

    def test_agrees_with_brute_force(self, battery12):
        for lat in battery12:
            box = 4 if lat.rank >= 4 else 6
            assert set(rt.find_roots_in_box(lat, box)) == brute_roots(lat, box), \
                lat.gram


def _exponent(lat):
    factors = determinantal_divisor_oracle(lat.gram)
    return factors[-1]


def _divisor_count(n):
    count = 1
    for _, e in factorize_oracle(n):
        count *= e + 1
    return count


def _unimodular_gram(rng, r):
    """A dense Gram matrix congruent to diag(+-1, ...), entries in [-4, 4]."""
    signs = [1, -1] + [rng.choice((1, -1)) for _ in range(r - 2)]
    g = [[signs[i] if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(4 * r):
        i, j = rng.sample(range(r), 2)
        s = rng.choice((1, -1))
        h = [row[:] for row in g]
        for k in range(r):  # row i += s row j, then column i += s column j
            h[i][k] += s * h[j][k]
        for k in range(r):
            h[k][i] += s * h[k][j]
        if max(abs(x) for row in h for x in row) <= 4:
            g = h
    return Lattice(tuple(map(tuple, g)))


def _random_gram(rng, r):
    """A symmetric nonsingular Gram matrix with entries in [-4, 4]."""
    while True:
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        try:
            return Lattice(tuple(map(tuple, g)))
        except DegenerateLatticeError:
            continue


def _rich_gram(rng, r):
    """A dense Gram matrix, entries in [-4, 4], whose 2e has >= 12 divisors."""
    while True:
        lat = _random_gram(rng, r)
        if _divisor_count(2 * _exponent(lat)) >= 12:
            return lat


def _dense_cases():
    rng = random.Random(8)
    cases = []
    for k in range(30):
        r = 3 + k % 3
        kind, make = (("e1", _unimodular_gram) if k % 2 == 0
                      else ("rich", _rich_gram))
        box = rng.choice((2, 3))
        cases.append(pytest.param(make(rng, r), box,
                                  id=f"{k}-{kind}-rank{r}-box{box}"))
    return cases


DENSE_CASES = _dense_cases()


def _workload_cases():
    """Random Gram matrices of rank 3-6, boxed as the benchmark's root
    searches are: 3 up to rank 4, 2 above."""
    rng = random.Random(64)
    cases = []
    for k in range(12):
        r = 3 + k % 4
        box = 3 if r <= 4 else 2
        cases.append(pytest.param(_random_gram(rng, r), box,
                                  id=f"workload{k}-rank{r}-box{box}"))
    return cases


WORKLOAD_CASES = _workload_cases()


class TestFusedWalk:
    """find_roots_in_box tests primitivity alone at norms -1 and -2, and
    elsewhere only vectors whose norm divides 2|det|; the brute force in
    conftest tests every vector of the box."""

    def test_the_cases_cover_both_kinds(self):
        lats = [case.values[0] for case in DENSE_CASES]
        exps = [_exponent(lat) for lat in lats]
        assert sum(e == 1 for e in exps) == 15
        assert sum(_divisor_count(2 * e) >= 12 for e in exps) == 15
        assert {lat.rank for lat in lats} == {3, 4, 5}
        assert all(any(x for i, row in enumerate(lat.gram)
                       for j, x in enumerate(row) if i != j) for lat in lats)

    @pytest.mark.parametrize("lat,box", DENSE_CASES + WORKLOAD_CASES)
    def test_matches_brute_force(self, lat, box):
        want = tuple(sorted(brute_roots(lat, box)))
        assert rt.find_roots_in_box(lat, box) == want
        pos, neg = charpoly_signature(lat.gram)
        verdict = rt.reflectivity_indicator(lat, box)
        if pos and neg:
            assert verdict.status == rt.UNKNOWN
            assert verdict.evidence.roots == want
        else:
            assert verdict.status == rt.REFLECTIVE

    def test_roots_of_norms_other_than_minus_1_and_2_occur(self):
        norms = {lat.norm(v) for lat, box in (case.values for case in DENSE_CASES)
                 if _exponent(lat) > 1 for v in rt.find_roots_in_box(lat, box)}
        assert norms - {-1, -2}


class TestSearchBudget:
    """A box of more than DEFAULT_EFFORT_LIMIT = 10^6 prefixes is refused
    before the walk."""

    U3 = dsum(U, U, U)

    def test_rank6_default_budget_is_refused(self):
        with pytest.raises(EffortLimitExceeded):
            rt.find_roots_in_box(self.U3, 10)  # 21^5 prefixes
        with pytest.raises(EffortLimitExceeded):
            rt.reflectivity_indicator(self.U3, 10)

    def test_boundary(self):
        lat = dsum(U, diag(-2))
        lat.check_prefix_budget(499)  # 999^2 <= 10^6
        with pytest.raises(EffortLimitExceeded):
            rt.find_roots_in_box(lat, 500)  # 1001^2 > 10^6

    def test_norm_vector_enumeration_is_refused(self):
        with pytest.raises(EffortLimitExceeded):
            self.U3.enumerate_norm_vectors(-2, 10)
        with pytest.raises(EffortLimitExceeded):
            dsum(U, diag(-2)).enumerate_norm_vectors(-2, 500)

    def test_definite_lattices_need_no_search(self):
        assert rt.reflectivity_indicator(diag(1, 1, 1, 1, 1, 1), 10).status \
            == rt.REFLECTIVE


class TestReflectivity:
    def test_rank1_and_definite(self):
        assert rt.reflectivity_indicator(diag(5)).status == rt.REFLECTIVE
        assert rt.reflectivity_indicator(diag(-7)).status == rt.REFLECTIVE
        assert rt.reflectivity_indicator(diag(2, 3)).status == rt.REFLECTIVE
        assert rt.reflectivity_indicator(Lattice(((-2, 1), (1, -2)))).status \
            == rt.REFLECTIVE

    def test_diagonal_forms_are_reflective(self):
        # (0,1) is always a root of diag(1,-D), so the Weyl group has
        # finite index for every D in this family
        for d in (2, 7, 8, 15, 161):
            verdict = rt.reflectivity_indicator(diag(1, -d))
            assert verdict.status == rt.REFLECTIVE
            assert verdict.evidence.roots
            for v in verdict.evidence.roots:
                assert rt.is_root(diag(1, -d), v)

    def test_non_reflective_with_certificate(self):
        lat = Lattice(((3, 4), (4, -7)))
        verdict = rt.reflectivity_indicator(lat)
        assert verdict.status == rt.NON_REFLECTIVE
        assert verdict.evidence.roots == ()
        assert verdict.evidence.candidate_norms is not None
        m = verdict.evidence.isometry
        g = lat.gram
        mt_g_m = tuple(tuple(sum(m[k][i] * sum(g[k][l] * m[l][j]
                                               for l in range(2))
                                 for k in range(2)) for j in range(2))
                       for i in range(2))
        assert mt_g_m == g
        assert m[0][0] + m[1][1] > 2
        assert brute_roots(lat, 60) == set()

    def test_isotropic_rank2_reflective(self):
        assert rt.reflectivity_indicator(U).status == rt.REFLECTIVE
        assert rt.reflectivity_indicator(diag(1, -9)).status == rt.REFLECTIVE

    @staticmethod
    def hermite_candidates(lat):
        """root_norm_candidates by the general route: e from the Hermite
        passes of Lattice.discriminant, divisors of 2e by a scan."""
        two_e = 2 * lat.discriminant().exponent
        return tuple(-d for d in range(1, two_e + 1) if two_e % d == 0)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=300, deadline=None)
    def test_rank2_verdict_matches_the_hermite_route(self, a, h, c):
        try:
            lat = Lattice(((a, h), (h, c)))
        except DegenerateLatticeError:
            return
        got = rt.reflectivity_indicator(lat)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rt, "root_norm_candidates", self.hermite_candidates)
            want = rt.reflectivity_indicator(lat)
        assert got == want
        assert rt.root_norm_candidates(lat) == self.hermite_candidates(lat)

    def test_rank2_runs_no_hermite_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Hermite pass ran at rank 2")

        monkeypatch.setattr(intlinalg, "hermite_row_basis", refuse)
        statuses = {rt.reflectivity_indicator(Lattice(g)).status
                    for g in (((3, 4), (4, -7)), ((1, 0), (0, -8)),
                              ((0, 1), (1, 0)), ((2, 1), (1, 3)))}
        assert statuses == {rt.REFLECTIVE, rt.NON_REFLECTIVE}

    def test_rank3_plus_runs_no_hermite_pass(self, monkeypatch):
        lats = [dsum(U, diag(-6)), Lattice(((2, 1, 0), (1, -2, 3), (0, 3, -4))),
                dsum(U, diag(-2, 10)), dsum(U, U, diag(-12))]
        want = [tuple(sorted(brute_roots(lat, 2))) for lat in lats]

        def refuse(*args):
            raise AssertionError("a Hermite pass ran at rank >= 3")

        monkeypatch.setattr(intlinalg, "hermite_row_basis", refuse)
        assert [rt.find_roots_in_box(lat, 2) for lat in lats] == want
        verdicts = [rt.reflectivity_indicator(lat, 2) for lat in lats]
        assert [v.status for v in verdicts] == [rt.UNKNOWN] * len(lats)
        assert [v.evidence.roots for v in verdicts] == want
        assert all(want)

    @pytest.mark.parametrize("lat", [
        Lattice(((-2,),)), U, Lattice(((1, 0), (0, -8))),
        Lattice(((2, 1), (1, 3)))], ids=["rank1", "U", "rank2", "definite"])
    @pytest.mark.parametrize("budget", [2.5, 3.0, "3", None])
    def test_budget_is_an_integer_at_every_rank(self, lat, budget):
        # only rank >= 3 spends the budget, but every rank checks it
        with pytest.raises(InvalidInputError, match="expected integer entries"):
            rt.reflectivity_indicator(lat, budget)

    def test_rank3_unknown_with_evidence(self):
        verdict = rt.reflectivity_indicator(diag(1, -1, -1), budget=2)
        assert verdict.status == rt.UNKNOWN
        assert (0, 1, 0) in verdict.evidence.roots
        assert (0, 0, 1) in verdict.evidence.roots
        assert (0, 1, 1) in verdict.evidence.roots
        assert (0, 1, -1) in verdict.evidence.roots

    def test_never_decides_indefinite_rank3_plus(self, battery12):
        for lat in battery12:
            if lat.rank < 3:
                continue
            pos, neg = lat.signature()
            if pos and neg:
                assert rt.reflectivity_indicator(lat, budget=3).status \
                    == rt.UNKNOWN
